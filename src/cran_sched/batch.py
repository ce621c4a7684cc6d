"""Trial-batched NumPy ``run_chunk``: the campaign kernel when numba is off.

:func:`run_chunk` takes the arguments of ``kernels._run_chunk`` and writes
the same outputs, bit for bit, but works on a block of trials at once
instead of one trial at a time.  ``harness`` owns the block loop: it draws a
chunk's uniforms one block at a time and calls :func:`run_chunk` once per
block.  Inactive users stay in place as padding (no ladder entry, cost
``0.0``), so every array is (rows x cells) and a trial's users keep the
scalar kernels' order.

Bit-identity with the scalar kernels rests on five rules:

* NumPy does only ``+ - * /``, comparisons and ``sqrt``, which are correctly
  rounded on every SIMD path.
* ``log1p``, ``pow`` and ``log2`` go through CPython's ``math`` and ``pow``
  (libm) one element at a time (:func:`_each`).  NumPy's vectorised versions
  of them may differ from libm in the last bit.  The element-wise function
  is the ``each`` parameter of :func:`run_chunk`; its default is
  :func:`_each`, and every result the program writes comes from it.  Only
  the calibration filter in ``harness`` passes NumPy's ufuncs instead, and
  none of its values is written.
* Every sum is an explicit left-to-right loop over the columns
  (:func:`_seq_sum`), never a NumPy reduction, which sums pairwise.  The
  ``0.0`` padding leaves such sums unchanged.
* The max-feasible entry is ``searchsorted(thresholds, sinr, "right") - 1``,
  the scalar binary search's answer.  Ties in the greedy choices go to the
  first user, as ``np.argmax`` and a stable sort pick them.
* The power terms that depend only on a user's position are computed once
  per pool point and stream, into a memo (:func:`pool_memo`), and read back
  by index.  A libm call gives the same double for the same argument, and
  the products keep the scalar order ``((p0 * tx) * fading) * loss``.
  Without a memo they are computed for every occupied cell of the block.

The per-element libm calls dominate the cost, so they are made only where
the scalar kernels use their results: the power terms of pool points not
yet in the memo, the fading gains of occupied cells and the capacities of
active users.  The greedy step-down loops only over the rows still over
budget and recomputes only the user that stepped, reusing the
``log2(cap - rate)`` of its cost for its water level; swf caches each
user's water level, and its re-add pass visits the dropped users in a
stable descending order of their initial level.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .kernels import _LN2, MRS, SCC, SWF

# memo columns: filled flag, d_serv**(s*apl), d_serv**((s-1)*apl), then
# cross**(-apl) to the BS of each scheduled cell
_FLAG, _TX, _SIG, _LOSS = 0, 1, 2, 3


def _each(fn, x, *args):
    """``fn(v, *args)`` for each element ``v`` of ``x``, called from CPython
    on Python floats, so that ``math`` functions and ``pow`` run libm."""
    # iterating a memoryview gives the Python floats faster than tolist()
    return np.fromiter(
        map(fn, memoryview(np.ascontiguousarray(x)), *map(repeat, args)),
        np.float64, count=x.size,
    )


def _seq_sum(a):
    """Left-to-right sum of each row of a 2-D array."""
    total = np.zeros(a.shape[0])
    for k in range(a.shape[1]):
        total += a[:, k]
    return total


def _distance(dx, dy, dmin):
    """Distance from the offsets, floored at ``dmin``."""
    return np.maximum(np.sqrt(dx * dx + dy * dy), dmin)


def pool_memo(n_points, nc):
    """A zeroed memo of the position-only power terms of ``n_points`` pool
    points, for one stream of trials: :func:`_channel` fills a point's row
    the first time a trial draws it (see :func:`_fill`)."""
    return np.zeros((n_points, _LOSS + nc))


def _terms(points, owner, pool_xy, bs_xy, dmin, nc, apl, s, each):
    """Memo rows of pool points ``points``, drawn by their cells ``owner``:
    what ``kernels._sinr_trial`` raises to a power for a user there (its own
    cell's loss and, for a background cell, its signal term are never used
    and stay ``0.0``), with the filled flag set."""
    rows = np.zeros((points.size, _LOSS + nc))
    px, py = pool_xy[points, 0], pool_xy[points, 1]
    d_serv = _distance(px - bs_xy[owner, 0], py - bs_xy[owner, 1], dmin)
    rows[:, _TX] = each(pow, d_serv, s * apl)
    own = owner < nc
    rows[own, _SIG] = each(pow, d_serv[own], (s - 1.0) * apl)
    cross = _distance(
        px[:, None] - bs_xy[:nc, 0], py[:, None] - bs_xy[:nc, 1], dmin
    )
    other = owner[:, None] != np.arange(nc)
    loss = rows[:, _LOSS:]
    loss[other] = each(pow, cross[other], -apl)
    rows[:, _FLAG] = 1.0
    return rows


def _fill(memo, new, owner, pool_xy, bs_xy, dmin, nc, apl, s, each):
    """Fill the memo rows of pool points ``new``, drawn by their cells
    ``owner`` (see :func:`_terms`)."""
    memo[new] = _terms(new, owner, pool_xy, bs_xy, dmin, nc, apl, s, each)


def _channel(
    u_occ, u_pos, u_fade, p_occ, pool_xy, pool_off, bs_xy, dmin, nc,
    p0, noise, apl, s, memo, each=_each,
):
    """Occupancy (rows x n_inst) and SINR (rows x nc) of a block of trials,
    as ``kernels._draw_arrays`` and ``kernels._sinr_trial`` compute them.
    The SINR of an unoccupied cell is left unspecified.  Fills ``memo`` for
    the occupied pool points it draws first; with ``memo=None`` it computes
    the position terms of every occupied cell of the block."""
    rows, n_inst = u_occ.shape
    occ = u_occ < p_occ
    occ_k = occ[:, :nc]

    npts = pool_off[1: n_inst + 1] - pool_off[:n_inst]
    j = (u_pos * npts).astype(np.int64)
    np.minimum(j, npts - 1, out=j)
    g = pool_off[:n_inst] + j
    if memo is None:
        terms = np.zeros(g.shape + (_LOSS + nc,))
        terms[occ] = _terms(
            g[occ], np.nonzero(occ)[1], pool_xy, bs_xy, dmin, nc, apl, s, each
        )
    else:
        need = occ & (memo[g, _FLAG] == 0.0)
        if need.any():
            new, first = np.unique(g[need], return_index=True)
            owner = np.nonzero(need)[1][first]
            _fill(memo, new, owner, pool_xy, bs_xy, dmin, nc, apl, s, each)
        terms = memo[g]

    # fading gains where user i and cell k are both occupied
    pair = occ[:, :, None] & occ_k[:, None, :]
    fading = np.zeros((rows, n_inst, nc))
    f = -each(math.log1p, -u_fade.reshape(rows, n_inst, nc)[pair])
    fading[pair] = np.where(f > 0.0, f, 1e-300)

    # interference from occupied user i at occupied cell k != i
    pair &= ~np.eye(n_inst, nc, dtype=np.bool_)
    loss = np.where(pair, terms[:, :, _LOSS:], 0.0)
    tx = np.where(occ, terms[:, :, _TX], 0.0)
    term = (p0 * tx)[:, :, None] * fading * loss
    den = np.full((rows, nc), noise)
    for i in range(n_inst):
        den += term[:, i, :]

    diag = np.arange(nc)
    sig = np.where(occ_k, terms[:, :nc, _SIG], 0.0)
    num = p0 * fading[:, diag, diag] * sig
    return occ, num / den


def _costs(idx, cap, rates, c0, ilz, each):
    """``kernels._complexity_value`` at ladder entries ``idx`` (any shape),
    ``0.0`` where ``idx < 0``, and the ``log2(cap - rate)`` it takes there,
    which :func:`_levels` reuses."""
    comp = np.zeros(idx.shape)
    lg = np.zeros(idx.shape)
    sel = idx >= 0
    rate = rates[idx[sel]]
    lg[sel] = each(math.log2, cap[sel] - rate)
    raw = rate * ilz * (c0 - 2.0 * lg[sel])
    comp[sel] = np.where((rate > 0.0) & (raw > 0.0), raw, 0.0)
    return comp, lg


def _levels(idx, cap, comp, lg, rates, c0, ilz):
    """The water level of ``kernels._water_level_and_beta`` at ladder entries
    ``idx`` (any shape), given their :func:`_costs`; ``-inf`` where
    ``idx < 0``."""
    wl = np.full(idx.shape, -np.inf)
    sel = idx >= 0
    rate = rates[idx[sel]]
    a = -1.0 / (_LN2 * (cap[sel] - rate))
    b = lg[sel] - a * rate
    alpha = -2.0 * a * ilz
    beta = (c0 - 2.0 * b) * ilz
    wl[sel] = np.sqrt(4.0 * alpha * comp[sel] + beta * beta)
    return wl


def _step_down(idx, comp, rows, best, cap, rates, c0, ilz, each):
    """Move user ``best`` of each row in ``rows`` one ladder entry down;
    returns the new entries and their ``log2(cap - rate)``."""
    i = idx[rows, best] - 1
    idx[rows, best] = i
    comp[rows, best], lg = _costs(i, cap[rows, best], rates, c0, ilz, each)
    return i, lg


def _swf(mf, cap, init_c, wl0, rates, c0, ilz, budget, each):
    """``kernels._swf_trial`` (without its pre-pass) over a block."""
    idx, comp, wl = mf.copy(), init_c.copy(), wl0.copy()
    rows = np.flatnonzero(_seq_sum(comp) > budget)
    while rows.size:
        best = np.argmax(wl[rows], axis=1)
        has = wl[rows, best] > -np.inf
        rows, best = rows[has], best[has]
        i, lg = _step_down(
            idx, comp, rows, best, cap, rates, c0, ilz, each
        )
        wl[rows, best] = _levels(
            i, cap[rows, best], comp[rows, best], lg, rates, c0, ilz
        )
        rows = rows[_seq_sum(comp[rows]) > budget]

    # re-add pass: dropped users by descending initial level, first user
    # first among equals
    cand = (idx < 0) & (mf >= 0)
    order = np.argsort(-np.where(cand, wl0, -np.inf), axis=1, kind="stable")
    n_cand = np.count_nonzero(cand, axis=1)
    for p in range(n_cand.max(initial=0)):
        rows = np.flatnonzero(n_cand > p)
        u = order[rows, p]
        fits = _seq_sum(comp[rows]) + init_c[rows, u] <= budget
        rows, u = rows[fits], u[fits]
        idx[rows, u] = mf[rows, u]
        comp[rows, u] = init_c[rows, u]
    return idx, comp


def _scc(mf, cap, init_c, rates, c0, ilz, budget, each):
    """``kernels._scc_trial`` over a block."""
    idx, comp = mf.copy(), init_c.copy()
    rows = np.flatnonzero(_seq_sum(comp) > budget)
    while rows.size:
        best = np.argmax(comp[rows], axis=1)
        has = comp[rows, best] > 0.0
        rows, best = rows[has], best[has]
        _step_down(idx, comp, rows, best, cap, rates, c0, ilz, each)
        rows = rows[_seq_sum(comp[rows]) > budget]
    return idx, comp


def _schedule(
    act, sinr, thresholds, rates, c0, ilz, budget, kinds, out, each
):
    """Run scheduler ``kinds[j]`` on every trial of a block and write
    ``out[t, j] = (sum_rate, sum_complexity)``."""
    mf = np.where(act, np.searchsorted(thresholds, sinr, "right") - 1, -1)
    cap = np.zeros(act.shape)
    cap[act] = each(math.log2, 1.0 + sinr[act])
    init_c, lg = _costs(mf, cap, rates, c0, ilz, each)
    wl0 = None
    for j, kind in enumerate(kinds):
        if kind == MRS:
            idx, comp = mf, init_c
        elif kind == SWF:
            if wl0 is None:
                wl0 = _levels(mf, cap, init_c, lg, rates, c0, ilz)
            idx, comp = _swf(
                mf, cap, init_c, wl0, rates, c0, ilz, budget, each
            )
        elif kind == SCC:
            idx, comp = _scc(mf, cap, init_c, rates, c0, ilz, budget, each)
        else:
            raise ValueError("unknown scheduler kernel id")
        out[:, j, 0] = _seq_sum(np.where(idx >= 0, rates[idx], 0.0))
        out[:, j, 1] = _seq_sum(comp)


def run_chunk(
    u_occ, u_pos, u_fade,
    p_occ, pool_xy, pool_off, bs_xy, dmin, nc,
    thresholds, rates, c0, ilz,
    p0, noise, apl, s, memo,
    budget, kinds,
    out_n_active, out,
    each=_each,
):
    """``kernels._run_chunk`` on a block of trials at once; ``memo`` is the
    stream's :func:`pool_memo`, which it fills as points are drawn, or
    ``None``.  ``each(fn, x, *args)`` evaluates ``fn`` over the array ``x``
    (see :func:`_each`).  Returns the block's active-cell mask and SINR (rows
    x nc, unspecified where a cell is inactive)."""
    occ, sinr = _channel(
        u_occ, u_pos, u_fade,
        p_occ, pool_xy, pool_off, bs_xy, dmin, nc, p0, noise, apl, s, memo,
        each,
    )
    act = occ[:, :nc]
    out_n_active[:] = np.count_nonzero(act, axis=1)
    _schedule(
        act, sinr, thresholds, rates, c0, ilz, budget, kinds, out, each
    )
    return act, sinr
