"""Trial-batched NumPy ``run_chunk``: the campaign kernel when numba is off.

:func:`run_chunk` takes the arguments of ``kernels._run_chunk`` and writes
the same outputs, bit for bit, but works on blocks of trials at once instead
of one trial at a time.  A block holds at most :data:`BLOCK_ELEMENTS`
elements of rows x instantiated cells x scheduled cells.  Inactive users
stay in place as padding (no ladder entry, cost ``0.0``), so every array is
(rows x cells) and a trial's users keep the scalar kernels' order.

Bit-identity with the scalar kernels rests on four rules:

* NumPy does only ``+ - * /``, comparisons and ``sqrt``, which are correctly
  rounded on every SIMD path.
* ``log1p``, ``pow`` and ``log2`` go through CPython's ``math`` and ``pow``
  (libm) one element at a time (:func:`_each`).  NumPy's vectorised versions
  of them may differ from libm in the last bit.
* Every sum is an explicit left-to-right loop over the columns
  (:func:`_seq_sum`), never a NumPy reduction, which sums pairwise.  The
  ``0.0`` padding leaves such sums unchanged.
* The max-feasible entry is ``searchsorted(thresholds, sinr, "right") - 1``,
  the scalar binary search's answer.  Ties in the greedy choices go to the
  first user, as ``np.argmax`` and a stable sort pick them.

The per-element libm calls dominate the cost, so they are made only where
the scalar kernels use their results: the power terms and fading gains of
occupied cells and the capacities of active users.  The greedy step-down
loops only over the rows still over budget and recomputes only the user
that stepped; swf caches each user's water level, and its re-add pass
visits the dropped users in a stable descending order of their initial
level.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .kernels import _LN2, MRS, SCC, SWF

# elements of rows x n_inst x nc per block of trials
BLOCK_ELEMENTS = 2**16


def _each(fn, x, *args):
    """``fn(v, *args)`` for each element ``v`` of ``x``, called from CPython
    on Python floats, so that ``math`` functions and ``pow`` run libm."""
    values = x.tolist()
    return np.fromiter(
        map(fn, values, *(repeat(a) for a in args)),
        np.float64, count=len(values),
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


def _channel(
    u_occ, u_pos, u_fade, p_occ, pool_xy, pool_off, bs_xy, dmin, nc,
    p0, noise, apl, s,
):
    """Occupancy (rows x n_inst) and SINR (rows x nc) of a block of trials,
    as ``kernels._draw_arrays`` and ``kernels._sinr_trial`` compute them.
    The SINR of an unoccupied cell is left unspecified."""
    rows, n_inst = u_occ.shape
    occ = u_occ < p_occ
    occ_k = occ[:, :nc]

    npts = pool_off[1: n_inst + 1] - pool_off[:n_inst]
    j = (u_pos * npts).astype(np.int64)
    np.minimum(j, npts - 1, out=j)
    pts = pool_xy[pool_off[:n_inst] + j]
    px, py = pts[:, :, 0], pts[:, :, 1]
    d_serv = _distance(px - bs_xy[:n_inst, 0], py - bs_xy[:n_inst, 1], dmin)
    # user i to the BS of scheduled cell k: (rows, n_inst, nc)
    cross = _distance(
        px[:, :, None] - bs_xy[:nc, 0], py[:, :, None] - bs_xy[:nc, 1], dmin
    )

    # fading gains where user i and cell k are both occupied
    pair = occ[:, :, None] & occ_k[:, None, :]
    fading = np.zeros((rows, n_inst, nc))
    f = -_each(math.log1p, -u_fade.reshape(rows, n_inst, nc)[pair])
    fading[pair] = np.where(f > 0.0, f, 1e-300)

    # interference from occupied user i at occupied cell k != i
    pair &= ~np.eye(n_inst, nc, dtype=np.bool_)
    loss = np.zeros((rows, n_inst, nc))
    loss[pair] = _each(pow, cross[pair], -apl)
    tx = np.zeros((rows, n_inst))
    tx[occ] = _each(pow, d_serv[occ], s * apl)
    term = (p0 * tx)[:, :, None] * fading * loss
    den = np.full((rows, nc), noise)
    for i in range(n_inst):
        den += term[:, i, :]

    diag = np.arange(nc)
    sig = np.zeros((rows, nc))
    sig[occ_k] = _each(pow, d_serv[:, :nc][occ_k], (s - 1.0) * apl)
    num = p0 * fading[:, diag, diag] * sig
    return occ, num / den


def _costs(idx, cap, rates, c0, ilz):
    """``kernels._complexity_value`` at ladder entries ``idx`` (any shape);
    ``0.0`` where ``idx < 0``."""
    comp = np.zeros(idx.shape)
    rate = np.where(idx >= 0, rates[idx], 0.0)
    sel = rate > 0.0
    r = rate[sel]
    raw = r * ilz * (c0 - 2.0 * _each(math.log2, cap[sel] - r))
    comp[sel] = np.where(raw > 0.0, raw, 0.0)
    return comp


def _levels(idx, cap, comp, rates, c0, ilz):
    """The water level of ``kernels._water_level_and_beta`` at ladder entries
    ``idx`` (any shape); ``-inf`` where ``idx < 0``."""
    wl = np.full(idx.shape, -np.inf)
    sel = idx >= 0
    rate = rates[idx[sel]]
    g = cap[sel] - rate
    a = -1.0 / (_LN2 * g)
    b = _each(math.log2, g) - a * rate
    alpha = -2.0 * a * ilz
    beta = (c0 - 2.0 * b) * ilz
    wl[sel] = np.sqrt(4.0 * alpha * comp[sel] + beta * beta)
    return wl


def _step_down(idx, comp, rows, best, cap, rates, c0, ilz):
    """Move user ``best`` of each row in ``rows`` one ladder entry down."""
    i = idx[rows, best] - 1
    idx[rows, best] = i
    comp[rows, best] = _costs(i, cap[rows, best], rates, c0, ilz)
    return i


def _swf(mf, cap, init_c, wl0, rates, c0, ilz, budget):
    """``kernels._swf_trial`` (without its pre-pass) over a block."""
    idx, comp, wl = mf.copy(), init_c.copy(), wl0.copy()
    rows = np.flatnonzero(_seq_sum(comp) > budget)
    while rows.size:
        best = np.argmax(wl[rows], axis=1)
        has = wl[rows, best] > -np.inf
        rows, best = rows[has], best[has]
        i = _step_down(idx, comp, rows, best, cap, rates, c0, ilz)
        wl[rows, best] = _levels(
            i, cap[rows, best], comp[rows, best], rates, c0, ilz
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


def _scc(mf, cap, init_c, rates, c0, ilz, budget):
    """``kernels._scc_trial`` over a block."""
    idx, comp = mf.copy(), init_c.copy()
    rows = np.flatnonzero(_seq_sum(comp) > budget)
    while rows.size:
        best = np.argmax(comp[rows], axis=1)
        has = comp[rows, best] > 0.0
        rows, best = rows[has], best[has]
        _step_down(idx, comp, rows, best, cap, rates, c0, ilz)
        rows = rows[_seq_sum(comp[rows]) > budget]
    return idx, comp


def _schedule(act, sinr, thresholds, rates, c0, ilz, budget, kinds, out):
    """Run scheduler ``kinds[j]`` on every trial of a block and write
    ``out[t, j] = (sum_rate, sum_complexity)``."""
    mf = np.where(act, np.searchsorted(thresholds, sinr, "right") - 1, -1)
    cap = np.zeros(act.shape)
    cap[act] = _each(math.log2, 1.0 + sinr[act])
    init_c = _costs(mf, cap, rates, c0, ilz)
    wl0 = None
    for j, kind in enumerate(kinds):
        if kind == MRS:
            idx, comp = mf, init_c
        elif kind == SWF:
            if wl0 is None:
                wl0 = _levels(mf, cap, init_c, rates, c0, ilz)
            idx, comp = _swf(mf, cap, init_c, wl0, rates, c0, ilz, budget)
        elif kind == SCC:
            idx, comp = _scc(mf, cap, init_c, rates, c0, ilz, budget)
        else:
            raise ValueError("unknown scheduler kernel id")
        out[:, j, 0] = _seq_sum(np.where(idx >= 0, rates[idx], 0.0))
        out[:, j, 1] = _seq_sum(comp)


def run_chunk(
    u_occ, u_pos, u_fade,
    p_occ, pool_xy, pool_off, bs_xy, dmin, nc,
    thresholds, rates, c0, ilz,
    p0, noise, apl, s,
    budget, kinds,
    out_n_active, out,
):
    """``kernels._run_chunk``, computed a block of trials at a time."""
    rows = u_occ.shape[0]
    n_inst = p_occ.shape[0]
    step = max(1, BLOCK_ELEMENTS // (n_inst * nc))
    for a in range(0, rows, step):
        b = min(a + step, rows)
        occ, sinr = _channel(
            u_occ[a:b], u_pos[a:b], u_fade[a:b],
            p_occ, pool_xy, pool_off, bs_xy, dmin, nc, p0, noise, apl, s,
        )
        act = occ[:, :nc]
        out_n_active[a:b] = np.count_nonzero(act, axis=1)
        _schedule(
            act, sinr, thresholds, rates, c0, ilz, budget, kinds, out[a:b]
        )
