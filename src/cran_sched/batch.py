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
* ``log1p``, ``pow`` and ``log2`` are libm's, element by element
  (:func:`_each`).  NumPy's contiguous loops for them are vectorised and may
  differ from libm in the last bit, but on an input read backwards into a
  forward output NumPy falls back to its scalar loop, which calls the same
  libm function as ``math`` (:func:`_libm`): about 14 ns per element against
  88 ns for one CPython call per element (:func:`_map`).  A seeded probe
  checks that loop bit for bit against ``_map`` the first time a process
  uses each function, and ``_map`` serves a function whose probe fails and
  any argument or result outside the domain where the two agree.
* Every sum is an explicit left-to-right loop over the columns
  (:func:`_seq_sum`), never a NumPy reduction, which sums pairwise.  The
  ``0.0`` padding leaves such sums unchanged.
* The max-feasible entry is ``searchsorted(thresholds, sinr, "right") - 1``,
  the scalar binary search's answer.  Ties in the greedy choices go to the
  first user, as ``np.argmax`` and a stable sort pick them.
* The power terms that depend only on a user's position are computed once
  per pool point and cell set, into a table (:func:`position_terms`), and
  read back by index.  A libm call gives the same double for the same
  argument, and the products keep the scalar order
  ``((p0 * tx) * fading) * loss``.  A point's loss to its own cell is
  ``0.0`` in the table and the fading gain of an unoccupied pair is ``0.0``,
  so the pairs the scalar loop skips add ``0.0`` to its sums.

The per-element libm calls dominate the cost, so they are made only where
the scalar kernels use their results: the fading gains of occupied cells
and the capacities of active users.  Only the rows whose max-rate cost
exceeds the budget run the greedy kernels; every other row keeps the
max-rate allocation, which is what both return there.  The greedy step-down
loops only over the rows still over budget and recomputes only the user
that stepped, reusing the ``log2(cap - rate)`` of its cost for its water
level; swf caches each user's water level, and its re-add pass visits the
dropped users in a stable descending order of their initial level.
"""

from __future__ import annotations

import logging
import math
from itertools import repeat

import numpy as np

from .kernels import _LN2, MRS, SCC, SWF

log = logging.getLogger(__name__)

# position-term columns: d_serv**(s*apl), d_serv**((s-1)*apl), then
# cross**(-apl) to the BS of each scheduled cell
_TX, _SIG, _LOSS = 0, 1, 2

# a position-term table is built in blocks of about this many elements of
# pool points x scheduled cells
TERMS_ELEMENTS = 2**16

# whether each libm function runs through _libm in this process, decided by
# its probe on first use
_FAST: dict = {}


def _each(fn, x, *args):
    """``fn(v, *args)`` for each element ``v`` of the 1-D array ``x``,
    exactly as libm computes it: through :func:`_libm` where ``fn`` passed
    its probe and the arguments are in its domain, else :func:`_map`."""
    fast = _FAST.get(fn)
    if fast is None:
        fast = _FAST[fn] = _probe(fn)
    if fast:
        y = _libm(fn, x, args)
        if y is not None:
            return y
    return _map(fn, x, *args)


def _map(fn, x, *args):
    """``fn(v, *args)`` for each element ``v`` of ``x``, called from CPython
    on Python floats, so that ``math`` functions and ``pow`` run libm."""
    # iterating a memoryview gives the Python floats faster than tolist()
    return np.fromiter(
        map(fn, memoryview(np.ascontiguousarray(x)), *map(repeat, args)),
        np.float64, count=x.size,
    )


def _libm(fn, x, args):
    """:func:`_map` of ``math.log1p``, ``pow`` or ``math.log2`` through
    NumPy's scalar loop, which calls libm; ``None`` unless every result is
    finite and, for ``pow``, every base positive: outside that domain
    ``_map`` raises libm's errors as before, or returns what libm does.

    The ufunc reads ``x`` backwards and writes a forward array, a stride
    pattern NumPy's vectorised loops do not take (reversing the output too
    sends it back to them); the result is that array reversed.  ``pow``'s
    exponent is passed as a full array: with a scalar exponent NumPy's loop
    computes ``x ** 2``, ``x ** 0.5`` and ``x ** -1`` without libm.
    """
    ufunc = {math.log1p: np.log1p, pow: np.power, math.log2: np.log2}[fn]
    x = np.ascontiguousarray(x, np.float64)
    out = np.empty(x.size)
    with np.errstate(all="ignore"):
        ufunc(x[::-1], *(np.full(x.size, a) for a in args), out=out)
    if not np.isfinite(out).all() or (fn is pow and not (x > 0.0).all()):
        return None
    return out[::-1]


def _probe_cases(fn):
    """Seeded ``(x, args)`` pairs from ``fn``'s domain in a campaign: the
    fading draws' ``-u`` for ``log1p``; distances of 10 m to 50 km and
    exponents of up to 5 for ``pow``, with the ones NumPy special-cases;
    ``1 + sinr`` and ``cap - rate`` for ``log2``.  ``log2``'s 16,384 values
    catch a loop that differs from libm on 0.09% of them (NumPy's
    contiguous one does here) with probability above 1 - 1e-6; the others'
    1,024 catch the ~5% of their contiguous loops."""
    rng = np.random.default_rng(2015)
    if fn is math.log1p:
        return [(-rng.random(1024), ())]
    if fn is pow:
        exps = [0.5, -1.0, 2.0, *rng.uniform(-5.0, 5.0, 5).tolist()]
        bases = 10.0 ** rng.uniform(-2.0, 1.7, (len(exps), 128))
        return [(b, (e,)) for b, e in zip(bases, exps)]
    return [
        (1.0 + 10.0 ** rng.uniform(-3.0, 7.0, 8192), ()),
        (10.0 ** rng.uniform(-6.0, 1.4, 8192), ()),
    ]


def _probe(fn) -> bool:
    """Whether :func:`_libm` gives :func:`_map`'s bits on ``fn``'s
    :func:`_probe_cases`; logs the path ``fn`` takes, and why."""
    cases = _probe_cases(fn)
    bad = 0
    for x, args in cases:
        y = _libm(fn, x, args)
        want = _map(fn, x, *args).view(np.uint64)
        bad += x.size if y is None else int(
            np.count_nonzero(y.view(np.uint64) != want)
        )
    n = sum(x.size for x, _args in cases)
    if bad:
        log.info("%s: one CPython call per element; NumPy's scalar loop "
                 "differed from libm on %d of %d probe values",
                 fn.__name__, bad, n)
    else:
        log.info("%s: NumPy's scalar libm loop, bit-identical to libm on "
                 "%d probe values", fn.__name__, n)
    return not bad


def _seq_sum(a):
    """Left-to-right sum of each row of a 2-D array."""
    total = np.zeros(a.shape[0])
    for k in range(a.shape[1]):
        total += a[:, k]
    return total


def _distance(dx, dy, dmin):
    """Distance from the offsets, floored at ``dmin``."""
    return np.maximum(np.sqrt(dx * dx + dy * dy), dmin)


def position_terms(pool_xy, pool_off, bs_xy, dmin, nc, apl, s):
    """One row per pool point of the power terms ``kernels._sinr_trial``
    computes for a user there (see the column names above).  A point's loss
    to its own cell and, in a background cell, its signal term are never
    used and are ``0.0``."""
    n_points = pool_xy.shape[0]
    owners = np.repeat(np.arange(pool_off.size - 1), np.diff(pool_off))
    terms = np.zeros((n_points, _LOSS + nc))
    step = max(1, TERMS_ELEMENTS // nc)
    for a in range(0, n_points, step):
        owner, rows = owners[a: a + step], terms[a: a + step]
        px, py = pool_xy[a: a + step, 0], pool_xy[a: a + step, 1]
        d_serv = _distance(px - bs_xy[owner, 0], py - bs_xy[owner, 1], dmin)
        rows[:, _TX] = _each(pow, d_serv, s * apl)
        own = np.flatnonzero(owner < nc)
        rows[own, _SIG] = _each(pow, d_serv[own], (s - 1.0) * apl)
        cross = _distance(
            px[:, None] - bs_xy[:nc, 0], py[:, None] - bs_xy[:nc, 1], dmin
        )
        rows[:, _LOSS:] = _each(pow, cross.ravel(), -apl).reshape(cross.shape)
        rows[own, _LOSS + owner[own]] = 0.0
    return terms


def _channel(u_occ, u_pos, u_fade, p_occ, pool_off, nc, p0, noise, terms):
    """Occupancy (rows x n_inst) and SINR (rows x nc) of a block of trials,
    as ``kernels._draw_arrays`` and ``kernels._sinr_trial`` compute them,
    from the :func:`position_terms` table ``terms``.  The SINR of an
    unoccupied cell is left unspecified."""
    rows, n_inst = u_occ.shape
    occ = u_occ < p_occ
    occ_k = occ[:, :nc]

    npts = pool_off[1: n_inst + 1] - pool_off[:n_inst]
    j = (u_pos * npts).astype(np.int64)
    np.minimum(j, npts - 1, out=j)
    at = terms.take(pool_off[:n_inst] + j, axis=0)

    # fading gains where user i and cell k are both occupied, else 0.0
    pair = occ[:, :, None] & occ_k[:, None, :]
    fading = np.zeros((rows, n_inst, nc))
    f = -_each(math.log1p, -u_fade.reshape(rows, n_inst, nc)[pair])
    fading[pair] = np.where(f > 0.0, f, 1e-300)

    # interference from occupied user i at occupied cell k != i; the other
    # pairs add 0.0 through a zero gain or the zero own-cell loss
    term = (p0 * at[:, :, _TX])[:, :, None] * fading * at[:, :, _LOSS:]
    den = np.full((rows, nc), noise)
    for i in range(n_inst):
        den += term[:, i, :]

    diag = np.arange(nc)
    num = p0 * fading[:, diag, diag] * at[:, :nc, _SIG]
    return occ, num / den


def _costs(idx, cap, rates, c0, ilz):
    """``kernels._complexity_value`` at ladder entries ``idx`` (any shape),
    ``0.0`` where ``idx < 0``, and the ``log2(cap - rate)`` it takes there,
    which :func:`_levels` reuses."""
    comp = np.zeros(idx.shape)
    lg = np.zeros(idx.shape)
    sel = idx >= 0
    rate = rates[idx[sel]]
    lg[sel] = _each(math.log2, cap[sel] - rate)
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


def _step_down(idx, comp, rows, best, cap, rates, c0, ilz):
    """Move user ``best`` of each row in ``rows`` one ladder entry down;
    returns the new entries and their ``log2(cap - rate)``."""
    i = idx[rows, best] - 1
    idx[rows, best] = i
    comp[rows, best], lg = _costs(i, cap[rows, best], rates, c0, ilz)
    return i, lg


def _swf(mf, cap, init_c, wl0, rates, c0, ilz, budget):
    """``kernels._swf_trial`` (without its pre-pass) over a block."""
    idx, comp, wl = mf.copy(), init_c.copy(), wl0.copy()
    rows = np.flatnonzero(_seq_sum(comp) > budget)
    while rows.size:
        best = np.argmax(wl[rows], axis=1)
        has = wl[rows, best] > -np.inf
        rows, best = rows[has], best[has]
        i, lg = _step_down(idx, comp, rows, best, cap, rates, c0, ilz)
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
    init_c, lg = _costs(mf, cap, rates, c0, ilz)
    out[:, :, 0] = _seq_sum(np.where(mf >= 0, rates[mf], 0.0))[:, None]
    out[:, :, 1] = _seq_sum(init_c)[:, None]
    # the greedy kernels step down only the rows over budget, and return
    # max-rate's allocation on every other row
    bound = np.flatnonzero(out[:, 0, 1] > budget)
    mf, cap, init_c, lg = mf[bound], cap[bound], init_c[bound], lg[bound]
    for j, kind in enumerate(kinds):
        if kind == MRS:
            continue
        if kind == SWF:
            wl0 = _levels(mf, cap, init_c, lg, rates, c0, ilz)
            idx, comp = _swf(mf, cap, init_c, wl0, rates, c0, ilz, budget)
        elif kind == SCC:
            idx, comp = _scc(mf, cap, init_c, rates, c0, ilz, budget)
        else:
            raise ValueError("unknown scheduler kernel id")
        out[bound, j, 0] = _seq_sum(np.where(idx >= 0, rates[idx], 0.0))
        out[bound, j, 1] = _seq_sum(comp)


def run_chunk(
    u_occ, u_pos, u_fade,
    p_occ, pool_xy, pool_off, bs_xy, dmin, nc,
    thresholds, rates, c0, ilz,
    p0, noise, apl, s, terms,
    budget, kinds,
    out_n_active, out,
):
    """``kernels._run_chunk`` on a block of trials at once; ``terms`` is the
    cell set's :func:`position_terms` table, which replaces the pool, the BS
    positions and the power-law constants."""
    occ, sinr = _channel(
        u_occ, u_pos, u_fade, p_occ, pool_off, nc, p0, noise, terms
    )
    act = occ[:, :nc]
    out_n_active[:] = np.count_nonzero(act, axis=1)
    _schedule(act, sinr, thresholds, rates, c0, ilz, budget, kinds, out)
