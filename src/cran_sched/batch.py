"""The trial-batched kernels: channel draw, SINR and the three schedulers.

This is the one implementation of the per-trial algorithms.  Its functions
work on a block of trials, one row per trial and any number of rows:
``harness`` calls :func:`run_chunk` once per campaign chunk, which computes
the channel a block at a time and runs each greedy scheduler once, on the
chunk's rows over budget; the public per-trial kernels of :mod:`.kernels`
run the same functions on one row.  Inactive users stay in place as
padding (no ladder entry, cost ``0.0``), so every array is (rows x cells)
and a trial's users keep their cell order.  A scheduler is a function of
a block, :func:`mrs`, :func:`swf` or :func:`scc`, all with one signature,
which :func:`schedule_block` and :func:`run_chunk` call; the cost, tangent
and water-level formulas are :mod:`.complexity`'s.

The kernels write the bits of the scalar loops they replaced, which
``tests/scalar_kernels.py`` keeps as the independent reference, by five
rules (the README's "Kernels" section gives the measurements):

* NumPy does only ``+ - * /``, comparisons and ``sqrt``, which are correctly
  rounded on every SIMD path.
* ``log1p``, ``pow`` and ``log2`` are libm's, element by element
  (:func:`_each`): through NumPy's scalar loop, which calls libm
  (:func:`_libm`), where a probe found it bit-identical to one CPython call
  per element (:func:`_map`), else through ``_map``.
* Every sum adds left to right (:func:`_seq_sum`), never pairwise as a
  NumPy reduction does.  The ``0.0`` padding leaves such sums unchanged.
* The max-feasible entry is ``searchsorted(thresholds, sinr, "right") - 1``
  (:func:`max_feasible`), the scalar binary search's answer.  Ties in the
  greedy choices go to the first user, as ``argmax`` and a stable sort
  pick them.
* The power terms that depend only on a user's position are computed once
  per pool point and cell set (:func:`position_terms`) and read back by
  index; the products keep the scalar order ``((p0 * tx) * fading) *
  loss``, and the pairs the scalar loop skips add ``0.0``.

The libm calls dominate the cost, so they are made only where their
results are used.  Only the rows whose max-rate cost exceeds the budget run
the greedy kernels, whose step-down loops over the rows still over budget
and recomputes only the user that stepped.
"""

from __future__ import annotations

import logging
import math
from itertools import repeat

import numpy as np

from .complexity import cost, tangent, water_level

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

# _map beats _libm's fixed 3.5-5.5 us below this many elements
_LIBM_MIN = 64

# one add.accumulate call beats the loop over columns below this many rows
_ACCUMULATE_ROWS = 32


def _each(fn, x, *args):
    """``fn(v, *args)`` for each element ``v`` of the 1-D array ``x``,
    exactly as libm computes it: through :func:`_libm` where ``x`` is
    large enough to pay for it, ``fn`` passed its probe and the arguments
    are in its domain, else :func:`_map`."""
    if x.size < _LIBM_MIN:
        return _map(fn, x, *args)
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
    """Left-to-right sum ``((0.0 + a0) + a1) + ...`` of each row of a 2-D
    array.  ``add.accumulate`` adds in that order too, starting from
    ``a0``; the ``+ 0.0`` gives an all ``-0.0`` row the loop's ``+0.0``."""
    if a.shape[0] < _ACCUMULATE_ROWS and a.shape[1]:
        return np.add.accumulate(a, axis=1)[:, -1] + 0.0
    total = np.zeros(a.shape[0])
    for k in range(a.shape[1]):
        total += a[:, k]
    return total


def _distance(dx, dy, dmin):
    """Distance from the offsets, floored at ``dmin``."""
    return np.maximum(np.sqrt(dx * dx + dy * dy), dmin)


def distances(xy, owner, bs_xy, dmin, nc):
    """``(d_serv, cross)``: the distances of users at positions ``xy``
    (n x 2) in cells ``owner`` to their own BS (n) and to the scheduled
    cells' BSs (n x nc), floored at ``dmin``."""
    px, py = xy[:, 0], xy[:, 1]
    d_serv = _distance(px - bs_xy[owner, 0], py - bs_xy[owner, 1], dmin)
    cross = _distance(
        px[:, None] - bs_xy[:nc, 0], py[:, None] - bs_xy[:nc, 1], dmin
    )
    return d_serv, cross


def _power_terms(rows, owner, d_serv, cross, nc, apl, s):
    """Fill ``rows`` with the position terms (see the column names above)
    of users in cells ``owner`` at serving distances ``d_serv`` and
    distances ``cross`` to the scheduled cells' BSs.  The loss of a
    scheduled cell's user to its own cell is set to ``0.0``; the signal term
    of a background cell's user is left as it was."""
    rows[:, _TX] = _each(pow, d_serv, s * apl)
    own = np.flatnonzero(owner < nc)
    rows[own, _SIG] = _each(pow, d_serv[own], (s - 1.0) * apl)
    rows[:, _LOSS:] = _each(pow, cross.ravel(), -apl).reshape(cross.shape)
    rows[own, _LOSS + owner[own]] = 0.0


def position_terms(pool_xy, pool_off, bs_xy, dmin, nc, apl, s):
    """One row per pool point of the power terms a user there contributes
    to the SINR (see the column names above).  A point's loss to its own
    cell and, in a background cell, its signal term are never used and are
    ``0.0``."""
    n_points = pool_xy.shape[0]
    owners = np.repeat(np.arange(pool_off.size - 1), np.diff(pool_off))
    terms = np.zeros((n_points, _LOSS + nc))
    step = max(1, TERMS_ELEMENTS // nc)
    for a in range(0, n_points, step):
        owner = owners[a: a + step]
        d_serv, cross = distances(
            pool_xy[a: a + step], owner, bs_xy, dmin, nc
        )
        _power_terms(terms[a: a + step], owner, d_serv, cross, nc, apl, s)
    return terms


def pool_index(u_pos, pool_off):
    """The pool point drawn for each instantiated cell (the last axis of
    the position uniforms ``u_pos``), as an index into the stacked pools."""
    n_inst = u_pos.shape[-1]
    start = pool_off[:n_inst]
    npts = pool_off[1: n_inst + 1] - start
    j = (u_pos * npts).astype(np.int64)
    np.minimum(j, npts - 1, out=j)
    return start + j


def fading_gains(u_fade, pair):
    """Unit-mean exponential gains ``-log1p(-u)`` of the fading uniforms
    where the boolean array ``pair`` is true, ``0.0`` elsewhere, in
    ``pair``'s shape.  A uniform of exactly ``0.0`` would give a zero gain;
    the gains are floored at 1e-300, strictly positive as the fading model
    promises."""
    fading = np.zeros(pair.shape)
    f = -_each(math.log1p, -u_fade.reshape(pair.shape)[pair])
    fading[pair] = np.where(f > 0.0, f, 1e-300)
    return fading


def sinr_from_terms(at, fading, p0, noise):
    """SINR (rows x nc) at each scheduled cell from the position terms
    ``at`` (rows x n_inst x columns) of each instantiated cell's user and
    the fading gains (rows x n_inst x nc), which are ``0.0`` on the pairs
    that are not both occupied: fractionally power-controlled signal over
    noise plus the interference of every other occupied cell.  The zero
    gains and the zero own-cell loss make the other pairs add ``0.0``."""
    rows, n_inst, nc = fading.shape
    term = (p0 * at[:, :, _TX])[:, :, None] * fading * at[:, :, _LOSS:]
    den = np.full((rows, nc), noise)
    for i in range(n_inst):
        den += term[:, i, :]
    diag = np.arange(nc)
    num = p0 * fading[:, diag, diag] * at[:, :nc, _SIG]
    return num / den


def sinr_from_distances(occ, d_serv, cross, fading, nc, p0, noise, apl, s):
    """:func:`sinr_from_terms` of the occupancy ``occ`` (rows x n_inst), the
    :func:`distances` of each cell's user (rows x n_inst, rows x n_inst x
    nc) and the gains of every pair, with the occupied users' power terms
    computed here, not read from a table."""
    row, owner = np.nonzero(occ)
    terms = np.zeros((owner.size, _LOSS + nc))
    _power_terms(terms, owner, d_serv[occ], cross[occ], nc, apl, s)
    at = np.zeros(occ.shape + (_LOSS + nc,))
    at[row, owner] = terms
    pair = occ[:, :, None] & occ[:, None, :nc]
    return sinr_from_terms(at, np.where(pair, fading, 0.0), p0, noise)


def _channel(u_occ, u_pos, u_fade, p_occ, pool_off, nc, p0, noise, terms):
    """Occupancy (rows x n_inst) and SINR (rows x nc) of a block of trials
    from the :func:`position_terms` table ``terms``.  The SINR of an
    unoccupied cell is left unspecified."""
    occ = u_occ < p_occ
    at = terms.take(pool_index(u_pos, pool_off), axis=0)
    fading = fading_gains(u_fade, occ[:, :, None] & occ[:, None, :nc])
    return occ, sinr_from_terms(at, fading, p0, noise)


def max_feasible(thresholds, sinr):
    """Highest ladder entry whose threshold ``sinr`` meets (inclusive), or
    ``-1``, for an SINR array of any shape or a float; a NaN SINR meets
    none."""
    return np.where(
        sinr >= thresholds[0],
        np.searchsorted(thresholds, sinr, "right") - 1, -1,
    )


def _costs(idx, cap, rates, c0, ilz):
    """The decoding cost at ladder entries ``idx`` (any shape), ``0.0``
    where ``idx < 0``, and the ``log2(cap - rate)`` it takes there, which
    :func:`_levels` reuses."""
    comp = np.zeros(idx.shape)
    lg = np.zeros(idx.shape)
    sel = idx >= 0
    rate = rates[idx[sel]]
    lg[sel] = _each(math.log2, cap[sel] - rate)
    comp[sel] = cost(rate, lg[sel], c0, ilz)
    return comp, lg


def _levels(idx, cap, comp, lg, rates, c0, ilz):
    """The water level at ladder entries ``idx`` (any shape), given their
    :func:`_costs`; ``-inf`` where ``idx < 0``."""
    wl = np.full(idx.shape, -np.inf)
    sel = idx >= 0
    _a, _b, alpha, beta = tangent(rates[idx[sel]], cap[sel], lg[sel], c0, ilz)
    wl[sel] = water_level(alpha, beta, comp[sel])
    return wl


def _totals(idx, comp, rates):
    """Each row's ``(sum_rate, sum_complexity)``, summed left to right."""
    return _seq_sum(np.where(idx >= 0, rates[idx], 0.0)), _seq_sum(comp)


def _step_down(idx, comp, rows, best, cap, rates, c0, ilz):
    """Move user ``best`` of each row in ``rows`` one ladder entry down;
    returns the new entries and their ``log2(cap - rate)``."""
    i = idx[rows, best] - 1
    idx[rows, best] = i
    comp[rows, best], lg = _costs(i, cap[rows, best], rates, c0, ilz)
    return i, lg


def mrs(mf, cap, init_c, lg, rates, c0, ilz, budget):
    """Max-rate allocation: every user at its max-feasible entry, whatever
    the budget."""
    return mf, init_c


def swf(mf, cap, init_c, lg, rates, c0, ilz, budget):
    """Water-level-guided reduction with a final re-add pass: while a row
    is over budget, step down the user whose operating point demands the
    highest water level; then restore dropped users at their max feasible
    entry, highest initial level first, wherever the budget allows."""
    wl0 = _levels(mf, cap, init_c, lg, rates, c0, ilz)
    idx, comp, wl = mf.copy(), init_c.copy(), wl0.copy()
    rows = np.flatnonzero(_seq_sum(comp) > budget)
    while rows.size:
        best = wl[rows].argmax(axis=1)
        has = wl[rows, best] > -np.inf
        rows, best = rows[has], best[has]
        i, lg_i = _step_down(idx, comp, rows, best, cap, rates, c0, ilz)
        wl[rows, best] = _levels(
            i, cap[rows, best], comp[rows, best], lg_i, rates, c0, ilz
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


def scc(mf, cap, init_c, lg, rates, c0, ilz, budget):
    """Cost-greedy reduction: while a row is over budget, step down its
    most expensive user."""
    idx, comp = mf.copy(), init_c.copy()
    rows = np.flatnonzero(_seq_sum(comp) > budget)
    while rows.size:
        best = comp[rows].argmax(axis=1)
        has = comp[rows, best] > 0.0
        rows, best = rows[has], best[has]
        _step_down(idx, comp, rows, best, cap, rates, c0, ilz)
        rows = rows[_seq_sum(comp[rows]) > budget]
    return idx, comp


def _max_rate(mf, cap, rates, c0, ilz, budget):
    """``(init_c, sum_rate, sum_comp, bound, args)``: the :func:`_costs` at
    ``mf``, each row's max-rate totals, and the rows over budget, the only
    ones a kind other than :func:`mrs` runs on, and their arguments."""
    init_c, lg = _costs(mf, cap, rates, c0, ilz)
    sum_rate, sum_comp = _totals(mf, init_c, rates)
    bound = np.flatnonzero(sum_comp > budget)
    args = mf[bound], cap[bound], init_c[bound], lg[bound]
    return init_c, sum_rate, sum_comp, bound, args


def schedule_block(kind, mf, cap, rates, c0, ilz, budget):
    """Scheduler ``kind``'s ``(idx, comp)`` on a block and each row's
    ``(sum_rate, sum_complexity)``.  A scheduler maps the users' ``(mf, cap,
    init_c, lg)`` (:func:`_max_rate`) and ``rates, c0, ilz, budget`` to each
    user's ladder entry (``-1``: not served) and cost."""
    init_c, sum_rate, sum_comp, bound, args = _max_rate(
        mf, cap, rates, c0, ilz, budget
    )
    if kind is mrs or not bound.size:
        return mf, init_c, sum_rate, sum_comp
    i, c = kind(*args, rates, c0, ilz, budget)
    idx, comp = mf.copy(), init_c.copy()
    idx[bound], comp[bound] = i, c
    sum_rate[bound], sum_comp[bound] = _totals(i, c, rates)
    return idx, comp, sum_rate, sum_comp


def run_chunk(
    blocks, rows, p_occ, pool_off, nc, thresholds, rates, c0, ilz, p0, noise,
    terms, budget, kinds,
):
    """``(n_active, sums)`` of a chunk of ``rows`` trials from its ``(a, b,
    u)`` blocks of uniform rows ``a:b`` (occupancy and position uniforms of
    each instantiated cell, then fading ones): each trial's active users and
    ``sums[t, j] = (sum_rate, sum_complexity)`` of ``kinds[j]``.  The
    channel is computed a block at a time; each kind other than :func:`mrs`
    then runs once, on the chunk's rows over budget (:func:`_max_rate`)."""
    n_inst = p_occ.size
    parts = []
    for a, _b, u in blocks:
        occ, sinr = _channel(
            u[:, :n_inst], u[:, n_inst: 2 * n_inst], u[:, 2 * n_inst:],
            p_occ, pool_off, nc, p0, noise, terms,
        )
        act = occ[:, :nc]
        mf = np.where(act, max_feasible(thresholds, sinr), -1)
        cap = np.zeros(act.shape)
        cap[act] = _each(math.log2, 1.0 + sinr[act])
        _c, sum_rate, sum_comp, bound, args = _max_rate(
            mf, cap, rates, c0, ilz, budget
        )
        count = np.count_nonzero(act, axis=1)
        parts.append((count, sum_rate, sum_comp, a + bound, *args))
    n_active, sum_rate, sum_comp, at, *args = map(np.concatenate, zip(*parts))
    # freed here, so that the kinds' peak adds to no block's arrays
    del parts, u, occ, sinr, act, mf, cap
    sums = np.empty((rows, len(kinds), 2))
    sums[:, :, 0], sums[:, :, 1] = sum_rate[:, None], sum_comp[:, None]
    for j, kind in enumerate(kinds):
        if kind is not mrs and at.size:
            i, c = kind(*args, rates, c0, ilz, budget)
            sums[at, j, 0], sums[at, j, 1] = _totals(i, c, rates)
    return n_active, sums
