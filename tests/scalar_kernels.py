"""The scalar kernels: the independent reference the batched kernels are
tested against.

One trial (or one user) at a time, in plain loops with scalar ``math.*``
calls, the libm calls that ``cran_sched.batch`` makes one element at a time.
This is the code the campaign ran before the trial-batched path, kept
verbatim: ``tests/test_kernels.py`` requires ``cran_sched.batch.run_chunk``
and the one-row per-trial kernels of ``cran_sched.kernels`` to write its
bits.

Scheduling kernels operate on compacted per-user arrays (active users only)
and break argmax ties toward the lowest array position.  All budget
comparisons recompute the running total as a fresh left-to-right sum so the
feasibility decision never depends on accumulated rounding drift.
"""

from __future__ import annotations

import math

import numpy as np

_LN2 = math.log(2.0)


def seq_sum(values, n):
    """Left-to-right sum of the first n entries (deterministic order)."""
    total = 0.0
    for i in range(n):
        total += values[i]
    return total


def max_feasible_idx(thresholds, sinr):
    """Highest index with thresholds[idx] <= sinr, or -1 (binary search)."""
    lo = 0
    hi = thresholds.shape[0]
    while lo < hi:
        mid = (lo + hi) // 2
        if thresholds[mid] <= sinr:
            lo = mid + 1
        else:
            hi = mid
    return lo - 1


def complexity_value(rate, cap, c0, ilz):
    """Clamped decoding cost; caller guarantees rate < cap when rate > 0."""
    if rate <= 0.0:
        return 0.0
    raw = rate * ilz * (c0 - 2.0 * math.log2(cap - rate))
    return raw if raw > 0.0 else 0.0


def tangent(rate, cap, c0, ilz):
    """Tangent ``a * r + b`` of ``log2(cap - r)`` at ``rate`` and the induced
    quadratic cost coefficients: returns ``(a, b, quad_alpha, quad_beta)``."""
    g = cap - rate
    a = -1.0 / (_LN2 * g)
    b = math.log2(g) - a * rate
    return a, b, -2.0 * a * ilz, (c0 - 2.0 * b) * ilz


def water_level_and_beta(rate, cap, c0, ilz, comp):
    """Water level that would allocate `rate` under the local quadratic model.

    Returns ``(level, quad_beta)``.  ``comp`` is the (clamped, >= 0) cost
    currently charged to the user, so the radicand is at least quad_beta**2
    and the square root is always defined.
    """
    _a, _b, alpha, beta = tangent(rate, cap, c0, ilz)
    return math.sqrt(4.0 * alpha * comp + beta * beta), beta


def mrs_trial(sinr, cap, thresholds, rates, c0, ilz, idx, comp):
    """Max-rate allocation: every user at its highest feasible entry."""
    n = sinr.shape[0]
    sum_rate = 0.0
    for u in range(n):
        i = max_feasible_idx(thresholds, sinr[u])
        idx[u] = i
        if i >= 0:
            comp[u] = complexity_value(rates[i], cap[u], c0, ilz)
            sum_rate += rates[i]
        else:
            comp[u] = 0.0
    return sum_rate, seq_sum(comp, n)


def swf_trial(sinr, cap, thresholds, rates, c0, ilz, budget, drop_prep, idx, comp):
    """Water-level-guided MCS reduction with a final re-add pass.

    Starts every user at its max feasible entry, repeatedly steps down the
    user whose current operating point demands the highest water level until
    the total cost fits the budget, then tries to restore dropped users (at
    their max feasible entry, highest water level first) wherever the budget
    still allows.  ``drop_prep`` enables an optional pre-pass that zeroes
    every user whose required water level already reaches quad_beta; with
    clamped non-negative costs that comparison fires for everyone, so the
    pre-pass reduces the algorithm to its re-add phase; the package itself
    always passes False.
    """
    n = sinr.shape[0]
    mf = np.empty(n, np.int64)
    init_c = np.empty(n, np.float64)
    for u in range(n):
        i = max_feasible_idx(thresholds, sinr[u])
        mf[u] = i
        idx[u] = i
        if i >= 0:
            comp[u] = complexity_value(rates[i], cap[u], c0, ilz)
        else:
            comp[u] = 0.0
        init_c[u] = comp[u]

    if drop_prep:
        for u in range(n):
            i = idx[u]
            if i >= 0:
                wl, beta = water_level_and_beta(
                    rates[i], cap[u], c0, ilz, comp[u]
                )
                if wl >= beta:
                    idx[u] = -1
                    comp[u] = 0.0

    while seq_sum(comp, n) > budget:
        best = -1
        best_wl = -math.inf
        for u in range(n):
            i = idx[u]
            if i >= 0:
                wl, _b = water_level_and_beta(
                    rates[i], cap[u], c0, ilz, comp[u]
                )
                if wl > best_wl:
                    best_wl = wl
                    best = u
        if best < 0:
            break
        i = idx[best] - 1
        idx[best] = i
        if i >= 0:
            comp[best] = complexity_value(rates[i], cap[best], c0, ilz)
        else:
            comp[best] = 0.0

    # re-add pass: dropped users, highest water level at max feasible first
    cand_wl = np.empty(n, np.float64)
    for u in range(n):
        if idx[u] < 0 and mf[u] >= 0:
            cand_wl[u], _b = water_level_and_beta(
                rates[mf[u]], cap[u], c0, ilz, init_c[u]
            )
        else:
            cand_wl[u] = -math.inf
    while True:
        best = -1
        best_wl = -math.inf
        for u in range(n):
            if cand_wl[u] > best_wl:
                best_wl = cand_wl[u]
                best = u
        if best < 0 or best_wl == -math.inf:
            break
        cand_wl[best] = -math.inf
        if seq_sum(comp, n) + init_c[best] <= budget:
            idx[best] = mf[best]
            comp[best] = init_c[best]

    sum_rate = 0.0
    for u in range(n):
        if idx[u] >= 0:
            sum_rate += rates[idx[u]]
    return sum_rate, seq_sum(comp, n)


def scc_trial(sinr, cap, thresholds, rates, c0, ilz, budget, idx, comp):
    """Cost-greedy MCS reduction: step down the most expensive user."""
    n = sinr.shape[0]
    for u in range(n):
        i = max_feasible_idx(thresholds, sinr[u])
        idx[u] = i
        if i >= 0:
            comp[u] = complexity_value(rates[i], cap[u], c0, ilz)
        else:
            comp[u] = 0.0

    while seq_sum(comp, n) > budget:
        best = -1
        best_c = 0.0
        for u in range(n):
            if comp[u] > best_c:
                best_c = comp[u]
                best = u
        if best < 0:
            break
        i = idx[best] - 1
        idx[best] = i
        if i >= 0:
            comp[best] = complexity_value(rates[i], cap[best], c0, ilz)
        else:
            comp[best] = 0.0

    sum_rate = 0.0
    for u in range(n):
        if idx[u] >= 0:
            sum_rate += rates[idx[u]]
    return sum_rate, seq_sum(comp, n)


# scheduler kernel ids, dispatched by schedule
MRS, SWF, SCC = 0, 1, 2


def schedule(kind, sinr, cap, thresholds, rates, c0, ilz, budget, idx, comp):
    """Run scheduler ``kind`` (MRS, SWF or SCC) on one trial's active users;
    returns ``(sum_rate, sum_complexity)``.  MRS ignores the budget."""
    if kind == MRS:
        return mrs_trial(sinr, cap, thresholds, rates, c0, ilz, idx, comp)
    if kind == SWF:
        return swf_trial(
            sinr, cap, thresholds, rates, c0, ilz, budget, False, idx, comp
        )
    if kind == SCC:
        return scc_trial(
            sinr, cap, thresholds, rates, c0, ilz, budget, idx, comp
        )
    raise ValueError("unknown scheduler kernel id")


def draw_arrays(
    u_occ, u_pos, u_fade, p_occ, pool_xy, pool_off, bs_xy, dmin, nc,
    occ, pos, d_serv, cross_d, fading,
):
    """Turn one trial's uniforms into occupancy, positions, distances, gains.

    Cells ``0..nc-1`` are the scheduled ones; any further instantiated cells
    contribute interference only.  All variates are consumed unconditionally
    (one position uniform per instantiated cell, one fading uniform per
    instantiated-cell x scheduled-cell pair) so a trial's draw depends only
    on its uniform row, never on which cells happen to be occupied.  Returns
    the number of occupied scheduled cells.
    """
    n_inst = p_occ.shape[0]
    n_active = 0
    for k in range(n_inst):
        o = u_occ[k] < p_occ[k]
        occ[k] = o
        if o:
            if k < nc:
                n_active += 1
            npts = pool_off[k + 1] - pool_off[k]
            j = int(u_pos[k] * npts)
            if j >= npts:
                j = npts - 1
            px = pool_xy[pool_off[k] + j, 0]
            py = pool_xy[pool_off[k] + j, 1]
            pos[k, 0] = px
            pos[k, 1] = py
            dx = px - bs_xy[k, 0]
            dy = py - bs_xy[k, 1]
            d = math.sqrt(dx * dx + dy * dy)
            d_serv[k] = d if d > dmin else dmin
        else:
            pos[k, 0] = np.nan
            pos[k, 1] = np.nan
            d_serv[k] = np.nan
    for i in range(n_inst):
        for k in range(nc):
            f = -math.log1p(-u_fade[i * nc + k])
            # a uniform draw of exactly 0.0 would give a zero gain; keep the
            # gains strictly positive as the fading model promises
            fading[i, k] = f if f > 0.0 else 1e-300
            if occ[i]:
                dx = pos[i, 0] - bs_xy[k, 0]
                dy = pos[i, 1] - bs_xy[k, 1]
                d = math.sqrt(dx * dx + dy * dy)
                cross_d[i, k] = d if d > dmin else dmin
            else:
                cross_d[i, k] = np.nan
    return n_active


def sinr_trial(occ, d_serv, cross_d, fading, p0, noise, apl, s, nc, sinr):
    """Uplink SINR per occupied scheduled cell: fractionally power-controlled
    signal over noise plus interference from every other occupied cell."""
    n_inst = occ.shape[0]
    for k in range(nc):
        if not occ[k]:
            sinr[k] = -1.0
            continue
        num = p0 * fading[k, k] * d_serv[k] ** ((s - 1.0) * apl)
        den = noise
        for i in range(n_inst):
            if i != k and occ[i]:
                den += (
                    p0
                    * d_serv[i] ** (s * apl)
                    * fading[i, k]
                    * cross_d[i, k] ** (-apl)
                )
        sinr[k] = num / den


def run_chunk(
    u_occ, u_pos, u_fade,
    p_occ, pool_xy, pool_off, bs_xy, dmin, nc,
    thresholds, rates, c0, ilz,
    p0, noise, apl, s,
    budget, kinds,
    out_n_active, out,
):
    """Full per-trial pipeline over one block of uniform rows.

    Runs scheduler ``kinds[j]`` on every trial's active users and writes
    ``out[t, j] = (sum_rate, sum_complexity)``.
    """
    rows = u_occ.shape[0]
    n_inst = p_occ.shape[0]
    occ = np.empty(n_inst, np.bool_)
    pos = np.empty((n_inst, 2), np.float64)
    d_serv = np.empty(n_inst, np.float64)
    cross_d = np.empty((n_inst, nc), np.float64)
    fading = np.empty((n_inst, nc), np.float64)
    sinr = np.empty(nc, np.float64)
    act_sinr = np.empty(nc, np.float64)
    act_cap = np.empty(nc, np.float64)
    idx = np.empty(nc, np.int64)
    comp = np.empty(nc, np.float64)

    for t in range(rows):
        out_n_active[t] = draw_arrays(
            u_occ[t], u_pos[t], u_fade[t],
            p_occ, pool_xy, pool_off, bs_xy, dmin, nc,
            occ, pos, d_serv, cross_d, fading,
        )
        sinr_trial(occ, d_serv, cross_d, fading, p0, noise, apl, s, nc, sinr)
        na = 0
        for k in range(nc):
            if occ[k]:
                act_sinr[na] = sinr[k]
                act_cap[na] = math.log2(1.0 + sinr[k])
                na += 1
        a_sinr = act_sinr[:na]
        a_cap = act_cap[:na]
        for j in range(kinds.shape[0]):
            out[t, j, 0], out[t, j, 1] = schedule(
                kinds[j], a_sinr, a_cap, thresholds, rates, c0, ilz, budget,
                idx, comp,
            )

