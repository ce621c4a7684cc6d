"""Per-trial kernels: one trial's channel draw, SINR and allocations.

Each function here runs :mod:`.batch`, the one implementation, on a block
of one row, with the per-trial signature and output arrays of the scalar
loops it replaced (``tests/scalar_kernels.py``); they serve only the
campaign benchmark's traced replay.  The campaign calls :data:`run_chunk`,
which is ``batch.run_chunk``, through this module's attribute.

Scheduling kernels take one trial's active users, break argmax ties toward
the lowest array position and write each user's ladder entry (``-1``: not
served) and cost into the first entries of ``idx`` and ``comp``.
"""

from __future__ import annotations

import numpy as np

from . import batch
from .batch import run_chunk  # noqa: F401

BACKEND = "numpy"

# read by the campaign benchmark's run report; leaves with ROADMAP item 4
NUMBA_ENABLED = False


def schedule(kind, sinr, cap, thresholds, rates, c0, ilz, budget, idx, comp):
    """Run scheduler ``kind`` (``batch.mrs``, ``swf`` or ``scc``) on one
    trial's active users; returns ``(sum_rate, sum_complexity)``.  Max-rate
    ignores the budget."""
    n = sinr.shape[0]
    mf = batch.max_feasible(thresholds, sinr)[None]
    i, c, sum_rate, sum_comp = batch.schedule_block(
        kind, mf, cap[None], rates, c0, ilz, budget
    )
    idx[:n], comp[:n] = i[0], c[0]
    return float(sum_rate[0]), float(sum_comp[0])


def mrs_trial(sinr, cap, thresholds, rates, c0, ilz, idx, comp):
    """Max-rate allocation: every user at its highest feasible entry."""
    return schedule(
        batch.mrs, sinr, cap, thresholds, rates, c0, ilz, np.inf, idx, comp
    )


def swf_trial(sinr, cap, thresholds, rates, c0, ilz, budget, drop_prep, idx, comp):
    """Water-level-guided MCS reduction with a final re-add pass.
    ``drop_prep`` must be false: the pre-pass it enabled is gone, and the
    parameter stays only because the campaign benchmark's replay passes it
    (ROADMAP item 3)."""
    if drop_prep:
        raise ValueError("swf_trial has no drop_prep pre-pass; pass False")
    return schedule(
        batch.swf, sinr, cap, thresholds, rates, c0, ilz, budget, idx, comp
    )


def scc_trial(sinr, cap, thresholds, rates, c0, ilz, budget, idx, comp):
    """Cost-greedy MCS reduction: step down the most expensive user."""
    return schedule(
        batch.scc, sinr, cap, thresholds, rates, c0, ilz, budget, idx, comp
    )


def draw_arrays(
    u_occ, u_pos, u_fade, p_occ, pool_xy, pool_off, bs_xy, dmin, nc,
    occ, pos, d_serv, cross_d, fading,
):
    """Turn one trial's uniforms into occupancy, positions, distances, gains.

    Cells ``0..nc-1`` are the scheduled ones; any further instantiated cells
    contribute interference only.  Every uniform of the row is used,
    whichever cells are occupied (see ``netsim.CellArrays.row_len``).
    Unoccupied cells get NaN positions and distances; every pair gets its
    fading gain.  Returns the number of occupied scheduled cells.
    """
    occ[:] = u_occ < p_occ
    user = np.flatnonzero(occ)
    pos[:] = d_serv[:] = cross_d[:] = np.nan
    pos[user] = pool_xy[batch.pool_index(u_pos, pool_off)[user]]
    d_serv[user], cross_d[user] = batch.distances(
        pos[user], user, bs_xy, dmin, nc
    )
    fading[:] = batch.fading_gains(u_fade, np.ones(fading.shape, np.bool_))
    return int(np.count_nonzero(occ[:nc]))


def sinr_trial(occ, d_serv, cross_d, fading, p0, noise, apl, s, nc, sinr):
    """Uplink SINR per scheduled cell, ``-1.0`` where it is unoccupied:
    fractionally power-controlled signal over noise plus interference from
    every other occupied cell."""
    got = batch.sinr_from_distances(
        occ[None], d_serv[None], cross_d[None], fading[None],
        nc, p0, noise, apl, s,
    )
    sinr[:nc] = np.where(occ[:nc], got[0], -1.0)
