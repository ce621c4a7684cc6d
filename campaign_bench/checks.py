"""Checks on a campaign's output files, made apart from the program.

Two kinds of check read ``per_trial.csv`` as written:

* properties every correct run has, whatever the seed (the budget
  schedulers never exceed ``c_server``, mrs is the max-rate allocation
  zeroed exactly on its outages, the budget schedulers leave a trial alone
  when the max-rate allocation fits, ...);
* a NumPy recomputation of the evaluation trials from the same uniforms
  (``SeedSequence([seed, EVAL_STREAM, chunk])``) and the same cell inputs,
  written here from the model's equations rather than taken from the
  program's kernels: occupancy, user position, fading, uplink SINR, the
  max-feasible MCS entry and the closed-form decoding cost.

Nothing is compared with a stored copy of earlier output.  Every check
returns one boolean per trial, true where the trial fails it.
"""

from __future__ import annotations

import math

import numpy as np

HEADER = "trial,scheduler,sum_rate,sum_complexity,outage,n_active"
SCHEDULERS = ("mrs", "swf", "scc", "unconstrained")

# relative agreement asked of the recomputed unconstrained sums
RECOMPUTE_RTOL = 1e-9


class OutputError(ValueError):
    """An output file does not have the documented layout."""


def read_per_trial(path) -> dict:
    """``{"n_active": ints, scheduler: {field: array}}`` from per_trial.csv.

    The file must hold, for trials 0, 1, ... in order, one row per scheduler
    in the order mrs, swf, scc, unconstrained, all with the same n_active.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        cols = [line.rstrip("\n").split(",") for line in fh]
    if header != HEADER:
        raise OutputError(f"{path}: header {header!r}, expected {HEADER!r}")
    if not cols or len(cols) % len(SCHEDULERS):
        raise OutputError(f"{path}: {len(cols)} rows is not whole trials")
    if any(len(c) != 6 for c in cols):
        raise OutputError(f"{path}: a row does not have 6 fields")
    n = len(cols) // len(SCHEDULERS)
    grid = np.array(cols, dtype=object).reshape(n, len(SCHEDULERS), 6)
    if not (grid[:, :, 1] == np.array(SCHEDULERS, dtype=object)).all():
        raise OutputError(f"{path}: scheduler rows out of order")
    trial = grid[:, :, 0].astype(np.int64)
    if not (trial == np.arange(n)[:, None]).all():
        raise OutputError(f"{path}: trial numbers out of order")
    n_active = grid[:, :, 5].astype(np.int64)
    if not (n_active == n_active[:, :1]).all():
        raise OutputError(f"{path}: n_active differs between a trial's rows")
    table = {"n_active": n_active[:, 0]}
    for j, name in enumerate(SCHEDULERS):
        outage = grid[:, j, 4].astype(np.int64)
        if not np.isin(outage, (0, 1)).all():
            raise OutputError(f"{path}: outage flag other than 0/1")
        table[name] = {
            "sum_rate": grid[:, j, 2].astype(np.float64),
            "sum_complexity": grid[:, j, 3].astype(np.float64),
            "outage": outage.astype(bool),
        }
    return table


def property_failures(table: dict, c_server: float) -> dict:
    """Per-trial failures of the properties the method guarantees."""
    mrs, swf, scc, unc = (table[s] for s in SCHEDULERS)
    over = unc["sum_complexity"] > c_server
    fits = ~over
    return {
        "swf_within_budget": swf["sum_complexity"] > c_server,
        "scc_within_budget": scc["sum_complexity"] > c_server,
        "mrs_is_max_rate": mrs["sum_complexity"] != unc["sum_complexity"],
        "mrs_outage_iff_over_budget": mrs["outage"] != over,
        "mrs_rate_zeroed_on_outage": np.where(
            mrs["outage"],
            mrs["sum_rate"] != 0.0,
            mrs["sum_rate"] != unc["sum_rate"],
        ),
        "no_outage_flag_on_budget_schedulers": (
            swf["outage"] | scc["outage"] | unc["outage"]
        ),
        "rate_order": ~(
            (mrs["sum_rate"] <= swf["sum_rate"])
            & (swf["sum_rate"] <= unc["sum_rate"])
            & (mrs["sum_rate"] <= scc["sum_rate"])
            & (scc["sum_rate"] <= unc["sum_rate"])
        ),
        "max_rate_kept_when_it_fits": fits & (
            (swf["sum_rate"] != unc["sum_rate"])
            | (scc["sum_rate"] != unc["sum_rate"])
            | (swf["sum_complexity"] != unc["sum_complexity"])
            | (scc["sum_complexity"] != unc["sum_complexity"])
        ),
    }


def outage_band(
    epsilon: float, n_eval: int, n_cal: int, z: float = 4.5
) -> tuple[float, float]:
    """Interval the evaluation-stream mrs outage falls in, at ``z`` sigma.

    The budget is the (1-eps)-quantile of ``n_cal`` calibration samples, so
    the out-of-sample exceedance spreads with ``eps(1-eps)/n_cal`` on top of
    the binomial spread ``eps(1-eps)/n_eval`` of the evaluation count.
    """
    sigma = math.sqrt(epsilon * (1.0 - epsilon) * (1.0 / n_eval + 1.0 / n_cal))
    return epsilon - z * sigma, epsilon + z * sigma


def mcs_thresholds(rates, nu_db: float) -> np.ndarray:
    """SINR thresholds ``nu * (2**r - 1)`` with the margin ``nu`` in dB."""
    return 10.0 ** (nu_db / 10.0) * (2.0 ** np.asarray(rates) - 1.0)


def decode_cost(rate, cap, k_prime, zeta, eps_channel):
    """Turbo-decoding cost ``r / log2(zeta-1) * [log2((zeta-2)/(K zeta))
    - 2 log2(cap - r)]`` with ``K = -k_prime / log10(eps_channel)``,
    clamped at zero; zero where nothing is sent (``rate == 0``)."""
    k_eps = -k_prime / math.log10(eps_channel)
    sent = rate > 0.0
    gap = np.where(sent, cap - rate, 1.0)
    cost = rate / math.log2(zeta - 1.0) * (
        math.log2((zeta - 2.0) / (k_eps * zeta)) - 2.0 * np.log2(gap)
    )
    return np.where(sent, np.maximum(cost, 0.0), 0.0)


def chunk_uniforms(seed: int, stream: int, chunk: int, rows: int, row_len):
    """The uniform rows one chunk of trials is drawn from."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream, chunk]))
    return rng.random((rows, row_len))


def recompute_chunk(u, cells, phy, dmin, thresholds, rates, cost):
    """Unconstrained ``(n_active, sum_rate, sum_cost)`` for a chunk's rows.

    ``cells`` carries the instantiated cells (scheduled first): occupancy
    probabilities, stacked position pools with offsets, BS positions.  Each
    row holds one occupancy and one position uniform per instantiated cell,
    then one fading uniform per (instantiated, scheduled) cell pair.
    ``cost(rate, cap)`` is the decoding cost of the chosen entries.
    """
    n_inst, nc = cells.n_inst, cells.nc
    rows = u.shape[0]
    occ = u[:, :n_inst] < cells.p_occ
    npts = np.diff(cells.pool_off)
    pick = np.minimum((u[:, n_inst: 2 * n_inst] * npts).astype(np.int64),
                      npts - 1)
    pos = cells.pool_xy[cells.pool_off[:-1] + pick]             # (rows, n_inst, 2)
    d_serv = np.maximum(np.linalg.norm(pos - cells.bs_xy, axis=-1), dmin)
    cross = np.maximum(
        np.linalg.norm(pos[:, :, None, :] - cells.bs_xy[None, None, :nc, :],
                       axis=-1),
        dmin,
    )                                                           # (rows, n_inst, nc)
    fading = -np.log1p(-u[:, 2 * n_inst:].reshape(rows, n_inst, nc))
    fading = np.where(fading > 0.0, fading, 1e-300)
    apl, s = phy.pathloss_exponent, phy.s
    # received interference power at scheduled BS k from cell i's user
    power = (
        phy.p0 * d_serv[:, :, None] ** (s * apl) * fading * cross ** (-apl)
    )
    power = np.where(occ[:, :, None], power, 0.0)
    sched = np.arange(nc)
    power[:, sched, sched] = 0.0            # a user does not interfere with itself
    interference = power.sum(axis=1)
    signal = (
        phy.p0 * fading[:, sched, sched]
        * d_serv[:, :nc] ** ((s - 1.0) * apl)
    )
    sinr = signal / (phy.noise_w + interference)
    active = occ[:, :nc]
    sinr = np.where(active, sinr, 0.0)
    idx = np.searchsorted(thresholds, sinr, side="right") - 1
    sent = active & (idx >= 0)
    rate = np.where(sent, np.asarray(rates)[np.maximum(idx, 0)], 0.0)
    cap = np.log2(1.0 + sinr)
    return (
        active.sum(axis=1),
        rate.sum(axis=1),
        cost(rate, cap).sum(axis=1),
    )


def recompute(seed, stream, n_trials, chunk_trials, cells, phy, dmin,
              thresholds, rates, cost):
    """:func:`recompute_chunk` over every chunk of a campaign's trials."""
    parts = []
    for chunk, start in enumerate(range(0, n_trials, chunk_trials)):
        rows = min(chunk_trials, n_trials - start)
        u = chunk_uniforms(seed, stream, chunk, rows, cells.row_len)
        parts.append(
            recompute_chunk(u, cells, phy, dmin, thresholds, rates, cost)
        )
    return tuple(np.concatenate(p) for p in zip(*parts))


def recompute_failures(table: dict, recomputed, rtol=RECOMPUTE_RTOL):
    """Trials whose n_active or unconstrained sums disagree with ours."""
    n_active, sum_rate, sum_cost = recomputed
    unc = table["unconstrained"]

    def apart(a, b):
        return np.abs(a - b) > rtol * np.maximum(np.abs(a), np.abs(b))

    return (
        (table["n_active"] != n_active)
        | apart(unc["sum_rate"], sum_rate)
        | apart(unc["sum_complexity"], sum_cost)
    )
