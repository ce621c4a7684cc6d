"""Experiment orchestration: calibration, campaigns, sweeps, result files.

A campaign draws ``n_trials`` independent channel realizations and runs every
selected scheduler on the *same* draw (paired comparison), so differences in
the recorded series are attributable to scheduling alone.  The computational
budget either comes straight from the config or is calibrated as the
empirical (1-eps)-quantile of max-rate sum cost over an independent
calibration stream; trials whose cost exceeds the budget are computational
outages and have their recorded sum-rate zeroed (the ``unconstrained``
series is the same allocation as ``mrs`` but is never scored against the
budget).  Which schedulers exist, which kernel computes each and how each
is scored against the budget is the one table :data:`SCHEDULERS`: adding a
scheduler is one entry there, plus one branch in ``kernels._schedule`` and
one in ``batch._schedule`` if it needs a new kernel.

Randomness is organized so every trial is a pure function of the master
seed: trial ``t`` lives in chunk ``t // 4096`` and consumes one fixed-length
uniform row generated from ``SeedSequence([seed, stream, chunk])``.  Chunks
are therefore order-independent, identical for any worker count, and common
across parameter sweeps that share a seed (occupancy thresholds move while
the underlying uniforms stay put, which couples sweep points through common
random numbers).

Budget comparisons always use the kernels' left-to-right per-trial totals,
never a re-accumulated sum, so the outage decision is reproducible bit for
bit.

The calibrated budget is one order statistic of exact costs, so it is found
in two passes, as robust geometric predicates are (Shewchuk, 1997): a filter
computes every calibration trial's cost with NumPy's ufuncs, which may
differ from libm in the last bits, and only the trials that the filter's
error band cannot place above or below the quantile are recomputed exactly.
The budget is the all-exact one bit for bit; nothing the filter computes is
written.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import batch, kernels
from .complexity import ModelParams
from .mcs import McsTable
from .netsim import (
    MIN_DISTANCE_KM,
    CellArrays,
    CellGeometry,
    NetworkLayout,
    PhyParams,
    assemble_cells,
    estimate_cell_areas,
    most_central_ids,
)

# one uniform-row chunk = one unit of (parallel) work
CHUNK_TRIALS = 4096

# a chunk is drawn and computed in blocks of at most this many elements of
# rows x instantiated cells x scheduled cells
BLOCK_ELEMENTS = 2**16

log = logging.getLogger(__name__)

# sub-stream ids under the master seed
EVAL_STREAM = 1
CALIBRATION_STREAM = 2
AREA_STREAM = 3

# name -> (kernel id, scoring against C_server): "outage" zeroes the rate
# where the cost exceeds the budget, "fits" asserts the cost never does, None
# leaves the run unscored
SCHEDULERS = {
    "mrs": (kernels.MRS, "outage"),
    "swf": (kernels.SWF, "fits"),
    "scc": (kernels.SCC, "fits"),
    "unconstrained": (kernels.MRS, None),
}


def check_campaign(cfg) -> None:
    """Range checks of the campaign values, shared by :class:`CampaignConfig`
    and ``cli.RunConfig``, which carry them under the same field names."""
    names = cfg.schedulers
    if not names:
        raise ValueError("schedulers must be non-empty")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate schedulers: {tuple(names)}")
    for name in names:
        if name not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {name!r}: schedulers must be drawn "
                f"from {tuple(SCHEDULERS)}"
            )
    if cfg.n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {cfg.n_trials}")
    if (cfg.epsilon is None) == (cfg.c_server is None):
        raise ValueError("exactly one of epsilon and c_server must be set")
    if cfg.epsilon is not None:
        if not 0.0 <= cfg.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0,1), got {cfg.epsilon}")
        # the floor applies to the count a calibration draws
        if cfg.calibration_trials is None:
            key, n_cal = "n_trials (calibration_trials is unset)", cfg.n_trials
        else:
            key, n_cal = "calibration_trials", cfg.calibration_trials
        if n_cal < 1000:
            raise ValueError(f"{key} must be >= 1000, got {n_cal}")
    if cfg.c_server is not None and not cfg.c_server >= 0.0:
        raise ValueError(f"c_server must be >= 0, got {cfg.c_server}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.area_samples < 10_000:
        raise ValueError(
            f"area_samples must be >= 10000, got {cfg.area_samples}"
        )
    if cfg.workers < 1:
        raise ValueError(f"workers must be >= 1, got {cfg.workers}")


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs besides the cell geometry."""

    layout: NetworkLayout
    table: McsTable
    model: ModelParams
    phy: PhyParams
    schedulers: tuple[str, ...] = tuple(SCHEDULERS)
    n_trials: int = 100_000
    epsilon: float | None = 0.1     # target outage; exclusive with c_server
    c_server: float | None = None   # explicit budget, bit-iterations pcu
    seed: int = 12345
    calibration_trials: int | None = None   # None -> n_trials
    area_samples: int = 100_000
    workers: int = 1
    background_interference: bool = False

    def __post_init__(self) -> None:
        check_campaign(self)


@dataclass(frozen=True)
class SchedulerSeries:
    """Per-trial outcome arrays for one scheduler."""

    sum_rate: np.ndarray        # recorded rate (zeroed on outage)
    sum_complexity: np.ndarray  # cost as computed (never zeroed)
    outage: np.ndarray          # bool flags

    @property
    def mean_sum_rate(self) -> float:
        return float(np.mean(self.sum_rate))

    @property
    def outage_rate(self) -> float:
        return float(np.mean(self.outage))


@dataclass(frozen=True)
class CampaignResult:
    """Aggregated campaign outcome; deterministic given config and seed."""

    schedulers: tuple[str, ...]
    n_trials: int
    seed: int
    epsilon: float | None
    c_server: float
    n_active: np.ndarray
    series: dict[str, SchedulerSeries]

    def mean_sum_rate(self, scheduler: str) -> float:
        return self.series[scheduler].mean_sum_rate

    def outage_rate(self, scheduler: str) -> float:
        return self.series[scheduler].outage_rate

    def relative_loss(self, scheduler: str) -> float:
        """Mean sum-rate sacrificed relative to the unconstrained run."""
        ref = self.series["unconstrained"].mean_sum_rate
        return (ref - self.series[scheduler].mean_sum_rate) / ref

    def cdf(self, scheduler: str, metric: str) -> np.ndarray:
        series = self.series[scheduler]
        if metric == "sum_rate":
            return empirical_cdf(series.sum_rate)
        if metric == "sum_complexity":
            return empirical_cdf(series.sum_complexity)
        raise ValueError(
            f"unknown metric {metric!r} "
            f"(expected 'sum_rate' or 'sum_complexity')"
        )


def empirical_cdf(samples) -> np.ndarray:
    """Right-continuous CDF table: (value, fraction <= value) rows."""
    xs = np.asarray(samples, dtype=np.float64).ravel()
    if xs.size == 0:
        raise ValueError("empirical_cdf requires at least one sample")
    values, counts = np.unique(xs, return_counts=True)
    fractions = np.cumsum(counts) / xs.size
    return np.column_stack((values, fractions))


def _quantile_rank(n: int, epsilon: float) -> int:
    """Rank ``k`` of the budget among ``n`` calibration samples, counted
    down from the largest (``k = 0`` is the maximum): ``floor(eps * n)``,
    with a ``1e-9`` slack for ``eps * n`` a rounding error below an integer.
    ``epsilon = 0`` gives the sample maximum, which cannot guarantee zero
    exceedance on new data; a warning says so."""
    if n == 0:
        raise ValueError("need at least one calibration sample")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must be in [0,1), got {epsilon}")
    if epsilon == 0.0:
        warnings.warn(
            "epsilon = 0: returning the calibration maximum, which does "
            "not guarantee zero exceedance out of sample",
            stacklevel=3,
        )
    return min(int(epsilon * n + 1e-9), n - 1)


def budget_from_samples(samples, epsilon: float) -> float:
    """Smallest sample c with a fraction of samples > c of at most epsilon.

    Sorting ascending and counting, this is the (1-eps)-quantile taken
    inclusively at index ``n - 1 - k`` with ``k = floor(eps * n)`` (see
    :func:`_quantile_rank`, which warns at ``epsilon = 0``).
    """
    xs = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    k = _quantile_rank(xs.size, epsilon)
    return float(xs[xs.size - 1 - k])


# ----------------------------------------------------------------------
# calibration filter
# ----------------------------------------------------------------------

# relative half-width of the band around each filter value that must hold
# the exact value (absolute below 1.0); the filter's measured error is
# below 3e-15 relative
FILTER_BAND = 1e-9

# NumPy's ufuncs for the libm functions ``batch`` evaluates one element at a
# time; only the calibration filter uses them, and it writes none of their
# results
_UFUNCS = {math.log1p: np.log1p, pow: np.power, math.log2: np.log2}


def _band(x):
    """Half-width of the band around the values ``x``."""
    return FILTER_BAND * np.maximum(np.abs(x), 1.0)


def _vectorised(fn, x, *args):
    """``batch._each`` with NumPy's ufunc in place of libm's ``fn``."""
    return _UFUNCS[fn](x, *args)


def _order_statistic(cost, on_ladder, near, k: int, exact) -> tuple:
    """``(value, recomputed, over)``: the exact cost of rank ``k`` counted
    down from the largest, the number of trials recomputed by
    ``exact(trials)`` and the number of exact costs above the value.

    ``cost`` holds the filter's values.  A trial with no active user on the
    ladder costs exactly ``0.0``.  A trial with an active user whose SINR is
    near a threshold may sit on another rung in exact arithmetic, so its
    cost is unknown until recomputed.  Any other trial's exact cost lies in
    the band of its filter value; a recomputed one outside it raises.  The
    unknown trials and those whose band overlaps the band of the rank-``k``
    estimate are recomputed, and the estimate is taken again until it asks
    for no further trial.  Then every trial not recomputed is certainly
    above or below the band of the estimate, and the value is the exact
    cost of rank ``k`` less the count above among the known ones.
    """
    n = cost.size
    known = ~on_ladder & ~near
    value = np.where(known, 0.0, cost)
    width = np.where(known, 0.0, _band(cost))
    recomputed = 0
    while True:
        v = np.partition(value, n - 1 - k)[n - 1 - k]
        lo, hi = v - _band(v), v + _band(v)
        overlap = (value - width <= hi) & (value + width >= lo)
        t = np.flatnonzero(~known & (near | overlap))
        if t.size == 0:
            break
        exact_t = exact(t)
        miss = ~near[t] & (
            (exact_t < value[t] - width[t]) | (exact_t > value[t] + width[t])
        )
        if miss.any():
            i = int(np.argmax(miss))
            raise RuntimeError(
                f"calibration filter: trial {t[i]} costs {exact_t[i]!r}, "
                f"outside the band of its filter value {value[t[i]]!r}"
            )
        value[t], width[t], known[t] = exact_t, 0.0, True
        recomputed += t.size
    above = np.count_nonzero(~known & (value - width > hi))
    exact_desc = np.sort(value[known])[::-1]
    c = float(exact_desc[k - above])
    return c, recomputed, above + int(np.count_nonzero(exact_desc > c))


# ----------------------------------------------------------------------
# chunked trial execution
# ----------------------------------------------------------------------

# worker payload, inherited by fork()ed pool processes
_PAYLOAD: tuple | None = None


def _chunk_specs(n_trials: int) -> list[tuple[int, int, int]]:
    """(chunk index, first trial, number of trials) per chunk."""
    specs = []
    start = 0
    idx = 0
    while start < n_trials:
        rows = min(CHUNK_TRIALS, n_trials - start)
        specs.append((idx, start, rows))
        start += rows
        idx += 1
    return specs


def _payload(
    cells: CellArrays,
    table: McsTable,
    model: ModelParams,
    phy: PhyParams,
    seed: int,
    stream: int,
    budget: float,
    kinds,
    memo: bool = True,
) -> tuple:
    """``(seed, stream, n_inst, row_len, block_rows, kernel_args)``;
    ``kernel_args`` are the arguments of ``kernels.run_chunk`` between the
    uniforms and the outputs, ending with the kernel ids to run.  With
    ``memo`` they hold the stream's zeroed pool-point memo, so a payload
    serves one stream; without, the memo argument is ``None``."""
    kernel_args = (
        cells.p_occ, cells.pool_xy, cells.pool_off, cells.bs_xy,
        MIN_DISTANCE_KM, cells.nc,
        table.thresholds, table.rates, *model.kernel_constants(),
        phy.p0, phy.noise_w, phy.pathloss_exponent, phy.s,
        batch.pool_memo(cells.pool_xy.shape[0], cells.nc) if memo else None,
        budget, np.array(kinds, dtype=np.int64),
    )
    block_rows = max(1, BLOCK_ELEMENTS // (cells.n_inst * cells.nc))
    return seed, stream, cells.n_inst, cells.row_len, block_rows, kernel_args


def _uniform_blocks(payload: tuple, chunk_idx: int, rows: int):
    """``(a, b, u)`` per block: the chunk's uniform rows ``a:b``.  Drawn one
    block at a time, they are the doubles of ``rng.random((rows,
    row_len))``, in the same order."""
    seed, stream, _n_inst, row_len, block_rows, _args = payload
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, stream, chunk_idx])
    )
    for a in range(0, rows, block_rows):
        b = min(a + block_rows, rows)
        yield a, b, rng.random((b - a, row_len))


def _compute_chunk(payload: tuple, chunk_idx: int, rows: int) -> tuple:
    """``(n_active, out)`` for one chunk; ``out`` is (rows, kernels, 2)."""
    n_inst, kernel_args = payload[2], payload[-1]
    n_active = np.zeros(rows, dtype=np.int64)
    out = np.zeros((rows, len(kernel_args[-1]), 2))
    for a, b, u in _uniform_blocks(payload, chunk_idx, rows):
        kernels.run_chunk(
            u[:, :n_inst], u[:, n_inst: 2 * n_inst], u[:, 2 * n_inst:],
            *kernel_args, n_active[a:b], out[a:b],
        )
    return n_active, out


def _filter_chunk(payload: tuple, chunk_idx: int, rows: int) -> tuple:
    """``(cost, on_ladder, near)`` for one chunk of the calibration filter:
    each trial's max-rate sum cost computed with NumPy's ufuncs, whether an
    active user is on the ladder, and whether an active user's SINR lies
    within the band of a ladder threshold (see :func:`calibrate_budget`).
    ``payload`` runs the max-rate kernel alone."""
    n_inst, kernel_args = payload[2], payload[-1]
    thresholds = kernel_args[6]
    lo, hi = thresholds - _band(thresholds), thresholds + _band(thresholds)
    n_active = np.zeros(rows, dtype=np.int64)
    out = np.zeros((rows, 1, 2))
    on_ladder = np.zeros(rows, dtype=np.bool_)
    near = np.zeros(rows, dtype=np.bool_)
    for a, b, u in _uniform_blocks(payload, chunk_idx, rows):
        act, sinr = batch.run_chunk(
            u[:, :n_inst], u[:, n_inst: 2 * n_inst], u[:, 2 * n_inst:],
            *kernel_args, n_active[a:b], out[a:b], each=_vectorised,
        )
        sinr = np.where(act, sinr, -np.inf)
        on_ladder[a:b] = (sinr >= thresholds[0]).any(axis=1)
        i = np.searchsorted(lo, sinr, "right") - 1
        near[a:b] = ((i >= 0) & (sinr <= hi[i])).any(axis=1)
    return out[:, 0, 1], on_ladder, near


def _chunk_task(task: tuple) -> tuple:
    compute, chunk_idx, rows = task
    return compute(_PAYLOAD, chunk_idx, rows)


def _run_chunks(
    payload: tuple, n_trials: int, workers: int, compute=_compute_chunk
) -> tuple:
    """``compute``'s per-trial arrays for one stream (by default
    ``(n_active, out)``), joined in trial order; identical for any worker
    count."""
    specs = _chunk_specs(n_trials)
    if workers == 1:
        parts = [compute(payload, idx, rows) for idx, _start, rows in specs]
    else:
        # only a pool pays for importing the pool machinery
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        global _PAYLOAD
        _PAYLOAD = payload
        try:
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(
                max_workers=min(workers, len(specs)), mp_context=ctx
            ) as pool:
                parts = list(pool.map(
                    _chunk_task,
                    [(compute, idx, rows) for idx, _start, rows in specs],
                ))
        finally:
            _PAYLOAD = None
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _exact_costs(payload: tuple, trials: np.ndarray) -> np.ndarray:
    """Exact max-rate sum cost of the stream's trials ``trials`` (sorted
    ascending), from their uniform rows.  ``batch.run_chunk`` with libm
    writes the bits of every ``kernels.run_chunk`` backend."""
    n_inst, block_rows, kernel_args = payload[2], payload[4], payload[-1]
    picked = []
    for chunk_idx, start, rows in _chunk_specs(int(trials[-1]) + 1):
        want = trials[(trials >= start) & (trials < start + rows)] - start
        if want.size == 0:
            continue
        for a, b, u in _uniform_blocks(payload, chunk_idx, rows):
            if a > want[-1]:
                break
            picked.append(u[want[(want >= a) & (want < b)] - a])
    u = np.concatenate(picked)
    n_active = np.zeros(len(u), dtype=np.int64)
    out = np.zeros((len(u), 1, 2))
    for a in range(0, len(u), block_rows):
        b = min(a + block_rows, len(u))
        batch.run_chunk(
            u[a:b, :n_inst], u[a:b, n_inst: 2 * n_inst],
            u[a:b, 2 * n_inst:], *kernel_args, n_active[a:b], out[a:b],
        )
    return out[:, 0, 1]


def campaign_cells(
    config: CampaignConfig, geometry: CellGeometry
) -> CellArrays:
    """Kernel arrays for the config's scheduled (+ background) cells."""
    if config.background_interference:
        extra = tuple(
            i
            for i in range(config.layout.n_bs)
            if i not in set(config.layout.centralized_ids)
        )
    else:
        extra = ()
    return assemble_cells(
        config.layout, geometry, config.phy, interference_ids=extra
    )


def campaign_geometry(config: CampaignConfig) -> CellGeometry:
    """The config's cell geometry (area stream under the master seed)."""
    return estimate_cell_areas(
        config.layout,
        config.area_samples,
        np.random.SeedSequence([config.seed, AREA_STREAM]),
    )


def calibrate_budget(
    config: CampaignConfig, geometry: CellGeometry | None = None
) -> float:
    """Budget hitting the target outage: the empirical (1-eps)-quantile of
    max-rate sum cost over an independent calibration stream.

    The calibration shares the master seed's geometry but draws trials from
    its own sub-stream, so evaluating with the returned budget on the
    evaluation stream is an out-of-sample test of the target outage.

    The result is the one order statistic of the exact costs that
    :func:`budget_from_samples` picks, found in two passes.  A filter pass
    computes every trial's cost with NumPy's ufuncs in place of libm
    (:func:`_filter_chunk`); an exact pass recomputes with libm only the
    trials the filter cannot place above or below the quantile
    (:func:`_order_statistic`).  Logs ``n``, ``k``, the budget, the number
    of trials recomputed and the in-sample outage.
    """
    if config.epsilon is None:
        raise ValueError(
            "calibrate_budget needs a config with epsilon set "
            "(got an explicit c_server instead)"
        )
    trials = config.calibration_trials or config.n_trials
    k = _quantile_rank(trials, config.epsilon)
    if geometry is None:
        geometry = campaign_geometry(config)
    cells = campaign_cells(config, geometry)
    payload = _payload(
        cells, config.table, config.model, config.phy,
        config.seed, CALIBRATION_STREAM,
        budget=math.inf, kinds=[kernels.MRS], memo=False,
    )
    cost, on_ladder, near = _run_chunks(
        payload, trials, config.workers, _filter_chunk
    )
    c_server, refined, over = _order_statistic(
        cost, on_ladder, near, k, lambda t: _exact_costs(payload, t)
    )
    log.info(
        "calibration: n = %d, k = %d, c_server = %r, %d trials recomputed "
        "exactly, in-sample outage %d (%.4f)",
        trials, k, c_server, refined, over, over / trials,
    )
    return c_server


def run_campaign(
    config: CampaignConfig,
    geometry: CellGeometry | None = None,
    c_server: float | None = None,
) -> CampaignResult:
    """Run the paired-draw evaluation campaign.

    The budget is, in order of precedence: the ``c_server`` argument, the
    config's explicit ``c_server``, or a fresh calibration at the config's
    ``epsilon``.  The water-filling and cost-greedy schedulers can never
    exceed the budget; that is re-asserted here on every trial.
    """
    if geometry is None:
        geometry = campaign_geometry(config)
    if c_server is None:
        c_server = config.c_server
    if c_server is None:
        c_server = calibrate_budget(config, geometry=geometry)
    elif not c_server >= 0.0:
        raise ValueError(f"c_server must be >= 0, got {c_server}")

    # each kernel runs once, however many schedulers share it
    kinds = list(dict.fromkeys(SCHEDULERS[n][0] for n in config.schedulers))
    cells = campaign_cells(config, geometry)
    payload = _payload(
        cells, config.table, config.model, config.phy,
        config.seed, EVAL_STREAM, float(c_server), kinds,
    )
    n_active, out = _run_chunks(payload, config.n_trials, config.workers)

    series: dict[str, SchedulerSeries] = {}
    for name in config.schedulers:
        kind, scoring = SCHEDULERS[name]
        j = kinds.index(kind)
        rate, comp = out[:, j, 0], out[:, j, 1]
        over = comp > c_server
        if scoring == "fits" and np.any(over):
            t = int(np.argmax(over))
            raise AssertionError(
                f"{name} exceeded the budget on trial {t}: "
                f"{comp[t]!r} > {c_server!r}"
            )
        outage = over if scoring == "outage" else np.zeros_like(over)
        series[name] = SchedulerSeries(
            sum_rate=np.where(outage, 0.0, rate),
            sum_complexity=comp,
            outage=outage,
        )

    return CampaignResult(
        schedulers=config.schedulers,
        n_trials=config.n_trials,
        seed=config.seed,
        epsilon=config.epsilon,
        c_server=float(c_server),
        n_active=n_active,
        series=series,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One sweep point: the swept value and its campaign."""

    value: float
    result: CampaignResult


def sweep_nc(
    config: CampaignConfig,
    nc_values,
    geometry: CellGeometry | None = None,
) -> list[SweepPoint]:
    """Campaigns across scheduled-cell counts.

    Each point re-selects the ``nc`` most-central base stations and, when
    the config targets an outage, recalibrates the budget for that cell set
    (an explicit ``c_server`` is kept as given).  All points share the
    layout's geometry and the master seed.
    """
    values = [int(nc) for nc in nc_values]
    for nc in values:
        if not 1 <= nc <= config.layout.n_bs:
            raise ValueError(
                f"nc must be in [1, {config.layout.n_bs}], got {nc}"
            )
    if geometry is None:
        geometry = campaign_geometry(config)
    points = []
    for nc in values:
        layout = config.layout.with_centralized(
            most_central_ids(config.layout, nc)
        )
        cfg = dataclasses.replace(config, layout=layout)
        points.append(SweepPoint(float(nc), run_campaign(cfg, geometry)))
    return points


def sweep_lambda(
    config: CampaignConfig,
    lambda_values,
    reference_lambda: float | None = None,
    geometry: CellGeometry | None = None,
) -> list[SweepPoint]:
    """Campaigns across user densities with one fixed budget.

    The budget is calibrated once at ``reference_lambda`` (default: the
    first swept value) and held fixed across the sweep; an explicit
    ``c_server`` in the config skips the calibration.  All points share the
    master seed, so the underlying uniforms are common random numbers and
    occupancy grows monotonically with the density.
    """
    values = [float(v) for v in lambda_values]
    if not values:
        raise ValueError("lambda_values must be non-empty")
    if geometry is None:
        geometry = campaign_geometry(config)
    if config.c_server is not None:
        budget = config.c_server
    else:
        ref = (
            values[0] if reference_lambda is None else float(reference_lambda)
        )
        ref_cfg = dataclasses.replace(
            config, phy=dataclasses.replace(config.phy, lambda_density=ref)
        )
        budget = calibrate_budget(ref_cfg, geometry=geometry)
    points = []
    for lam in values:
        cfg = dataclasses.replace(
            config, phy=dataclasses.replace(config.phy, lambda_density=lam)
        )
        points.append(
            SweepPoint(lam, run_campaign(cfg, geometry, c_server=budget))
        )
    return points


# ----------------------------------------------------------------------
# result files
# ----------------------------------------------------------------------


def _atomic_write(path, text: str) -> None:
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_per_trial_csv(result: CampaignResult, path) -> None:
    """`trial,scheduler,sum_rate,sum_complexity,outage,n_active` rows."""
    # Python floats and ints from tolist() format faster than NumPy scalars
    n_active = result.n_active.tolist()
    columns = []
    for name in result.schedulers:
        s = result.series[name]
        columns.append([
            f"{t},{name},{r!r},{c!r},{o:d},{na}"
            for t, r, c, o, na in zip(
                range(result.n_trials), s.sum_rate.tolist(),
                s.sum_complexity.tolist(), s.outage.tolist(), n_active,
            )
        ])
    lines = ["trial,scheduler,sum_rate,sum_complexity,outage,n_active"]
    lines.extend(chain.from_iterable(zip(*columns)))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_summary_csv(result: CampaignResult, path) -> None:
    """`scheduler,mean_sum_rate,outage_rate,c_server` rows."""
    lines = ["scheduler,mean_sum_rate,outage_rate,c_server"]
    for name in result.schedulers:
        s = result.series[name]
        lines.append(
            f"{name},{s.mean_sum_rate!r},{s.outage_rate!r},"
            f"{result.c_server!r}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def write_cdf_csvs(result: CampaignResult, out_dir) -> list[str]:
    """One `value,fraction` table per scheduler-metric pair.  Equal series
    (``mrs`` and ``unconstrained`` share their costs) are tabulated once."""
    paths = []
    texts: dict[bytes, str] = {}
    for name in result.schedulers:
        for metric in ("sum_rate", "sum_complexity"):
            key = getattr(result.series[name], metric).tobytes()
            if key not in texts:
                table = result.cdf(name, metric)
                lines = ["value,fraction"]
                lines.extend(f"{v!r},{f!r}" for v, f in table.tolist())
                texts[key] = "\n".join(lines) + "\n"
            path = os.path.join(out_dir, f"cdf_{name}_{metric}.csv")
            _atomic_write(path, texts[key])
            paths.append(path)
    return paths


def write_sweep_csv(points: list[SweepPoint], value_name: str, path) -> None:
    """Sweep summary: one row per (point, scheduler)."""
    lines = [f"{value_name},scheduler,mean_sum_rate,outage_rate,c_server"]
    for pt in points:
        for name in pt.result.schedulers:
            s = pt.result.series[name]
            lines.append(
                f"{pt.value!r},{name},{s.mean_sum_rate!r},"
                f"{s.outage_rate!r},{pt.result.c_server!r}"
            )
    _atomic_write(path, "\n".join(lines) + "\n")


def write_manifest(
    path,
    command: str,
    config_mapping: dict,
    seed: int,
    version: str,
    c_server: float | None = None,
) -> None:
    """JSON run manifest; its config section re-parses to the same run, and
    ``backend`` names the kernel implementation that ran."""
    doc = {
        "backend": kernels.BACKEND,
        "command": command,
        "config": config_mapping,
        "seed": seed,
        "version": version,
    }
    if c_server is not None:
        doc["c_server"] = c_server
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
