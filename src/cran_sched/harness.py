"""Experiment orchestration: calibration, campaigns, sweeps, result files.

A campaign draws ``n_trials`` independent channel realizations and runs every
selected scheduler on the *same* draw (paired comparison), so differences in
the recorded series are attributable to scheduling alone.  The computational
budget either comes straight from the config or is calibrated as the
empirical (1-eps)-quantile of max-rate sum cost over an independent
calibration stream; trials whose cost exceeds the budget are computational
outages and have their recorded sum-rate zeroed (the ``unconstrained``
series is the same allocation as ``mrs`` but is never scored against the
budget).  Which schedulers exist, which ``batch`` function computes each
and how each is scored against the budget is the one table
:data:`SCHEDULERS`: adding a scheduler is one entry there.

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

Both streams draw users from the same cell pools, so the power terms that
depend only on a user's position are computed once per cell set
(``batch.position_terms``) and shared: the module keeps the most recent
table, keyed by value, so a calibration, the evaluation after it and every
point of a density sweep use one table, and forked workers inherit it.
"""

from __future__ import annotations

import contextlib
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

# a chunk's channel is computed in blocks of at most this many elements of
# rows x n_inst x nc; its schedulers run once, on its rows over budget
BLOCK_ELEMENTS = 2**16

# per_trial.csv is formatted and written this many trials at a time, and a
# CDF table this many rows at a time, which bounds the text held in memory
WRITE_TRIALS = 256

log = logging.getLogger(__name__)

# sub-stream ids under the master seed
EVAL_STREAM = 1
CALIBRATION_STREAM = 2
AREA_STREAM = 3

# name -> (scheduler function of a block, scoring against C_server):
# "outage" zeroes the rate where the cost exceeds the budget, "fits" asserts
# the cost never does, None leaves the run unscored.  The function has the
# signature batch.run_chunk and schedule_block call it with.
SCHEDULERS = {
    "mrs": (batch.mrs, "outage"),
    "swf": (batch.swf, "fits"),
    "scc": (batch.scc, "fits"),
    "unconstrained": (batch.mrs, None),
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


def empirical_cdf(samples) -> np.ndarray:
    """Right-continuous CDF table: (value, fraction <= value) rows."""
    values, at_most = _cdf_counts(samples)
    return np.column_stack((values, at_most / at_most[-1]))


def _cdf_counts(samples) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values and the count of samples at most each, as
    ``np.unique`` and a cumulative sum of its counts give them, with fewer
    temporaries."""
    xs = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    if xs.size == 0:
        raise ValueError("empirical_cdf requires at least one sample")
    # the first sample of each run of equal values; NaNs, sorted last, are
    # one run
    first = np.empty(xs.size, dtype=np.bool_)
    first[0] = True
    np.not_equal(xs[1:], xs[:-1], out=first[1:])
    if np.isnan(xs[-1]):
        first[np.searchsorted(xs, np.nan) + 1:] = False
    at_most = np.flatnonzero(first)
    values = xs[at_most]
    # each run ends where the next one starts
    at_most[:-1] = at_most[1:]
    at_most[-1] = xs.size
    return values, at_most


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
# chunked trial execution
# ----------------------------------------------------------------------

# worker payload, inherited by fork()ed pool processes
_PAYLOAD: tuple | None = None

# (key, table): the position-term table of the most recent cell set
_TERMS: tuple | None = None


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
) -> tuple:
    """``(seed, stream, row_len, block_rows, kernel_args)``;
    ``kernel_args`` are the arguments of ``kernels.run_chunk`` after the
    blocks and the row count, ending with the scheduler functions to run."""
    kernel_args = (
        cells.p_occ, cells.pool_off, cells.nc,
        table.thresholds, table.rates, *model.kernel_constants(),
        phy.p0, phy.noise_w, _position_terms(cells, phy), budget, kinds,
    )
    block_rows = max(1, BLOCK_ELEMENTS // (cells.n_inst * cells.nc))
    return seed, stream, cells.row_len, block_rows, kernel_args


def _position_terms(cells: CellArrays, phy: PhyParams) -> np.ndarray:
    """``batch.position_terms`` of ``cells``, built only when the cell set
    differs from the last one asked for."""
    global _TERMS
    key = (
        cells.cell_ids, cells.nc, cells.bs_xy, cells.pool_off, cells.pool_xy,
        phy.pathloss_exponent, phy.s,
    )
    if _TERMS is None or not all(
        np.array_equal(a, b) for a, b in zip(_TERMS[0], key)
    ):
        _TERMS = key, batch.position_terms(
            cells.pool_xy, cells.pool_off, cells.bs_xy, MIN_DISTANCE_KM,
            cells.nc, phy.pathloss_exponent, phy.s,
        )
    return _TERMS[1]


def _uniform_blocks(payload: tuple, chunk_idx: int, rows: int):
    """``(a, b, u)`` per block: the chunk's uniform rows ``a:b``.  Drawn one
    block at a time, they are the doubles of ``rng.random((rows,
    row_len))``, in the same order."""
    seed, stream, row_len, block_rows, _args = payload
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, stream, chunk_idx])
    )
    for a in range(0, rows, block_rows):
        b = min(a + block_rows, rows)
        yield a, b, rng.random((b - a, row_len))


def _compute_chunk(payload: tuple, chunk_idx: int, rows: int) -> tuple:
    """``(n_active, out)`` for one chunk; ``out`` is (rows, kinds, 2)."""
    return kernels.run_chunk(
        _uniform_blocks(payload, chunk_idx, rows), rows, *payload[-1]
    )


def _chunk_task(task: tuple) -> tuple:
    return _compute_chunk(_PAYLOAD, *task)


def _run_chunks(payload: tuple, n_trials: int, workers: int) -> tuple:
    """``(n_active, out)`` for one stream, in trial order; identical for any
    worker count.  Each chunk's arrays are copied into place as they come,
    so the stream's arrays are not held twice."""
    specs = _chunk_specs(n_trials)
    n_active = np.empty(n_trials, dtype=np.int64)
    out = np.empty((n_trials, len(payload[-1][-1]), 2))

    def place(parts):
        for (_idx, start, rows), (na, o) in zip(specs, parts):
            n_active[start: start + rows], out[start: start + rows] = na, o

    if workers == 1:
        place(_compute_chunk(payload, i, rows) for i, _start, rows in specs)
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
                place(pool.map(
                    _chunk_task, [(idx, rows) for idx, _start, rows in specs]
                ))
        finally:
            _PAYLOAD = None
    return n_active, out


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
    evaluation stream is an out-of-sample test of the target outage.  Its
    costs come from the max-rate kernel alone, through the chunk loop the
    evaluation runs, and the budget is the order statistic that
    :func:`budget_from_samples` picks.  Logs ``n``, ``k``, the budget and
    the in-sample outage.
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
        config.seed, CALIBRATION_STREAM, budget=math.inf, kinds=[batch.mrs],
    )
    cost = _run_chunks(payload, trials, config.workers)[1][:, 0, 1]
    c_server = float(np.sort(cost)[trials - 1 - k])
    over = int(np.count_nonzero(cost > c_server))
    log.info(
        "calibration: n = %d, k = %d, c_server = %r, in-sample outage %d "
        "(%.4f)",
        trials, k, c_server, over, over / trials,
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

    # each function runs once, however many schedulers share it
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
    return list(_nc_points(config, nc_values, geometry))


def _nc_points(config, nc_values, geometry):
    """:func:`sweep_nc`'s points, each yielded as it finishes."""
    values = [int(nc) for nc in nc_values]
    for nc in values:
        if not 1 <= nc <= config.layout.n_bs:
            raise ValueError(
                f"nc must be in [1, {config.layout.n_bs}], got {nc}"
            )
    if geometry is None:
        geometry = campaign_geometry(config)
    for nc in values:
        layout = config.layout.with_centralized(
            most_central_ids(config.layout, nc)
        )
        cfg = dataclasses.replace(config, layout=layout)
        yield SweepPoint(float(nc), run_campaign(cfg, geometry))


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
    return list(
        _lambda_points(config, lambda_values, reference_lambda, geometry)
    )


def _lambda_points(config, lambda_values, reference_lambda, geometry):
    """:func:`sweep_lambda`'s points, each yielded as it finishes."""
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
    for lam in values:
        cfg = dataclasses.replace(
            config, phy=dataclasses.replace(config.phy, lambda_density=lam)
        )
        yield SweepPoint(lam, run_campaign(cfg, geometry, c_server=budget))


# ----------------------------------------------------------------------
# result files
# ----------------------------------------------------------------------


def _atomic_write(paths, parts) -> None:
    """Write the strings of ``parts`` to ``path.tmp`` for each of ``paths``,
    then rename each over its path, so a reader sees the old file or the
    whole new one."""
    tmps = [os.fspath(path) + ".tmp" for path in paths]
    with contextlib.ExitStack() as stack:
        files = [
            stack.enter_context(open(tmp, "w", encoding="utf-8", newline=""))
            for tmp in tmps
        ]
        for part in parts:
            for fh in files:
                fh.write(part)
    for tmp, path in zip(tmps, paths):
        os.replace(tmp, path)


def _float_text(values: np.ndarray) -> np.ndarray:
    """``repr`` of every float, as a flat object array of strings.

    Each distinct value is formatted once.  Values are keyed by their bits,
    so ``-0.0`` and ``0.0`` keep their own text.
    """
    bits, inverse = np.unique(
        np.ascontiguousarray(values, np.float64).view(np.uint64).ravel(),
        return_inverse=True,
    )
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), object)
    return text[inverse]


def write_per_trial_csv(result: CampaignResult, path) -> None:
    """`trial,scheduler,sum_rate,sum_complexity,outage,n_active` rows."""
    _atomic_write([path], _per_trial_blocks(result))


def _per_trial_blocks(result: CampaignResult):
    """The text of ``per_trial.csv``, WRITE_TRIALS trials at a time."""
    yield "trial,scheduler,sum_rate,sum_complexity,outage,n_active\n"
    series = [result.series[name] for name in result.schedulers]
    for start in range(0, result.n_trials, WRITE_TRIALS):
        block = slice(start, start + WRITE_TRIALS)
        text = _float_text(np.stack([
            column[block]
            for s in series for column in (s.sum_rate, s.sum_complexity)
        ])).reshape(2 * len(series), -1)
        heads = [f"{t}," for t in range(start, start + text.shape[1])]
        n_active = result.n_active[block].tolist()
        # each trial's outage flag and n_active, for either flag
        tails = [
            np.array([f",{flag},{na}\n" for na in n_active], object)
            for flag in (0, 1)
        ]
        columns = [
            [
                f"{head}{name},{r},{c}{tail}"
                for head, r, c, tail in zip(
                    heads, text[2 * j].tolist(), text[2 * j + 1].tolist(),
                    np.where(s.outage[block], tails[1], tails[0]).tolist(),
                )
            ]
            for j, (name, s) in enumerate(zip(result.schedulers, series))
        ]
        yield "".join(chain.from_iterable(zip(*columns)))


def write_summary_csv(result: CampaignResult, path) -> None:
    """`scheduler,mean_sum_rate,outage_rate,c_server` rows."""
    lines = ["scheduler,mean_sum_rate,outage_rate,c_server"]
    for name in result.schedulers:
        s = result.series[name]
        lines.append(
            f"{name},{s.mean_sum_rate!r},{s.outage_rate!r},"
            f"{result.c_server!r}"
        )
    _atomic_write([path], ["\n".join(lines) + "\n"])


def write_cdf_csvs(result: CampaignResult, out_dir) -> list[str]:
    """One `value,fraction` table per scheduler-metric pair.

    Equal series (``mrs`` and ``unconstrained`` share their costs) are
    tabulated once, and their files are written from the same text.  A
    table's values are distinct, and it is formatted and written
    WRITE_TRIALS rows at a time, so only one block's text is held at once.
    Each fraction ``k / n_trials`` is formatted once for all the tables.
    """
    paths = []
    # each distinct series, by its bits, and the paths of its table
    tables: list[tuple[np.ndarray, list[str]]] = []
    for name in result.schedulers:
        for metric in ("sum_rate", "sum_complexity"):
            bits = getattr(result.series[name], metric).view(np.uint64)
            paths.append(os.path.join(out_dir, f"cdf_{name}_{metric}.csv"))
            for seen, group in tables:
                if np.array_equal(seen, bits):
                    break
            else:
                group = []
                tables.append((bits, group))
            group.append(paths[-1])
    fractions = _fraction_text(result.n_trials)
    for bits, group in tables:
        values, at_most = _cdf_counts(bits.view(np.float64))
        _atomic_write(group, _cdf_blocks(values, at_most, fractions))
    return paths


def _fraction_text(n: int) -> tuple[str, np.ndarray]:
    """``(text, ends)``: ``repr(k / n)`` for ``k = 1 .. n`` in one string,
    the text of ``k`` being ``text[ends[k - 1]: ends[k]]``."""
    parts = []
    ends = np.zeros(n + 1, dtype=np.int64)
    for start in range(1, n + 1, WRITE_TRIALS):
        stop = min(start + WRITE_TRIALS, n + 1)
        texts = [repr(k / n) for k in range(start, stop)]
        parts.append("".join(texts))
        ends[start: stop] = np.fromiter(map(len, texts), np.int64, len(texts))
    return "".join(parts), np.cumsum(ends, out=ends)


def _cdf_blocks(values, at_most, fractions):
    """The text of a CDF table, WRITE_TRIALS rows at a time: each distinct
    value and the fraction of the samples at most it, whose text is read
    from :func:`_fraction_text`."""
    text, ends = fractions
    yield "value,fraction\n"
    for start in range(0, values.size, WRITE_TRIALS):
        block = slice(start, start + WRITE_TRIALS)
        k = at_most[block]
        yield "".join([
            f"{v!r},{text[a:b]}\n"
            for v, a, b in zip(
                values[block].tolist(), ends[k - 1].tolist(), ends[k].tolist()
            )
        ])


def write_sweep_csv(points, value_name: str, path) -> None:
    """Sweep summary: one row per (point, scheduler).  ``points`` may be an
    iterator of :class:`SweepPoint`; none is held once its rows are made."""
    lines = [f"{value_name},scheduler,mean_sum_rate,outage_rate,c_server"]
    lines.extend(chain.from_iterable(map(_sweep_rows, points)))
    _atomic_write([path], ["\n".join(lines) + "\n"])


def _sweep_rows(pt: SweepPoint) -> list[str]:
    res = pt.result
    return [
        f"{pt.value!r},{name},{res.mean_sum_rate(name)!r},"
        f"{res.outage_rate(name)!r},{res.c_server!r}"
        for name in res.schedulers
    ]


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
    _atomic_write(
        [path], [json.dumps(doc, indent=2, sort_keys=True) + "\n"]
    )
