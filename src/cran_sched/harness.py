"""Experiment orchestration: calibration, campaigns, sweeps, result files.

A campaign draws ``n_trials`` independent channel realizations and runs every
selected scheduler on the *same* draw (paired comparison), so differences in
the recorded series are attributable to scheduling alone.  The computational
budget either comes straight from the config or is calibrated as the
empirical (1-eps)-quantile of max-rate sum cost over an independent
calibration stream; trials whose cost exceeds the budget are computational
outages and have their recorded sum-rate zeroed (the ``unconstrained``
series is the same allocation as ``mrs`` but is never scored against the
budget).

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
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
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

# sub-stream ids under the master seed
EVAL_STREAM = 1
CALIBRATION_STREAM = 2
AREA_STREAM = 3

SCHEDULERS = ("mrs", "swf", "scc", "unconstrained")


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs besides the cell geometry."""

    layout: NetworkLayout
    table: McsTable
    model: ModelParams
    phy: PhyParams
    schedulers: tuple[str, ...] = SCHEDULERS
    n_trials: int = 100_000
    epsilon: float | None = 0.1     # target outage; exclusive with c_server
    c_server: float | None = None   # explicit budget, bit-iterations pcu
    seed: int = 12345
    calibration_trials: int | None = None   # None -> n_trials
    area_samples: int = 100_000
    workers: int = 1
    background_interference: bool = False

    def __post_init__(self) -> None:
        if not self.schedulers:
            raise ValueError("schedulers must be non-empty")
        if len(set(self.schedulers)) != len(self.schedulers):
            raise ValueError(f"duplicate schedulers: {self.schedulers}")
        for s in self.schedulers:
            if s not in SCHEDULERS:
                raise ValueError(
                    f"unknown scheduler {s!r} (expected one of {SCHEDULERS})"
                )
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        if (self.epsilon is None) == (self.c_server is None):
            raise ValueError(
                "exactly one of epsilon and c_server must be set"
            )
        if self.epsilon is not None and not 0.0 <= self.epsilon < 1.0:
            raise ValueError(
                f"epsilon must be in [0,1), got {self.epsilon}"
            )
        if self.c_server is not None and not self.c_server >= 0.0:
            raise ValueError(
                f"c_server must be >= 0, got {self.c_server}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if (
            self.calibration_trials is not None
            and self.calibration_trials < 1000
        ):
            raise ValueError(
                f"calibration_trials must be >= 1000, "
                f"got {self.calibration_trials}"
            )
        if self.area_samples < 10_000:
            raise ValueError(
                f"area_samples must be >= 10000, got {self.area_samples}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


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


def budget_from_samples(samples, epsilon: float) -> float:
    """Smallest sample c with a fraction of samples > c of at most epsilon.

    Sorting ascending and counting, this is the (1-eps)-quantile taken
    inclusively at index ``n - 1 - floor(eps * n)``.  ``epsilon = 0`` simply
    returns the sample maximum, which cannot guarantee zero exceedance on
    new data; a warning says so.
    """
    xs = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    n = xs.size
    if n == 0:
        raise ValueError("need at least one calibration sample")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must be in [0,1), got {epsilon}")
    if epsilon == 0.0:
        warnings.warn(
            "epsilon = 0: returning the calibration maximum, which does "
            "not guarantee zero exceedance out of sample",
            stacklevel=2,
        )
    k = int(epsilon * n + 1e-9)
    return float(xs[n - 1 - k])


# ----------------------------------------------------------------------
# chunked trial execution
# ----------------------------------------------------------------------

# worker payload, inherited by fork()ed pool processes
_PAYLOAD: dict | None = None


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
    do_swf: bool,
    do_scc: bool,
) -> dict:
    c0, ilz = model.kernel_constants()
    return {
        "seed": seed,
        "stream": stream,
        "n_inst": cells.n_inst,
        "nc": cells.nc,
        "row_len": cells.row_len,
        "p_occ": cells.p_occ,
        "pool_xy": cells.pool_xy,
        "pool_off": cells.pool_off,
        "bs_xy": cells.bs_xy,
        "thresholds": table.thresholds,
        "rates": table.rates,
        "c0": c0,
        "ilz": ilz,
        "p0": phy.p0,
        "noise": phy.noise_w,
        "apl": phy.pathloss_exponent,
        "s": phy.s,
        "budget": budget,
        "do_swf": do_swf,
        "do_scc": do_scc,
    }


def _compute_chunk(p: dict, chunk_idx: int, rows: int) -> tuple:
    rng = np.random.default_rng(
        np.random.SeedSequence([p["seed"], p["stream"], chunk_idx])
    )
    u = rng.random((rows, p["row_len"]))
    n_inst = p["n_inst"]
    u_occ = np.ascontiguousarray(u[:, :n_inst])
    u_pos = np.ascontiguousarray(u[:, n_inst: 2 * n_inst])
    u_fade = np.ascontiguousarray(u[:, 2 * n_inst:])
    out = tuple(np.zeros(rows) for _ in range(6))
    n_active = np.zeros(rows, dtype=np.int64)
    kernels.run_chunk(
        u_occ, u_pos, u_fade,
        p["p_occ"], p["pool_xy"], p["pool_off"], p["bs_xy"],
        MIN_DISTANCE_KM, p["nc"],
        p["thresholds"], p["rates"], p["c0"], p["ilz"],
        p["p0"], p["noise"], p["apl"], p["s"],
        p["budget"], p["do_swf"], p["do_scc"],
        n_active, out[0], out[1], out[2], out[3], out[4], out[5],
    )
    return (n_active,) + out


def _chunk_task(spec: tuple[int, int, int]) -> tuple:
    chunk_idx, start, rows = spec
    return start, rows, _compute_chunk(_PAYLOAD, chunk_idx, rows)


def _run_chunks(payload: dict, n_trials: int, workers: int) -> tuple:
    """All per-trial arrays for one stream, identical for any worker count."""
    full = tuple(np.empty(n_trials) for _ in range(6))
    n_active = np.empty(n_trials, dtype=np.int64)
    specs = _chunk_specs(n_trials)

    def place(start: int, rows: int, arrays: tuple) -> None:
        n_active[start: start + rows] = arrays[0]
        for dst, src in zip(full, arrays[1:]):
            dst[start: start + rows] = src

    if workers == 1:
        for chunk_idx, start, rows in specs:
            place(start, rows, _compute_chunk(payload, chunk_idx, rows))
    else:
        global _PAYLOAD
        _PAYLOAD = payload
        try:
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(
                max_workers=min(workers, len(specs)), mp_context=ctx
            ) as pool:
                for start, rows, arrays in pool.map(_chunk_task, specs):
                    place(start, rows, arrays)
        finally:
            _PAYLOAD = None
    return (n_active,) + full


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
    config: CampaignConfig,
    calibration_trials: int | None = None,
    geometry: CellGeometry | None = None,
) -> float:
    """Budget hitting the target outage: the empirical (1-eps)-quantile of
    max-rate sum cost over an independent calibration stream.

    The calibration shares the master seed's geometry but draws trials from
    its own sub-stream, so evaluating with the returned budget on the
    evaluation stream is an out-of-sample test of the target outage.
    """
    if config.epsilon is None:
        raise ValueError(
            "calibrate_budget needs a config with epsilon set "
            "(got an explicit c_server instead)"
        )
    trials = (
        calibration_trials
        if calibration_trials is not None
        else (config.calibration_trials or config.n_trials)
    )
    if trials < 1000:
        raise ValueError(
            f"calibration needs at least 1000 trials, got {trials}"
        )
    if geometry is None:
        geometry = campaign_geometry(config)
    cells = campaign_cells(config, geometry)
    payload = _payload(
        cells, config.table, config.model, config.phy,
        config.seed, CALIBRATION_STREAM,
        budget=math.inf, do_swf=False, do_scc=False,
    )
    arrays = _run_chunks(payload, trials, config.workers)
    mrs_comp = arrays[2]
    return budget_from_samples(mrs_comp, config.epsilon)


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

    cells = campaign_cells(config, geometry)
    payload = _payload(
        cells, config.table, config.model, config.phy,
        config.seed, EVAL_STREAM,
        budget=float(c_server),
        do_swf="swf" in config.schedulers,
        do_scc="scc" in config.schedulers,
    )
    (
        n_active,
        mrs_rate, mrs_comp,
        swf_rate, swf_comp,
        scc_rate, scc_comp,
    ) = _run_chunks(payload, config.n_trials, config.workers)

    series: dict[str, SchedulerSeries] = {}
    for name in config.schedulers:
        if name == "mrs":
            outage = mrs_comp > c_server
            series[name] = SchedulerSeries(
                sum_rate=np.where(outage, 0.0, mrs_rate),
                sum_complexity=mrs_comp,
                outage=outage,
            )
        elif name == "unconstrained":
            series[name] = SchedulerSeries(
                sum_rate=mrs_rate,
                sum_complexity=mrs_comp,
                outage=np.zeros(config.n_trials, dtype=bool),
            )
        else:
            rate, comp = (
                (swf_rate, swf_comp) if name == "swf" else (scc_rate, scc_comp)
            )
            over = comp > c_server
            if np.any(over):
                t = int(np.argmax(over))
                raise AssertionError(
                    f"{name} exceeded the budget on trial {t}: "
                    f"{comp[t]!r} > {c_server!r}"
                )
            series[name] = SchedulerSeries(
                sum_rate=rate,
                sum_complexity=comp,
                outage=np.zeros(config.n_trials, dtype=bool),
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
    if geometry is None:
        geometry = campaign_geometry(config)
    points = []
    for nc in nc_values:
        nc = int(nc)
        if not 1 <= nc <= config.layout.n_bs:
            raise ValueError(
                f"nc must be in [1, {config.layout.n_bs}], got {nc}"
            )
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
        ref = float(reference_lambda) if reference_lambda else values[0]
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
    lines = ["trial,scheduler,sum_rate,sum_complexity,outage,n_active"]
    for t in range(result.n_trials):
        na = int(result.n_active[t])
        for name in result.schedulers:
            s = result.series[name]
            lines.append(
                f"{t},{name},{float(s.sum_rate[t])!r},"
                f"{float(s.sum_complexity[t])!r},{int(s.outage[t])},{na}"
            )
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
    """One `value,fraction` table per scheduler-metric pair."""
    paths = []
    for name in result.schedulers:
        for metric in ("sum_rate", "sum_complexity"):
            table = result.cdf(name, metric)
            lines = ["value,fraction"]
            lines.extend(f"{float(v)!r},{float(f)!r}" for v, f in table)
            path = os.path.join(out_dir, f"cdf_{name}_{metric}.csv")
            _atomic_write(path, "\n".join(lines) + "\n")
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
    extra: dict | None = None,
) -> None:
    """JSON run manifest; its config section re-parses to the same run."""
    doc = {
        "command": command,
        "config": config_mapping,
        "seed": seed,
        "version": version,
    }
    if c_server is not None:
        doc["c_server"] = c_server
    if extra:
        doc.update(extra)
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
