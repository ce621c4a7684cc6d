"""Command-line front end: config parsing, subcommands, file emission.

Configs are flat ``key = value`` text files (``#`` comments).  Unknown keys
are rejected, every value is validated with the key name in the message,
and unset keys take the default system-evaluation parameters baked into
:data:`DEFAULTS`.  Logs go to standard error; data appears on standard
output only when ``--stdout`` is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from . import __version__, harness, kernels
from .complexity import ModelParams
from .harness import CampaignConfig, check_schedulers
from .mcs import McsTable, build_table, db_to_linear, default_table, load_rates
from .netsim import (
    Arena,
    LayoutError,
    NetworkLayout,
    PhyParams,
    generate_layout,
    load_layout,
    save_layout,
)

log = logging.getLogger("cran_sched")


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


# every recognized key with its default (None = unset / derived)
DEFAULTS: dict[str, str | None] = {
    "lambda_density": "1.0",
    "pathloss_exponent": "3.7",
    "s": "0.1",
    "p0_w": "10.0",
    "noise_w": "0.1",
    "k_prime": "0.2",
    "zeta": "6.0",
    "nu_db": "0.2",
    "eps_channel": "0.1",
    "l_max": "8",
    "n_centralized": "10",
    "epsilon": "0.1",
    "c_server": None,
    "n_trials": "100000",
    "calibration_trials": None,
    "seed": "12345",
    "layout_file": None,
    "layout_kind": "uniform-random",
    "n_bs": "129",
    "arena_km": "30.0",
    "layout_seed": "1",
    "area_samples": "100000",
    "schedulers": "mrs,swf,scc,unconstrained",
    "workers": "1",
    "nc_values": "2,4,6,8,10",
    "lambda_values": "0.5,1.0,2.0,4.0",
    "reference_lambda": None,
    "mcs_file": None,
    "background_interference": "false",
    "log_level": "info",
}

_LOG_LEVELS = ("debug", "info", "warning", "error")
_LAYOUT_KINDS = ("uniform-random", "hex-grid")


@dataclass(frozen=True)
class RunConfig:
    """A fully validated config, ready to build a campaign from."""

    model: ModelParams
    phy: PhyParams
    epsilon: float | None
    c_server: float | None
    n_trials: int
    calibration_trials: int | None
    seed: int
    schedulers: tuple[str, ...]
    workers: int
    n_centralized: int
    layout_file: str | None
    layout_kind: str
    n_bs: int
    arena_km: float
    layout_seed: int
    area_samples: int
    nc_values: tuple[int, ...]
    lambda_values: tuple[float, ...]
    reference_lambda: float | None
    mcs_file: str | None
    background_interference: bool
    log_level: str
    nu_db: float

    def mapping(self) -> dict[str, str]:
        """Canonical key -> value strings; re-parsing reproduces this config."""
        out: dict[str, str] = {
            "lambda_density": repr(self.phy.lambda_density),
            "pathloss_exponent": repr(self.phy.pathloss_exponent),
            "s": repr(self.phy.s),
            "p0_w": repr(self.phy.p0),
            "noise_w": repr(self.phy.noise_w),
            "k_prime": repr(self.model.k_prime),
            "zeta": repr(self.model.zeta),
            "nu_db": repr(self.nu_db),
            "eps_channel": repr(self.model.eps_channel),
            "l_max": str(self.model.l_max),
            "n_centralized": str(self.n_centralized),
            "n_trials": str(self.n_trials),
            "seed": str(self.seed),
            "layout_kind": self.layout_kind,
            "n_bs": str(self.n_bs),
            "arena_km": repr(self.arena_km),
            "layout_seed": str(self.layout_seed),
            "area_samples": str(self.area_samples),
            "schedulers": ",".join(self.schedulers),
            "workers": str(self.workers),
            "nc_values": ",".join(str(v) for v in self.nc_values),
            "lambda_values": ",".join(repr(v) for v in self.lambda_values),
            "background_interference": (
                "true" if self.background_interference else "false"
            ),
            "log_level": self.log_level,
        }
        if self.epsilon is not None:
            out["epsilon"] = repr(self.epsilon)
        if self.c_server is not None:
            out["c_server"] = repr(self.c_server)
        if self.calibration_trials is not None:
            out["calibration_trials"] = str(self.calibration_trials)
        if self.layout_file is not None:
            out["layout_file"] = self.layout_file
        if self.reference_lambda is not None:
            out["reference_lambda"] = repr(self.reference_lambda)
        if self.mcs_file is not None:
            out["mcs_file"] = self.mcs_file
        return out


def config_text(mapping: dict[str, str]) -> str:
    """Render a key -> value mapping in the config grammar."""
    return "".join(f"{k} = {v}\n" for k, v in mapping.items())


def _read_pairs(path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, eq, value = text.partition("=")
            key = key.strip()
            value = value.strip()
            if not eq:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'key = value', got {text!r}"
                )
            if key not in DEFAULTS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown config key {key!r}"
                )
            if key in pairs:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate config key {key!r}"
                )
            if not value:
                raise ConfigError(
                    f"{path}:{lineno}: empty value for key {key!r}"
                )
            pairs[key] = value
    return pairs


def _check(cond: bool, ctx: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{ctx}: {message}")


def _float(pairs, key, ctx) -> float | None:
    value = pairs.get(key, DEFAULTS[key])
    if value is None:
        return None
    try:
        return float(value)
    except ValueError:
        raise ConfigError(
            f"{ctx}: {key} must be a number, got {value!r}"
        ) from None


def _int(pairs, key, ctx) -> int | None:
    value = pairs.get(key, DEFAULTS[key])
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise ConfigError(
            f"{ctx}: {key} must be an integer, got {value!r}"
        ) from None


def parse_config(path) -> RunConfig:
    """Parse and validate a config file; unset keys take the defaults."""
    ctx = os.fspath(path)
    pairs = _read_pairs(path)

    # ranges of the model/phy values are checked once, by ModelParams and
    # PhyParams below
    lam = _float(pairs, "lambda_density", ctx)
    apl = _float(pairs, "pathloss_exponent", ctx)
    s = _float(pairs, "s", ctx)
    p0 = _float(pairs, "p0_w", ctx)
    noise = _float(pairs, "noise_w", ctx)
    k_prime = _float(pairs, "k_prime", ctx)
    zeta = _float(pairs, "zeta", ctx)
    nu_db = _float(pairs, "nu_db", ctx)
    # nu = 10**(nu_db/10) is positive for any nu_db, so ModelParams cannot
    # catch a non-positive margin
    _check(nu_db > 0.0, ctx, f"nu_db must be > 0, got {nu_db}")
    eps_ch = _float(pairs, "eps_channel", ctx)
    l_max = _int(pairs, "l_max", ctx)
    n_central = _int(pairs, "n_centralized", ctx)
    _check(n_central >= 1, ctx, f"n_centralized must be >= 1, got {n_central}")

    if "epsilon" in pairs and "c_server" in pairs:
        raise ConfigError(
            f"{ctx}: epsilon and c_server are mutually exclusive"
        )
    c_server = _float(pairs, "c_server", ctx)
    if c_server is not None:
        _check(c_server >= 0.0, ctx, f"c_server must be >= 0, got {c_server}")
        epsilon = None
    else:
        epsilon = _float(pairs, "epsilon", ctx)
        _check(
            0.0 <= epsilon < 1.0, ctx, f"epsilon must be in [0,1), got {epsilon}"
        )

    n_trials = _int(pairs, "n_trials", ctx)
    _check(n_trials >= 1, ctx, f"n_trials must be >= 1, got {n_trials}")
    cal_trials = _int(pairs, "calibration_trials", ctx)
    if epsilon is not None:
        # calibrating epsilon draws calibration_trials trials, n_trials if unset
        if cal_trials is None:
            key, n_cal = "n_trials (calibration_trials is unset)", n_trials
        else:
            key, n_cal = "calibration_trials", cal_trials
        _check(n_cal >= 1000, ctx, f"{key} must be >= 1000, got {n_cal}")
    seed = _int(pairs, "seed", ctx)
    _check(seed >= 0, ctx, f"seed must be >= 0, got {seed}")
    workers = _int(pairs, "workers", ctx)
    _check(workers >= 1, ctx, f"workers must be >= 1, got {workers}")

    sched_raw = pairs.get("schedulers", DEFAULTS["schedulers"])
    schedulers = tuple(t.strip() for t in sched_raw.split(",") if t.strip())
    try:
        check_schedulers(schedulers)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from None

    layout_kind = pairs.get("layout_kind", DEFAULTS["layout_kind"])
    _check(
        layout_kind in _LAYOUT_KINDS, ctx,
        f"layout_kind must be one of {_LAYOUT_KINDS}, got {layout_kind!r}",
    )
    n_bs = _int(pairs, "n_bs", ctx)
    _check(n_bs >= 1, ctx, f"n_bs must be >= 1, got {n_bs}")
    arena_km = _float(pairs, "arena_km", ctx)
    _check(arena_km > 0.0, ctx, f"arena_km must be > 0, got {arena_km}")
    layout_seed = _int(pairs, "layout_seed", ctx)
    _check(layout_seed >= 0, ctx, f"layout_seed must be >= 0, got {layout_seed}")
    area_samples = _int(pairs, "area_samples", ctx)
    _check(
        area_samples >= 10_000, ctx,
        f"area_samples must be >= 10000, got {area_samples}",
    )

    def _values(key, cast, constraint, message):
        raw = pairs.get(key, DEFAULTS[key])
        items = [t.strip() for t in raw.split(",") if t.strip()]
        _check(len(items) > 0, ctx, f"{key} must list at least one value")
        try:
            vals = tuple(cast(t) for t in items)
        except ValueError:
            raise ConfigError(
                f"{ctx}: {key} must be comma-separated numbers, got {raw!r}"
            ) from None
        for v in vals:
            _check(constraint(v), ctx, f"{key}: {message}, got {v}")
        return vals

    nc_values = _values("nc_values", int, lambda v: v >= 1, "values must be >= 1")
    lambda_values = _values(
        "lambda_values", float, lambda v: v > 0.0, "values must be > 0"
    )
    ref_lambda = _float(pairs, "reference_lambda", ctx)
    if ref_lambda is not None:
        _check(
            ref_lambda > 0.0, ctx,
            f"reference_lambda must be > 0, got {ref_lambda}",
        )

    bg_raw = pairs.get(
        "background_interference", DEFAULTS["background_interference"]
    )
    _check(
        bg_raw in ("true", "false"), ctx,
        f"background_interference must be 'true' or 'false', got {bg_raw!r}",
    )
    log_level = pairs.get("log_level", DEFAULTS["log_level"])
    _check(
        log_level in _LOG_LEVELS, ctx,
        f"log_level must be one of {_LOG_LEVELS}, got {log_level!r}",
    )

    try:
        model = ModelParams(
            k_prime=k_prime,
            zeta=zeta,
            nu=db_to_linear(nu_db),
            eps_channel=eps_ch,
            l_max=l_max,
        )
        phy = PhyParams(
            pathloss_exponent=apl,
            s=s,
            p0=p0,
            noise_w=noise,
            lambda_density=lam,
        )
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from None

    return RunConfig(
        model=model,
        phy=phy,
        epsilon=epsilon,
        c_server=c_server,
        n_trials=n_trials,
        calibration_trials=cal_trials,
        seed=seed,
        schedulers=schedulers,
        workers=workers,
        n_centralized=n_central,
        layout_file=pairs.get("layout_file"),
        layout_kind=layout_kind,
        n_bs=n_bs,
        arena_km=arena_km,
        layout_seed=layout_seed,
        area_samples=area_samples,
        nc_values=nc_values,
        lambda_values=lambda_values,
        reference_lambda=ref_lambda,
        mcs_file=pairs.get("mcs_file"),
        background_interference=bg_raw == "true",
        log_level=log_level,
        nu_db=nu_db,
    )


def build_layout(rc: RunConfig) -> NetworkLayout:
    """The config's layout: loaded from file or synthesized."""
    if rc.layout_file is not None:
        if not os.path.exists(rc.layout_file):
            raise ConfigError(f"layout file not found: {rc.layout_file}")
        return load_layout(rc.layout_file)
    arena = Arena(0.0, 0.0, rc.arena_km, rc.arena_km)
    return generate_layout(
        rc.layout_kind, rc.n_bs, arena, rc.n_centralized, rc.layout_seed
    )


def build_mcs_table(rc: RunConfig) -> McsTable:
    """The config's rate ladder with the configured SNR margin."""
    if rc.mcs_file is not None:
        if not os.path.exists(rc.mcs_file):
            raise ConfigError(f"mcs file not found: {rc.mcs_file}")
        return build_table(load_rates(rc.mcs_file), rc.model.nu)
    return default_table(rc.model)


def build_campaign(rc: RunConfig) -> CampaignConfig:
    """Assemble the harness-level campaign description."""
    return CampaignConfig(
        layout=build_layout(rc),
        table=build_mcs_table(rc),
        model=rc.model,
        phy=rc.phy,
        schedulers=rc.schedulers,
        n_trials=rc.n_trials,
        epsilon=rc.epsilon,
        c_server=rc.c_server,
        seed=rc.seed,
        calibration_trials=rc.calibration_trials,
        area_samples=rc.area_samples,
        workers=rc.workers,
        background_interference=rc.background_interference,
    )


def _write_campaign_files(result, out_dir: str) -> None:
    harness.write_per_trial_csv(result, os.path.join(out_dir, "per_trial.csv"))
    harness.write_cdf_csvs(result, out_dir)
    harness.write_summary_csv(result, os.path.join(out_dir, "summary.csv"))


def _manifest(rc: RunConfig, args, command: str, **extra) -> None:
    harness.write_manifest(
        os.path.join(args.out, "manifest.json"),
        command=command,
        config_mapping=rc.mapping(),
        seed=rc.seed,
        version=__version__,
        **extra,
    )


def cmd_calibrate(rc: RunConfig, args) -> int:
    config = build_campaign(rc)
    log.info("calibrating budget (%d trials)",
             config.calibration_trials or config.n_trials)
    c_server = harness.calibrate_budget(config)
    log.info("c_server = %r", c_server)
    _manifest(rc, args, "calibrate", c_server=c_server)
    if args.stdout:
        print(repr(c_server))
    return 0


def cmd_run(rc: RunConfig, args) -> int:
    config = build_campaign(rc)
    log.info("running campaign (%d trials)", config.n_trials)
    result = harness.run_campaign(config)
    _write_campaign_files(result, args.out)
    _manifest(rc, args, "run", c_server=result.c_server)
    for name in result.schedulers:
        log.info(
            "%s: mean sum-rate %.6f, outage rate %.6f",
            name, result.mean_sum_rate(name), result.outage_rate(name),
        )
    if args.stdout:
        with open(os.path.join(args.out, "summary.csv"), "r") as fh:
            sys.stdout.write(fh.read())
    return 0


def _run_sweep(rc: RunConfig, args, command: str, points, value_name) -> int:
    sweep_path = os.path.join(args.out, f"{command.replace('-', '_')}.csv")
    for pt in points:
        label = (
            f"nc_{int(pt.value):02d}"
            if value_name == "nc"
            else f"lambda_{pt.value!r}"
        )
        sub = os.path.join(args.out, label)
        os.makedirs(sub, exist_ok=True)
        harness.write_summary_csv(pt.result, os.path.join(sub, "summary.csv"))
        harness.write_cdf_csvs(pt.result, sub)
        log.info(
            "%s = %r done (c_server %r)", value_name, pt.value,
            pt.result.c_server,
        )
    harness.write_sweep_csv(points, value_name, sweep_path)
    _manifest(rc, args, command)
    if args.stdout:
        with open(sweep_path, "r") as fh:
            sys.stdout.write(fh.read())
    return 0


def cmd_sweep_nc(rc: RunConfig, args) -> int:
    config = build_campaign(rc)
    log.info("sweeping scheduled-cell counts %s", list(rc.nc_values))
    points = harness.sweep_nc(config, rc.nc_values)
    return _run_sweep(rc, args, "sweep-nc", points, "nc")


def cmd_sweep_lambda(rc: RunConfig, args) -> int:
    config = build_campaign(rc)
    log.info("sweeping user densities %s", list(rc.lambda_values))
    points = harness.sweep_lambda(
        config, rc.lambda_values, rc.reference_lambda
    )
    return _run_sweep(rc, args, "sweep-lambda", points, "lambda")


def cmd_layout_gen(rc: RunConfig, args) -> int:
    layout = build_layout(rc)
    path = os.path.join(args.out, "layout.txt")
    save_layout(layout, path)
    log.info(
        "wrote %d-BS layout (%d centralized) to %s",
        layout.n_bs, layout.n_centralized, path,
    )
    _manifest(rc, args, "layout-gen")
    if args.stdout:
        with open(path, "r") as fh:
            sys.stdout.write(fh.read())
    return 0


_COMMANDS = {
    "calibrate": cmd_calibrate,
    "run": cmd_run,
    "sweep-nc": cmd_sweep_nc,
    "sweep-lambda": cmd_sweep_lambda,
    "layout-gen": cmd_layout_gen,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cran-sched",
        description=(
            "Uplink scheduling under a sum decoding-complexity budget: "
            "calibration, Monte-Carlo campaigns, and parameter sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument(
            "--workers", type=int, help="override the config worker count"
        )
        p.add_argument(
            "--stdout", action="store_true",
            help="also print the primary result to standard output",
        )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rc = parse_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"seed must be >= 0, got {args.seed}")
            rc = dataclasses.replace(rc, seed=args.seed)
        if args.workers is not None:
            if args.workers < 1:
                raise ConfigError(f"workers must be >= 1, got {args.workers}")
            rc = dataclasses.replace(rc, workers=args.workers)
        logging.basicConfig(
            stream=sys.stderr,
            level=getattr(logging, rc.log_level.upper()),
            format="%(levelname)s %(name)s: %(message)s",
        )
        if kernels.numba_requested() and not kernels.NUMBA_ENABLED:
            log.warning(
                "numba was requested but did not import; "
                "running the interpreted kernels"
            )
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](rc, args)
    except (ConfigError, LayoutError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 2
