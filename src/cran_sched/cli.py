"""Command-line front end: config parsing, subcommands, file emission.

Configs are flat ``key = value`` text files (``#`` comments).  The keys are
the fields of :class:`RunConfig`: unknown keys are rejected, every value is
validated with the key name in the message, and unset keys take the field
defaults, which are the default system-evaluation parameters (see
:data:`DEFAULTS`).  Logs go to standard error; data appears on standard
output only when ``--stdout`` is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import math
import os
import sys
from dataclasses import dataclass, fields

from . import __version__, harness
from .complexity import ModelParams
from .harness import CampaignConfig, CampaignKeys
from .mcs import McsTable, build_table, db_to_linear, default_table, load_rates
from .netsim import (
    LAYOUT_KINDS,
    Arena,
    NetworkLayout,
    PhyParams,
    generate_layout,
    load_layout,
    save_layout,
)

log = logging.getLogger("cran_sched")


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


_LOG_LEVELS = ("debug", "info", "warning", "error")


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


@dataclass(frozen=True, kw_only=True)
class RunConfig(CampaignKeys):
    """A validated config: one field per config key, whose default is the
    key's default (``None``: unset).  The campaign keys are those of
    :class:`~cran_sched.harness.CampaignKeys`.  Setting ``c_server`` clears
    ``epsilon``; ``model`` and ``phy`` are built once, from the fields."""

    lambda_density: float = 1.0         # active users per km^2
    pathloss_exponent: float = 3.7
    s: float = 0.1                      # fractional power-control exponent
    p0_w: float = 10.0                  # target receive-power scale, W
    noise_w: float = 0.1                # receiver noise power, W
    k_prime: float = 0.2
    zeta: float = 6.0
    nu_db: float = 0.2                  # threshold back-off, dB
    eps_channel: float = 0.1
    l_max: int = 8                      # iteration cap, read by nothing
    n_centralized: int = 10
    layout_file: str | None = None
    layout_kind: str = "uniform-random"
    n_bs: int = 129
    arena_km: float = 30.0
    layout_seed: int = 1
    nc_values: tuple[int, ...] = (2, 4, 6, 8, 10)
    lambda_values: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    reference_lambda: float | None = None   # None -> lambda_values[0]
    mcs_file: str | None = None
    log_level: str = "info"

    def __post_init__(self) -> None:
        if self.c_server is not None:
            object.__setattr__(self, "epsilon", None)
        # nu = 10**(nu_db/10) is positive for any nu_db, so build_table cannot
        # catch a non-positive margin; past ~3082.5 dB it overflows a float
        _check(
            0.0 < self.nu_db < math.inf,
            f"nu_db must be > 0 and finite, got {self.nu_db}",
        )
        _check(
            self.nu_db <= 3000.0, f"nu_db must be <= 3000, got {self.nu_db}"
        )
        # PhyParams checks p0_w too, but names it p0
        _check(
            0.0 < self.p0_w < math.inf,
            f"p0_w must be > 0 and finite, got {self.p0_w}",
        )
        # ModelParams and PhyParams check the ranges of their keys
        self.model, self.phy
        super().__post_init__()
        for key, low in (
            ("n_centralized", 1), ("n_bs", 1), ("layout_seed", 0), ("l_max", 1)
        ):
            value = getattr(self, key)
            _check(value >= low, f"{key} must be >= {low}, got {value}")
        _check(
            self.layout_kind in LAYOUT_KINDS,
            f"layout_kind must be one of {LAYOUT_KINDS}, "
            f"got {self.layout_kind!r}",
        )
        _check(
            0 < self.arena_km < math.inf,
            f"arena_km must be > 0 and finite, got {self.arena_km}",
        )
        _check(bool(self.nc_values), "nc_values must list at least one value")
        for v in self.nc_values:
            _check(v >= 1, f"nc_values: values must be >= 1, got {v}")
        _check(
            bool(self.lambda_values),
            "lambda_values must list at least one value",
        )
        for v in self.lambda_values:
            _check(v > 0.0, f"lambda_values: values must be > 0, got {v}")
        if self.reference_lambda is not None:
            _check(
                self.reference_lambda > 0.0,
                f"reference_lambda must be > 0, got {self.reference_lambda}",
            )
        _check(
            self.log_level in _LOG_LEVELS,
            f"log_level must be one of {_LOG_LEVELS}, got {self.log_level!r}",
        )

    @functools.cached_property
    def model(self) -> ModelParams:
        return ModelParams(
            k_prime=self.k_prime, zeta=self.zeta, eps_channel=self.eps_channel
        )

    @functools.cached_property
    def phy(self) -> PhyParams:
        return PhyParams(
            pathloss_exponent=self.pathloss_exponent,
            s=self.s,
            p0=self.p0_w,
            noise_w=self.noise_w,
            lambda_density=self.lambda_density,
        )

    def mapping(self) -> dict[str, str]:
        """Canonical key -> value strings of the set keys; re-parsing
        reproduces this config."""
        return {
            f.name: _text(getattr(self, f.name))
            for f in fields(self)
            if getattr(self, f.name) is not None
        }


# every recognized key with its default (None = unset / derived)
DEFAULTS = {f.name: f.default for f in fields(RunConfig)}

# field annotation -> (cast, what a value that fails it must be)
_SCALARS = {"int": (int, "an integer"), "float": (float, "a number"),
            "str": (str, None)}


def _cast(key: str, annotation: str, text: str):
    """``text`` as a value of the field annotation, e.g. ``int | None``,
    ``bool`` or ``tuple[float, ...]`` (a comma list)."""
    kind = annotation.removesuffix(" | None")
    if kind == "bool":
        _check(
            text in ("true", "false"),
            f"{key} must be 'true' or 'false', got {text!r}",
        )
        return text == "true"
    if kind.startswith("tuple["):
        cast, _ = _SCALARS[kind[len("tuple["):-len(", ...]")]]
        items = [t.strip() for t in text.split(",") if t.strip()]
        try:
            return tuple(cast(t) for t in items)
        except ValueError:
            raise ValueError(
                f"{key} must be comma-separated numbers, got {text!r}"
            ) from None
    cast, noun = _SCALARS[kind]
    try:
        return cast(text)
    except ValueError:
        raise ValueError(f"{key} must be {noun}, got {text!r}") from None


def _text(value) -> str:
    """A field value in the config grammar; :func:`_cast` inverts it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_text(v) for v in value)
    return value if isinstance(value, str) else repr(value)


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


def parse_config(path) -> RunConfig:
    """Parse and validate a config file; unset keys take the defaults."""
    pairs = _read_pairs(path)
    try:
        # c_server clears the default epsilon, but a file may not set both
        if "epsilon" in pairs and "c_server" in pairs:
            raise ValueError("epsilon and c_server are mutually exclusive")
        return RunConfig(**{
            f.name: _cast(f.name, f.type, pairs[f.name])
            for f in fields(RunConfig)
            if f.name in pairs
        })
    except ValueError as exc:
        raise ConfigError(f"{os.fspath(path)}: {exc}") from None


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
    nu = db_to_linear(rc.nu_db)
    if rc.mcs_file is None:
        return default_table(nu)
    if not os.path.exists(rc.mcs_file):
        raise ConfigError(f"mcs file not found: {rc.mcs_file}")
    return build_table(load_rates(rc.mcs_file), nu)


def build_campaign(rc: RunConfig) -> CampaignConfig:
    """Assemble the harness-level campaign description."""
    return CampaignConfig(
        layout=build_layout(rc),
        table=build_mcs_table(rc),
        model=rc.model,
        phy=rc.phy,
        **{f.name: getattr(rc, f.name) for f in fields(CampaignKeys)},
    )


def cmd_calibrate(rc: RunConfig, out: str):
    config = build_campaign(rc)
    log.info("calibrating budget (%d trials)",
             config.calibration_trials or config.n_trials)
    c_server = harness.calibrate_budget(config)
    log.info("c_server = %r", c_server)
    return c_server, None


def cmd_run(rc: RunConfig, out: str):
    config = build_campaign(rc)
    log.info("running campaign (%d trials)", config.n_trials)
    result = harness.run_campaign(config)
    harness.write_per_trial_csv(result, os.path.join(out, "per_trial.csv"))
    harness.write_cdf_csvs(result, out)
    harness.write_summary_csv(result, os.path.join(out, "summary.csv"))
    for name in result.schedulers:
        log.info(
            "%s: mean sum-rate %.6f, outage rate %.6f",
            name, result.mean_sum_rate(name), result.outage_rate(name),
        )
    return result.c_server, os.path.join(out, "summary.csv")


def _run_sweep(out: str, command: str, points, value_name):
    """Write each point's files as its campaign finishes, then the sweep
    summary; ``points`` is an iterator, so no finished point is kept."""
    sweep_path = os.path.join(out, f"{command.replace('-', '_')}.csv")

    def write_point(pt):
        label = (
            f"nc_{int(pt.value):02d}"
            if value_name == "nc"
            else f"lambda_{pt.value!r}"
        )
        sub = os.path.join(out, label)
        os.makedirs(sub, exist_ok=True)
        harness.write_summary_csv(pt.result, os.path.join(sub, "summary.csv"))
        harness.write_cdf_csvs(pt.result, sub)
        log.info(
            "%s = %r done (c_server %r)", value_name, pt.value,
            pt.result.c_server,
        )
        return pt

    harness.write_sweep_csv(map(write_point, points), value_name, sweep_path)
    return None, sweep_path


def cmd_sweep_nc(rc: RunConfig, out: str):
    config = build_campaign(rc)
    log.info("sweeping scheduled-cell counts %s", list(rc.nc_values))
    points = harness.sweep_nc(config, rc.nc_values)
    return _run_sweep(out, "sweep-nc", points, "nc")


def cmd_sweep_lambda(rc: RunConfig, out: str):
    config = build_campaign(rc)
    log.info("sweeping user densities %s", list(rc.lambda_values))
    points = harness.sweep_lambda(
        config, rc.lambda_values, rc.reference_lambda
    )
    return _run_sweep(out, "sweep-lambda", points, "lambda")


def cmd_layout_gen(rc: RunConfig, out: str):
    layout = build_layout(rc)
    path = os.path.join(out, "layout.txt")
    save_layout(layout, path)
    log.info(
        "wrote %d-BS layout (%d centralized) to %s",
        layout.n_bs, layout.n_centralized, path,
    )
    return None, path


# name -> command: ``cmd(rc, out)`` writes its data files under ``out`` and
# returns ``(c_server or None, its primary file or None)``
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
        # the overrides are validated by RunConfig like the file's values
        overrides = {
            key: getattr(args, key)
            for key in ("seed", "workers")
            if getattr(args, key) is not None
        }
        rc = dataclasses.replace(parse_config(args.config), **overrides)
        logging.basicConfig(
            stream=sys.stderr,
            level=getattr(logging, rc.log_level.upper()),
            format="%(levelname)s %(name)s: %(message)s",
        )
        os.makedirs(args.out, exist_ok=True)
        c_server, primary = _COMMANDS[args.command](rc, args.out)
        # written last, so a manifest marks a complete output directory
        harness.write_manifest(
            os.path.join(args.out, "manifest.json"),
            command=args.command,
            config_mapping=rc.mapping(),
            seed=rc.seed,
            version=__version__,
            c_server=c_server,
        )
        if args.stdout and primary is None:
            print(repr(c_server))
        elif args.stdout:
            with open(primary, "r") as fh:
                sys.stdout.write(fh.read())
        return 0
    except (ValueError, OSError, OverflowError) as exc:
        # ConfigError and LayoutError are ValueErrors; a value in range can
        # still overflow a float in the model (a pathloss_exponent of 200)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # the pool module is imported only by a run with workers > 1
        pool = sys.modules.get("concurrent.futures.process")
        if pool is None or not isinstance(exc, pool.BrokenProcessPool):
            raise
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 2
