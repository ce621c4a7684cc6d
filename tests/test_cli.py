"""Config parsing and command-line workflow tests."""

import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import weakref

import pytest

from cran_sched import (
    CampaignConfig,
    ModelParams,
    PhyParams,
    harness,
    kernels,
    load_layout,
)
from cran_sched.cli import (
    DEFAULTS,
    ConfigError,
    RunConfig,
    build_campaign,
    build_layout,
    build_mcs_table,
    config_text,
    main,
    parse_config,
)

# a desk-sized system so command tests stay fast
SMALL = """\
n_bs = 12
arena_km = 8.0
n_centralized = 3
n_trials = 2000
calibration_trials = 1000
area_samples = 10000
seed = 7
"""


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


# ------------------------------------------------------------------ parsing


def test_empty_config_gives_documented_defaults(tmp_path):
    rc = parse_config(write_cfg(tmp_path, "# all defaults\n"))
    assert rc.model == ModelParams()
    assert rc.phy == PhyParams()
    assert rc.model.nu == pytest.approx(10.0 ** 0.02, rel=1e-12)
    assert rc.epsilon == 0.1 and rc.c_server is None
    assert rc.n_trials == 100_000
    assert rc.calibration_trials is None
    assert rc.seed == 12345
    assert rc.schedulers == ("mrs", "swf", "scc", "unconstrained")
    assert rc.workers == 1
    assert rc.layout_file is None
    assert rc.layout_kind == "uniform-random"
    assert rc.n_bs == 129 and rc.arena_km == 30.0 and rc.layout_seed == 1
    assert rc.n_centralized == 10
    assert rc.area_samples == 100_000
    assert rc.nc_values == (2, 4, 6, 8, 10)
    assert rc.lambda_values == (0.5, 1.0, 2.0, 4.0)
    assert rc.reference_lambda is None
    assert rc.mcs_file is None
    assert rc.background_interference is False
    assert rc.log_level == "info"
    assert rc.nu_db == 0.2


def test_default_config_is_the_builtin_defaults(tmp_path):
    # configs/default.cfg documents every key, commented-out keys included,
    # and its values are the field defaults
    path = os.path.join(
        os.path.dirname(__file__), "..", "configs", "default.cfg"
    )
    assert parse_config(path) == parse_config(write_cfg(tmp_path, ""))
    with open(path) as fh:
        named = re.findall(r"^#?\s*(\w+)\s*=", fh.read(), re.MULTILINE)
    assert sorted(named) == sorted(DEFAULTS)


def test_campaign_config_defaults_are_the_config_defaults():
    # the library's CampaignConfig and RunConfig inherit the campaign keys
    # from one base, so a campaign built in code and one read from an empty
    # config file start from the same values
    run = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    shared = [
        f for f in dataclasses.fields(CampaignConfig)
        if f.default is not dataclasses.MISSING
    ]
    assert len(shared) == 9
    for f in shared:
        assert f.default == run[f.name], f.name


def test_config_value_overrides(tmp_path):
    rc = parse_config(
        write_cfg(
            tmp_path,
            "epsilon = 0.001\nlambda_density = 2.5\nschedulers = mrs,swf\n"
            "background_interference = true\nlayout_kind = hex-grid\n",
        )
    )
    assert rc.epsilon == 0.001
    assert rc.phy.lambda_density == 2.5
    assert rc.schedulers == ("mrs", "swf")
    assert rc.background_interference is True
    assert rc.layout_kind == "hex-grid"


def test_config_grammar_errors(tmp_path):
    cases = [
        ("quux = 1\n", "unknown config key 'quux'"),
        ("seed = 1\nseed = 2\n", "duplicate config key 'seed'"),
        ("seed =\n", "empty value"),
        ("just words\n", "expected 'key = value'"),
    ]
    for body, pattern in cases:
        with pytest.raises(ConfigError) as exc:
            parse_config(write_cfg(tmp_path, body))
        assert pattern in str(exc.value)
    # messages carry file and line number
    with pytest.raises(ConfigError, match=r"run\.cfg:3"):
        parse_config(write_cfg(tmp_path, "seed = 1\n# fine\nbad key\n"))


def test_config_constraint_errors(tmp_path):
    cases = [
        ("s = 1.5\n", "s must be in [0,1], got 1.5"),
        ("s = -0.1\n", "s must be in [0,1]"),
        ("nu_db = 0.0\n", "nu_db must be > 0"),
        ("zeta = 2.0\n", "zeta must be > 2"),
        ("epsilon = 1.0\n", "epsilon must be in [0,1)"),
        ("n_trials = 0\n", "n_trials must be >= 1"),
        ("n_trials = ten\n", "n_trials must be an integer"),
        ("lambda_density = oops\n", "lambda_density must be a number"),
        ("calibration_trials = 999\n", "calibration_trials must be >= 1000"),
        (
            "n_trials = 512\n",
            "n_trials (calibration_trials is unset) must be >= 1000",
        ),
        ("schedulers = mrs,tdma\n", "schedulers must be drawn from"),
        ("layout_kind = ring\n", "layout_kind must be one of"),
        ("nc_values = 2,0\n", "nc_values"),
        ("lambda_values = 1.0,x\n", "lambda_values must be comma-separated"),
        ("background_interference = maybe\n", "'true' or 'false'"),
        ("log_level = loud\n", "log_level must be one of"),
        ("epsilon = 0.1\nc_server = 5\n", "mutually exclusive"),
        # infinite model, phy and layout values
        ("k_prime = inf\n", "k_prime must be > 0 and finite, got inf"),
        ("zeta = inf\n", "zeta must be > 2 and finite, got inf"),
        ("nu_db = inf\n", "nu_db must be > 0 and finite, got inf"),
        # 10**(4000/10) overflows a float
        ("nu_db = 4000\n", "nu_db must be <= 3000, got 4000.0"),
        ("p0_w = inf\n", "p0 must be > 0 and finite, got inf"),
        ("noise_w = inf\n", "noise_w must be > 0 and finite, got inf"),
        (
            "pathloss_exponent = inf\n",
            "pathloss_exponent must be > 2 and finite, got inf",
        ),
        ("arena_km = inf\n", "arena_km must be > 0 and finite, got inf"),
    ]
    for body, pattern in cases:
        with pytest.raises(ConfigError) as exc:
            parse_config(write_cfg(tmp_path, body))
        assert pattern in str(exc.value), body


def test_explicit_budget_clears_epsilon(tmp_path):
    rc = parse_config(write_cfg(tmp_path, "c_server = 42.5\n"))
    assert rc.c_server == 42.5
    assert rc.epsilon is None
    # a fixed budget needs no calibration, so few trials are fine
    rc = parse_config(
        write_cfg(tmp_path, "c_server = 42.5\nn_trials = 512\n")
    )
    assert rc.n_trials == 512


def test_mapping_round_trips_through_the_grammar(tmp_path):
    rc = parse_config(
        write_cfg(
            tmp_path,
            SMALL + "epsilon = 0.025\nlambda_values = 0.5,2.25\n"
            "reference_lambda = 0.75\nlog_level = warning\n",
        )
    )
    back = parse_config(
        write_cfg(tmp_path, config_text(rc.mapping()), name="back.cfg")
    )
    assert back == rc
    # every emitted key is a recognized one
    assert set(rc.mapping()) <= set(DEFAULTS)


@pytest.mark.parametrize("budget", [
    {"epsilon": 0.05, "c_server": None},
    {"epsilon": None, "c_server": 42.5},
])
def test_build_campaign_carries_every_campaign_key(budget):
    # every campaign key is set away from its default (but for the unset one
    # of epsilon and c_server) and must reach the harness config as given
    values = dict(
        schedulers=("scc", "mrs"), n_trials=1234, seed=99,
        calibration_trials=1500, area_samples=20_000, workers=3,
        background_interference=True, **budget,
    )
    keys = dataclasses.fields(harness.CampaignKeys)
    assert sorted(values) == sorted(f.name for f in keys)
    for f in keys:
        assert values[f.name] is None or values[f.name] != f.default, f.name
    rc = RunConfig(n_bs=12, arena_km=8.0, n_centralized=3, **values)
    config = build_campaign(rc)
    for f in keys:
        assert getattr(config, f.name) == values[f.name], f.name
    assert config.model == rc.model and config.phy == rc.phy


def test_build_layout_and_table(tmp_path):
    rc = parse_config(write_cfg(tmp_path, SMALL))
    lay = build_layout(rc)
    assert lay.n_bs == 12 and lay.n_centralized == 3
    table = build_mcs_table(rc)
    assert table.n == 27

    ladder = tmp_path / "ladder.txt"
    ladder.write_text("0.5\n1.0\n")
    rc2 = parse_config(
        write_cfg(tmp_path, SMALL + f"mcs_file = {ladder}\n", name="m.cfg")
    )
    t2 = build_mcs_table(rc2)
    assert t2.n == 2 and t2.rates[0] == 0.5

    cfg = build_campaign(rc)
    assert cfg.n_trials == 2000 and cfg.seed == 7


def test_build_layout_missing_file(tmp_path):
    rc = parse_config(
        write_cfg(tmp_path, SMALL + "layout_file = /no/such/net.txt\n")
    )
    with pytest.raises(ConfigError, match="layout file not found"):
        build_layout(rc)


# ----------------------------------------------------------------- commands


def test_main_rejects_bad_config_value(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "s = 1.5\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "s must be in [0,1], got 1.5" in err


def test_main_reports_an_overflowing_value(tmp_path, capsys):
    # 0.01 km ** -200, a user's path loss at the distance clamp, overflows
    cfg = write_cfg(tmp_path, SMALL + "pathloss_exponent = 200\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "pathloss_exponent = 200.0" in err


def test_main_reports_an_overflowing_distance(tmp_path, capsys):
    # a user ~1e90 km from a BS overflows d ** (s * pathloss_exponent)
    body = SMALL.replace("arena_km = 8.0", "arena_km = 1e90")
    cfg = write_cfg(tmp_path, body + "s = 1.0\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "pathloss_exponent = 3.7 with s = 1.0" in err
    # no distance exceeds the arena diagonal, 1.4e90 km
    assert re.search(r"to \d\.\d+e\+(89|90) km from a base station", err)


def test_main_rejects_an_arena_too_large_to_square(tmp_path, capsys):
    # 1e200 km squared overflows a float, which would leave every cell's
    # point pool empty; 1e150 km runs, every user too far to get a rate
    for arena_km, code in ("1e200", 2), ("1e150", 0):
        body = SMALL.replace("arena_km = 8.0", f"arena_km = {arena_km}")
        out = tmp_path / arena_km
        cfg = write_cfg(tmp_path, body)
        assert main(["run", "--config", cfg, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "error: arena extent 1e+200 x 1e+200 km is too large" in err
    rates = [
        float(row.split(",")[1])
        for row in (out / "summary.csv").read_text().splitlines()[1:]
    ]
    assert rates == [0.0] * 4


def test_run_at_fixed_budget_skips_the_calibration_floor(tmp_path):
    # a fixed c_server draws no calibration trials, so their floor is moot
    body = SMALL.replace("calibration_trials = 1000",
                         "calibration_trials = 10")
    cfg = write_cfg(tmp_path, body + "c_server = 5\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_main_rejects_missing_config(tmp_path, capsys):
    code = main(
        ["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_main_rejects_a_non_finite_rate(tmp_path, capsys):
    # NaN passes both the positivity and the ordering checks of a ladder
    ladder = tmp_path / "ladder.txt"
    ladder.write_text("0.5\nnan\n1.0\n")
    cfg = write_cfg(tmp_path, SMALL + f"mcs_file = {ladder}\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rates must be finite" in err


def test_main_rejects_missing_layout_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL + "layout_file = /no/such/net.txt\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "layout file not found" in capsys.readouterr().err


def test_main_rejects_missing_mcs_file(tmp_path, capsys):
    ladder = tmp_path / "ladder.txt"
    cfg = write_cfg(tmp_path, SMALL + f"mcs_file = {ladder}\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: mcs file not found: {ladder}\n"


def test_main_rejects_an_infinite_budget(tmp_path, capsys):
    # it would run, and its manifest would hold "c_server": Infinity, which
    # strict JSON parsers reject; nothing is written
    cfg = write_cfg(tmp_path, SMALL + "c_server = inf\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "c_server must be >= 0 and finite, got inf" in err
    assert not out.exists()


def test_main_reports_a_dead_worker(tmp_path, capsys, monkeypatch):
    # a worker process that dies mid-chunk ends the run with an error line,
    # not a traceback
    monkeypatch.setattr(kernels, "run_chunk", lambda *args: os._exit(1))
    cfg = write_cfg(tmp_path, SMALL)
    code = main(
        ["run", "--config", cfg, "--out", str(tmp_path / "out"),
         "--workers", "2"]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: a worker process died")


def test_the_process_pool_is_imported_only_with_workers():
    # a single-worker run does not pay for importing the pool machinery
    code = (
        "import sys, cran_sched.cli; "
        "print(sorted(m for m in ('multiprocessing', "
        "'concurrent.futures.process') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_layout_gen_writes_loadable_layout(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "lay"
    assert main(["layout-gen", "--config", cfg, "--out", str(out)]) == 0
    lay = load_layout(out / "layout.txt")
    assert lay.n_bs == 12 and lay.n_centralized == 3
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["command"] == "layout-gen"
    assert doc["seed"] == 7
    assert capsys.readouterr().out == ""  # quiet without --stdout


def test_run_from_a_generated_layout_file_is_the_same_run(tmp_path):
    # layout.txt holds each position as its repr, so a run that loads it
    # is the run of the layout it was generated from, byte for byte
    cfg = write_cfg(tmp_path, SMALL)
    lay, made, loaded = (tmp_path / d for d in ("lay", "made", "loaded"))
    assert main(["layout-gen", "--config", cfg, "--out", str(lay)]) == 0
    assert main(["run", "--config", cfg, "--out", str(made)]) == 0
    body = SMALL + f"layout_file = {lay / 'layout.txt'}\n"
    cfg = write_cfg(tmp_path, body, name="from_file.cfg")
    assert main(["run", "--config", cfg, "--out", str(loaded)]) == 0
    assert (loaded / "per_trial.csv").read_bytes() == (
        made / "per_trial.csv"
    ).read_bytes()


def test_calibrate_prints_budget_only_with_stdout_flag(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    out1 = tmp_path / "cal1"
    assert main(["calibrate", "--config", cfg, "--out", str(out1)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads((out1 / "manifest.json").read_text())
    budget = doc["c_server"]
    assert budget > 0.0

    out2 = tmp_path / "cal2"
    code = main(
        ["calibrate", "--config", cfg, "--out", str(out2), "--stdout"]
    )
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) == budget


def test_run_writes_all_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    names = sorted(os.listdir(out))
    assert "per_trial.csv" in names
    assert "summary.csv" in names
    assert "manifest.json" in names
    for sched in ("mrs", "swf", "scc", "unconstrained"):
        for metric in ("sum_rate", "sum_complexity"):
            assert f"cdf_{sched}_{metric}.csv" in names

    header, *rows = (out / "per_trial.csv").read_text().splitlines()
    assert header == "trial,scheduler,sum_rate,sum_complexity,outage,n_active"
    assert len(rows) == 2000 * 4

    summary = (out / "summary.csv").read_text()
    assert summary.startswith("scheduler,mean_sum_rate,outage_rate,c_server")
    assert capsys.readouterr().out == ""

    # --stdout echoes the summary verbatim
    out2 = tmp_path / "out2"
    assert main(["run", "--config", cfg, "--out", str(out2), "--stdout"]) == 0
    assert capsys.readouterr().out == summary

    doc = json.loads((out / "manifest.json").read_text())
    assert doc["command"] == "run"
    assert doc["c_server"] > 0.0
    assert doc["backend"] == "numpy"


def test_run_is_reproducible_byte_for_byte(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "per_trial.csv").read_bytes() == (
        out2 / "per_trial.csv"
    ).read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (
        out2 / "summary.csv"
    ).read_bytes()


def test_seed_override_changes_run(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    base, moved = tmp_path / "base", tmp_path / "moved"
    assert main(["run", "--config", cfg, "--out", str(base)]) == 0
    assert main(
        ["run", "--config", cfg, "--out", str(moved), "--seed", "99"]
    ) == 0
    assert json.loads((moved / "manifest.json").read_text())["seed"] == 99
    assert (base / "per_trial.csv").read_bytes() != (
        moved / "per_trial.csv"
    ).read_bytes()
    with pytest.raises(SystemExit):
        main(["run", "--config", cfg])  # --out is required


def test_workers_override_preserves_results(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    solo, pooled = tmp_path / "solo", tmp_path / "pooled"
    assert main(["run", "--config", cfg, "--out", str(solo)]) == 0
    assert main(
        ["run", "--config", cfg, "--out", str(pooled), "--workers", "2"]
    ) == 0
    assert (solo / "per_trial.csv").read_bytes() == (
        pooled / "per_trial.csv"
    ).read_bytes()


def test_manifest_config_reproduces_the_run(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "first"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    replay_cfg = write_cfg(
        tmp_path, config_text(doc["config"]), name="replay.cfg"
    )
    assert parse_config(replay_cfg) == parse_config(cfg)
    replay_out = tmp_path / "replay"
    assert main(["run", "--config", replay_cfg, "--out", str(replay_out)]) == 0
    assert (out / "per_trial.csv").read_bytes() == (
        replay_out / "per_trial.csv"
    ).read_bytes()


def test_sweep_nc_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL + "nc_values = 1,2\n")
    out = tmp_path / "sweep"
    assert main(
        ["sweep-nc", "--config", cfg, "--out", str(out), "--stdout"]
    ) == 0
    body = (out / "sweep_nc.csv").read_text()
    assert body.splitlines()[0] == (
        "nc,scheduler,mean_sum_rate,outage_rate,c_server"
    )
    assert capsys.readouterr().out == body
    for sub in ("nc_01", "nc_02"):
        assert (out / sub / "summary.csv").exists()
        assert (out / sub / "cdf_mrs_sum_rate.csv").exists()


def test_sweep_lambda_command(tmp_path):
    cfg = write_cfg(tmp_path, SMALL + "lambda_values = 0.5,1.0\n")
    out = tmp_path / "sweep"
    assert main(["sweep-lambda", "--config", cfg, "--out", str(out)]) == 0
    body = (out / "sweep_lambda.csv").read_text()
    assert body.splitlines()[0] == (
        "lambda,scheduler,mean_sum_rate,outage_rate,c_server"
    )
    # one fixed budget across the sweep
    budgets = {line.rsplit(",", 1)[1] for line in body.splitlines()[1:]}
    assert len(budgets) == 1
    assert (out / "lambda_0.5" / "summary.csv").exists()
    assert (out / "lambda_1.0" / "summary.csv").exists()


@pytest.mark.parametrize(
    "command, extra, dirs",
    [
        ("sweep-nc", "nc_values = 1,2,3\n", ["nc_01", "nc_02", "nc_03"]),
        (
            "sweep-lambda", "lambda_values = 0.5,1.0,2.0\n",
            ["lambda_0.5", "lambda_1.0", "lambda_2.0"],
        ),
    ],
    ids=["sweep-nc", "sweep-lambda"],
)
def test_sweeps_write_and_drop_each_point_before_the_next(
    command, extra, dirs, tmp_path, monkeypatch
):
    # a sweep's memory is one point's: when a campaign starts, every earlier
    # point's files are written and its result is garbage
    cfg = write_cfg(tmp_path, SMALL + extra)
    out = tmp_path / "out"
    real_run = harness.run_campaign
    results, seen = [], []

    def tracked_run(*args, **kwargs):
        gc.collect()
        seen.append((
            [ref() is None for ref in results],
            sorted(d for d in dirs if (out / d / "summary.csv").exists()),
        ))
        result = real_run(*args, **kwargs)
        results.append(weakref.ref(result))
        return result

    monkeypatch.setattr(harness, "run_campaign", tracked_run)
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert seen == [([True] * k, dirs[:k]) for k in range(len(dirs))]


RUN_FILES = [
    "per_trial.csv", "summary.csv",
    *(f"cdf_{s}_{m}.csv" for s in ("mrs", "swf", "scc", "unconstrained")
      for m in ("sum_rate", "sum_complexity")),
]


def point_files(label):
    return [
        os.path.join(label, name) for name in RUN_FILES
        if name != "per_trial.csv"
    ]


@pytest.mark.parametrize(
    "command, extra, data",
    [
        ("run", "", RUN_FILES),
        (
            "sweep-lambda", "lambda_values = 0.5,1.0\n",
            [*point_files("lambda_0.5"), *point_files("lambda_1.0"),
             "sweep_lambda.csv"],
        ),
        (
            "sweep-nc", "nc_values = 1,2\n",
            [*point_files("nc_01"), *point_files("nc_02"), "sweep_nc.csv"],
        ),
        ("calibrate", "", []),
        ("layout-gen", "", ["layout.txt"]),
    ],
    ids=["run", "sweep-lambda", "sweep-nc", "calibrate", "layout-gen"],
)
def test_manifest_is_the_last_file_written(
    command, extra, data, tmp_path, monkeypatch
):
    # a manifest marks a complete output directory; each command writes its
    # data files, calibrate none, and then the one manifest
    cfg = write_cfg(tmp_path, SMALL + extra)
    out = tmp_path / "out"
    opened, replaced = [], []
    real_open, real_replace = open, os.replace

    def recording_open(file, mode="r", *args, **kwargs):
        if any(c in mode for c in "wax+") and str(file).startswith(str(out)):
            opened.append(os.path.relpath(file, out))
        return real_open(file, mode, *args, **kwargs)

    def recording_replace(src, dst, *args, **kwargs):
        replaced.append(os.path.relpath(dst, out))
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    monkeypatch.setattr(os, "replace", recording_replace)
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    monkeypatch.undo()
    assert sorted(replaced[:-1]) == sorted(data)
    assert opened == [name + ".tmp" for name in replaced]
    assert replaced[-1] == "manifest.json"
    assert replaced.count("manifest.json") == 1


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "cran_sched", "run",
            "--config", str(tmp_path / "missing.cfg"),
            "--out", str(tmp_path / "out"),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr
