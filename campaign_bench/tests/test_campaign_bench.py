"""Tests of the campaign benchmark itself.

    python3 -m pytest campaign_bench/tests -q

They show that the benchmark measures what ``cran-sched run`` does (same
``per_trial.csv``, byte for byte) and that its output checks catch planted
faults.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run as bench  # noqa: E402

SEED = 7
ENV = dict(os.environ, PYTHONPATH=SRC)


def bench_campaign(workload, out_dir):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "campaign.py"),
         "--config", bench.config_path(workload), "--seed", str(SEED),
         "--out", str(out_dir)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    report = bench_campaign("reference", out)
    rc, config, cells = bench.campaign_inputs("reference", SEED)
    table = checks.read_per_trial(out / "per_trial.csv")
    return report, rc, config, cells, table


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_benchmark_campaign_writes_what_the_cli_writes(workload, tmp_path):
    bench_campaign(workload, tmp_path / "bench")
    subprocess.run(
        [sys.executable, "-m", "cran_sched", "run",
         "--config", bench.config_path(workload),
         "--out", str(tmp_path / "cli"), "--seed", str(SEED)],
        env=ENV, capture_output=True, check=True, cwd=ROOT,
    )
    names = sorted(os.listdir(tmp_path / "cli"))
    assert names == sorted(os.listdir(tmp_path / "bench"))
    for name in names:
        assert (tmp_path / "bench" / name).read_bytes() == (
            tmp_path / "cli" / name
        ).read_bytes(), name


def test_checks_pass_on_a_real_campaign(reference):
    report, rc, config, cells, table = reference
    failures = checks.property_failures(table, report["c_server"])
    assert {k: int(v.sum()) for k, v in failures.items()} == dict.fromkeys(
        failures, 0
    )
    thresholds = checks.mcs_thresholds(config.table.rates, rc.nu_db)
    np.testing.assert_allclose(thresholds, config.table.thresholds,
                               rtol=1e-15)
    recomputed = bench.recompute_evaluation(rc, config, cells, thresholds)
    assert not checks.recompute_failures(table, recomputed).any()
    lo, hi = checks.outage_band(rc.epsilon, config.n_trials, config.n_trials)
    assert lo <= table["mrs"]["outage"].mean() <= hi


def test_planted_swf_row_just_above_budget_is_caught(reference):
    report, _, _, _, table = reference
    c_server = report["c_server"]
    planted = copy.deepcopy(table)
    t = int(np.argmax(planted["unconstrained"]["sum_complexity"] > c_server))
    planted["swf"]["sum_complexity"][t] = np.nextafter(c_server, np.inf)
    failures = checks.property_failures(planted, c_server)
    assert np.flatnonzero(failures["swf_within_budget"]).tolist() == [t]


def test_planted_outage_without_zeroed_rate_is_caught(reference):
    report, _, _, _, table = reference
    planted = copy.deepcopy(table)
    t = int(np.argmax(planted["mrs"]["outage"]))
    assert planted["mrs"]["outage"][t]
    planted["mrs"]["sum_rate"][t] = planted["unconstrained"]["sum_rate"][t]
    failures = checks.property_failures(planted, report["c_server"])
    assert np.flatnonzero(failures["mrs_rate_zeroed_on_outage"]).tolist() == [t]


def test_perturbed_threshold_in_the_recomputation_is_caught(reference):
    _, rc, config, cells, table = reference
    thresholds = checks.mcs_thresholds(config.table.rates, rc.nu_db)
    thresholds[13] *= 1.01
    failed = checks.recompute_failures(
        table, bench.recompute_evaluation(rc, config, cells, thresholds)
    )
    assert failed.sum() > 0


def test_outage_band_rejects_a_miscalibrated_budget():
    lo, hi = checks.outage_band(0.1, 4096, 4096)
    assert lo < 0.1 < hi
    assert not lo <= 0.2 <= hi and not lo <= 0.05 <= hi


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "campaign_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "campaign_bench/run.py", "--workload", "reference",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
