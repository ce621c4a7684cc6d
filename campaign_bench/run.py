#!/usr/bin/env python3
"""Campaign benchmark: ``cran-sched run`` end to end, or layer by layer.

    python3 campaign_bench/run.py --workload reference --seed 1 --seconds 40 --trace 0

Closed loop, one campaign at a time, each in a fresh process
(``campaign.py``) with ``workers = 1``.  Campaigns of the workload's config,
all with ``--seed``, are started back to back while the next one is
expected to end within ``--seconds`` (at least ``MIN_CAMPAIGNS``).

``--trace 0`` reports the medians of the end-to-end metrics over the
campaigns.  ``--trace 1`` alternates untraced and traced campaigns and
reports the medians of the traced campaigns' per-layer metrics, plus the
tracing overhead: traced minus untraced median ``harness.evaluate_s``.

After the timed interval the outputs are checked (``checks.py``): every
campaign must have written the same ``per_trial.csv``, the last one is
checked trial by trial, and on calibrated workloads the mrs outage must
lie in the binomial band around epsilon.  The run report goes to
``.bench_out/BENCH_<workload>[_trace].json``; the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted`` counts evaluation trials over all campaigns and ``failed``
those that fail a check.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("reference", "interference", "tight-budget")
MIN_CAMPAIGNS = 3
# a run must end within 180 s; a campaign still running this long is hung
CAMPAIGN_TIMEOUT_S = 150.0

END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import_s": "s",
    "cli.config_s": "s",
    "netsim.geometry_s": "s",
    "netsim.cells_s": "s",
    "harness.calibrate_s": "s",
    "harness.evaluate_s": "s",
    "harness.emit_s": "s",
    "harness.per_trial_csv_s": "s",
    "harness.cdf_csv_s": "s",
    "harness.emit_mb": "MB",
    "kernels.run_chunk_ms": "ms/chunk",
    "kernels.draw_us": "us/trial",
    "kernels.sinr_us": "us/trial",
    "kernels.mrs_us": "us/trial",
    "kernels.swf_us": "us/trial",
    "kernels.scc_us": "us/trial",
    "kernels.active_users": "users/trial",
    "kernels.scc_steps": "steps/trial",
    "kernels.budget_bound_share": "share",
    "trace.overhead_s": "s",
}


def config_path(workload: str) -> str:
    return os.path.join(HERE, "configs", f"{workload}.cfg")


def run_campaign(workload, seed, out_dir, trace, deadline) -> dict:
    """One campaign in a fresh process; its report plus the output digest."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [
        sys.executable, os.path.join(HERE, "campaign.py"),
        "--config", config_path(workload), "--seed", str(seed),
        "--out", out_dir,
    ] + (["--trace"] if trace else [])
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, capture_output=True, text=True, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"campaign exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["wall_s"] = time.perf_counter() - start
    report["traced"] = trace
    with open(os.path.join(out_dir, "per_trial.csv"), "rb") as fh:
        report["digest"] = hashlib.sha256(fh.read()).hexdigest()
    return report


def campaign_inputs(workload: str, seed: int):
    """The workload's parsed config, its campaign and its instantiated
    cells, as the program builds them."""
    sys.path.insert(0, SRC)
    from cran_sched import cli, harness

    rc = dataclasses.replace(cli.parse_config(config_path(workload)),
                             seed=seed)
    config = cli.build_campaign(rc)
    cells = harness.campaign_cells(config, harness.campaign_geometry(config))
    return rc, config, cells


def recompute_evaluation(rc, config, cells, thresholds):
    """:func:`checks.recompute` of the campaign's evaluation trials."""
    from cran_sched import harness
    from cran_sched.netsim import MIN_DISTANCE_KM

    model = rc.model

    def cost(rate, cap):
        return checks.decode_cost(
            rate, cap, model.k_prime, model.zeta, model.eps_channel
        )

    return checks.recompute(
        rc.seed, harness.EVAL_STREAM, config.n_trials, harness.CHUNK_TRIALS,
        cells, config.phy, MIN_DISTANCE_KM, thresholds, config.table.rates,
        cost,
    )


def check_outputs(workload: str, seed: int, out_dir: str) -> dict:
    """Checks of one campaign's files; returns per-trial and run-level
    failures."""
    rc, config, cells = campaign_inputs(workload, seed)
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        c_server = json.load(fh)["c_server"]
    table = checks.read_per_trial(os.path.join(out_dir, "per_trial.csv"))
    failures = checks.property_failures(table, c_server)
    failures["recomputation"] = checks.recompute_failures(
        table,
        recompute_evaluation(
            rc, config, cells,
            checks.mcs_thresholds(config.table.rates, rc.nu_db),
        ),
    )

    run_level = {}
    n = len(table["n_active"])
    run_level["trial_count"] = n == config.n_trials
    if rc.epsilon is None:
        run_level["pinned_budget"] = c_server == rc.c_server
    else:
        n_cal = config.calibration_trials or config.n_trials
        lo, hi = checks.outage_band(rc.epsilon, n, n_cal)
        outage = float(table["mrs"]["outage"].mean())
        run_level["calibration_outage_in_band"] = lo <= outage <= hi
    return {
        "failed_trials": int(sum(failures.values()).astype(bool).sum()),
        "failures_by_check": {k: int(v.sum()) for k, v in failures.items()},
        "run_level": run_level,
        "c_server": c_server,
    }


def median_of(reports, name):
    return statistics.median(r[name] for r in reports)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "cran_sched", "__init__.py")):
        print(f"error: no cran_sched package under {SRC}", file=sys.stderr)
        return 2

    began = time.monotonic()
    deadline = began + CAMPAIGN_TIMEOUT_S
    tag = f"{args.workload}{'_trace' if args.trace else ''}"
    work_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    out_dir = os.path.join(work_dir, "campaign")
    # a traced run needs one untraced and one traced campaign
    min_campaigns = 2 if args.trace else MIN_CAMPAIGNS
    reports = []
    try:
        # whole campaigns only: start one while the longest so far would fit
        while len(reports) < min_campaigns or (
            time.monotonic() - began + max(r["wall_s"] for r in reports)
            <= args.seconds
        ):
            traced = bool(args.trace) and len(reports) % 2 == 1
            reports.append(
                run_campaign(args.workload, args.seed, out_dir, traced,
                             deadline)
            )
        result = check_outputs(args.workload, args.seed, out_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    digests = {r["digest"] for r in reports}
    run_level = dict(result["run_level"])
    run_level["same_per_trial_csv_every_campaign"] = len(digests) == 1
    traced = [r for r in reports if r["traced"]]
    untraced = [r for r in reports if not r["traced"]]
    if traced:
        run_level["replay_identical"] = all(
            r["replay_identical"] for r in traced
        )
    n_trials = reports[0]["evaluation_trials"]
    attempted = n_trials * len(reports)
    failed = result["failed_trials"] * len(reports)
    correct = failed == 0 and all(run_level.values())

    if args.trace:
        values = {
            name: median_of(traced, name)
            for name in PER_LAYER if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = (
            median_of(traced, "harness.evaluate_s")
            - median_of(untraced, "harness.evaluate_s")
        )
        units = PER_LAYER
    else:
        values = {name: median_of(reports, name) for name in END_TO_END}
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    first = reports[0]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run": first["run"],
        "calibration_trials": first["calibration_trials"],
        "evaluation_trials": n_trials,
        "campaigns": len(reports),
        "traced_campaigns": len(traced),
        "c_server": result["c_server"],
        "per_trial_csv_sha256": sorted(digests),
        "checks": {
            "run_level": run_level,
            "failures_by_check": result["failures_by_check"],
        },
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "campaign_reports": reports,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"BENCH_{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    run = first["run"]
    print(f"{args.workload}: backend {run['backend']}, "
          f"{len(reports)} campaigns ({len(traced)} traced), "
          f"{first['calibration_trials']}+{n_trials} trials each, "
          f"per_trial.csv sha256 {sorted(digests)[0][:16]}, checks "
          f"{'pass' if correct else 'FAIL'}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
