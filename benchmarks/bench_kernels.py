#!/usr/bin/env python3
"""Time the jitted trial kernels against the interpreted path.

The kernel path is fixed at import time by the CRAN_SCHED_NUMBA environment
variable, so each path runs in its own subprocess and reports one line:

    numba=1 trials=20000 best_s=0.41 digest=3f2a...

The driver launches both, checks the output digests agree bit for bit, and
prints the timing table with the speedup.  Each row is labelled by the
backend its worker reports; where numba does not import, both workers run
interpreted and no speedup is printed.  A small warm-up campaign runs
before the clock starts so compile time is kept out of the numbers.

    python3 benchmarks/bench_kernels.py            # compare both paths
    python3 benchmarks/bench_kernels.py --trials 50000 --repeat 5
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time


def build_config(trials: int):
    from cran_sched import (
        Arena, CampaignConfig, ModelParams, PhyParams, default_table,
        generate_layout,
    )

    params = ModelParams()
    return CampaignConfig(
        layout=generate_layout(
            "uniform-random", 64, Arena(0.0, 0.0, 16.0, 16.0), 6, seed=3
        ),
        table=default_table(params),
        model=params,
        phy=PhyParams(),
        n_trials=trials,
        epsilon=0.1,
        calibration_trials=max(1000, trials // 2),
        seed=11,
        area_samples=20_000,
    )


def campaign_digest(result) -> str:
    sha = hashlib.sha256()
    sha.update(result.n_active.tobytes())
    for name in result.schedulers:
        series = result.series[name]
        sha.update(series.sum_rate.tobytes())
        sha.update(series.sum_complexity.tobytes())
        sha.update(series.outage.tobytes())
    sha.update(repr(float(result.c_server)).encode())
    return sha.hexdigest()


def run_worker(trials: int, repeat: int) -> None:
    import dataclasses

    from cran_sched import run_campaign
    from cran_sched.kernels import NUMBA_ENABLED

    cfg = build_config(trials)
    # warm-up at a fraction of the size: compiles the jitted kernels (or
    # just primes caches on the interpreted path) outside the timed region
    run_campaign(dataclasses.replace(cfg, n_trials=2000,
                                     calibration_trials=1000))
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = run_campaign(cfg)
        best = min(best, time.perf_counter() - start)
    print(f"numba={int(NUMBA_ENABLED)} trials={trials} "
          f"best_s={best:.3f} digest={campaign_digest(result)}")


def run_driver(trials: int, repeat: int) -> int:
    rows = []
    for flag in ("1", "0"):
        env = dict(os.environ, CRAN_SCHED_NUMBA=flag)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--worker", "--trials", str(trials), "--repeat", str(repeat)],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        fields = dict(
            kv.split("=", 1) for kv in proc.stdout.split()
        )
        # label by the backend the worker reports, not by the flag it got
        label = "numba" if fields["numba"] == "1" else "interpreted"
        rows.append((label, fields))
        print(f"{label:12s} {float(fields['best_s']):8.3f} s "
              f"({trials} trials, best of {repeat}, "
              f"CRAN_SCHED_NUMBA={flag})")

    (top_label, top), (ref_label, ref) = rows
    if top["digest"] != ref["digest"]:
        print("DIGEST MISMATCH: the two paths disagree", file=sys.stderr)
        return 1
    if top_label == ref_label:
        print(f"numba absent: both runs {top_label}, no speed-up "
              f"(identical output digests)")
        return 0
    speedup = float(ref["best_s"]) / float(top["best_s"])
    print(f"{'speedup':12s} {speedup:8.1f} x   (identical output digests)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=20_000,
                    help="evaluation trials per campaign (default 20000)")
    ap.add_argument("--repeat", type=int, default=3,
                    help="timed repetitions, best one reported (default 3)")
    ap.add_argument("--worker", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        run_worker(args.trials, args.repeat)
        return 0
    return run_driver(args.trials, args.repeat)


if __name__ == "__main__":
    sys.exit(main())
