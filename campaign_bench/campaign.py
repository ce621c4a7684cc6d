#!/usr/bin/env python3
"""Run one ``cran-sched run`` campaign in this process, timed stage by stage.

The stages are the ones ``cran-sched run --config CFG --seed N`` goes
through: import, ``cli.parse_config`` + ``cli.build_campaign``,
``harness.campaign_geometry``, ``harness.calibrate_budget`` (skipped when the
config pins ``c_server``), ``harness.run_campaign`` with that budget, then
``per_trial.csv``, the CDF files, ``summary.csv`` and ``manifest.json``.
The clock starts before ``cran_sched`` (and so NumPy and SciPy) is imported.

With ``--trace`` the public calls the harness makes into ``netsim`` and
``kernels`` are wrapped for the duration of the campaign, and afterwards a
sample of evaluation trials is replayed through the public scalar kernels,
timed per kernel and compared bit for bit with the campaign's results.

Prints one JSON object as the last line of standard output:

    python3 campaign_bench/campaign.py --config campaign_bench/configs/reference.cfg \\
        --seed 1 --out .bench_out/c [--trace]
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# evaluation trials replayed through the public kernels in a traced campaign
REPLAY_TRIALS = 512


class _Timed:
    """Replace ``module.name`` with a wrapper that sums its call time."""

    def __init__(self, module, name):
        self.module, self.name = module, name
        self.seconds = 0.0
        self.calls = 0

    def __enter__(self):
        inner = self.original = getattr(self.module, self.name)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self.calls += 1

        setattr(self.module, self.name, wrapper)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.original)
        return False


def run(config_path, seed, out_dir, trace):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cran_sched
    from cran_sched import cli, harness, kernels

    t_import = time.perf_counter()
    rc = dataclasses.replace(cli.parse_config(config_path), seed=seed)
    config = cli.build_campaign(rc)
    t_config = time.perf_counter()

    with contextlib.ExitStack() as stack:
        if trace:
            cells = stack.enter_context(_Timed(harness, "campaign_cells"))
            chunks = stack.enter_context(_Timed(kernels, "run_chunk"))
        geometry = harness.campaign_geometry(config)
        t_geometry = time.perf_counter()
        if config.c_server is None:
            c_server = harness.calibrate_budget(config, geometry=geometry)
            calibration_trials = config.calibration_trials or config.n_trials
        else:
            c_server = config.c_server
            calibration_trials = 0
        t_calibrate = time.perf_counter()
        result = harness.run_campaign(config, geometry, c_server=c_server)
        t_evaluate = time.perf_counter()
        harness.write_per_trial_csv(
            result, os.path.join(out_dir, "per_trial.csv")
        )
        t_per_trial = time.perf_counter()
        harness.write_cdf_csvs(result, out_dir)
        t_cdf = time.perf_counter()
        harness.write_summary_csv(
            result, os.path.join(out_dir, "summary.csv")
        )
        harness.write_manifest(
            os.path.join(out_dir, "manifest.json"),
            command="run",
            config_mapping=rc.mapping(),
            seed=rc.seed,
            version=cran_sched.__version__,
            c_server=result.c_server,
        )
        t_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    trials = calibration_trials + config.n_trials
    report = {
        "total_s": t_end - _T0,
        "setup_s": t_geometry - _T0,
        "trials_per_s": trials / (t_evaluate - t_geometry),
        "peak_rss_mb": peak_rss_mb,
        "import_s": t_import - _T0,
        "cli.config_s": t_config - t_import,
        "netsim.geometry_s": t_geometry - t_config,
        "harness.calibrate_s": t_calibrate - t_geometry,
        "harness.evaluate_s": t_evaluate - t_calibrate,
        "harness.emit_s": t_end - t_evaluate,
        "harness.per_trial_csv_s": t_per_trial - t_evaluate,
        "harness.cdf_csv_s": t_cdf - t_per_trial,
        "calibration_trials": calibration_trials,
        "evaluation_trials": config.n_trials,
        "c_server": result.c_server,
        "run": _run_report(cran_sched, kernels),
    }
    if trace:
        unconstrained = result.series["unconstrained"]
        report.update({
            "netsim.cells_s": cells.seconds,
            "kernels.run_chunk_ms": 1e3 * chunks.seconds / chunks.calls,
            "harness.emit_mb": sum(
                os.path.getsize(os.path.join(out_dir, name))
                for name in os.listdir(out_dir)
            ) / 1e6,
            "kernels.active_users": float(result.n_active.mean()),
            "kernels.budget_bound_share": float(
                (unconstrained.sum_complexity > result.c_server).mean()
            ),
        })
        report.update(_replay(config, geometry, result, harness, kernels))
    return report


def _run_report(cran_sched, kernels):
    import numpy
    import scipy

    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = "absent"
    return {
        "backend": "numba" if kernels.NUMBA_ENABLED else "interpreted",
        "numba_enabled": bool(kernels.NUMBA_ENABLED),
        "versions": {
            "cran_sched": cran_sched.__version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": numba_version,
        },
        "nproc": os.cpu_count(),
    }


def _replay(config, geometry, result, harness, kernels):
    """Time the public per-trial kernels on the first evaluation trials.

    Mirrors the loop of ``kernels.run_chunk`` call for call, so the sums it
    returns must equal the campaign's, bit for bit.
    """
    import math

    import numpy as np

    from cran_sched.netsim import MIN_DISTANCE_KM

    cells = harness.campaign_cells(config, geometry)
    n_inst, nc = cells.n_inst, cells.nc
    rows = min(REPLAY_TRIALS, config.n_trials)
    u = np.random.default_rng(
        np.random.SeedSequence([config.seed, harness.EVAL_STREAM, 0])
    ).random((rows, cells.row_len))
    c0, ilz = config.model.kernel_constants()
    thr, rates = config.table.thresholds, config.table.rates
    phy = config.phy
    budget = result.c_server

    occ = np.empty(n_inst, np.bool_)
    pos = np.empty((n_inst, 2))
    d_serv = np.empty(n_inst)
    cross_d = np.empty((n_inst, nc))
    fading = np.empty((n_inst, nc))
    sinr = np.empty(nc)
    act_sinr = np.empty(nc)
    act_cap = np.empty(nc)
    idx = np.empty(nc, np.int64)
    comp = np.empty(nc)
    spent = dict.fromkeys(("draw", "sinr", "mrs", "swf", "scc"), 0.0)
    steps = 0
    identical = True
    clock = time.perf_counter
    series = result.series
    for t in range(rows):
        row = u[t]
        t0 = clock()
        n_active = kernels.draw_arrays(
            np.ascontiguousarray(row[:n_inst]),
            np.ascontiguousarray(row[n_inst: 2 * n_inst]),
            np.ascontiguousarray(row[2 * n_inst:]),
            cells.p_occ, cells.pool_xy, cells.pool_off, cells.bs_xy,
            MIN_DISTANCE_KM, nc, occ, pos, d_serv, cross_d, fading,
        )
        t1 = clock()
        kernels.sinr_trial(
            occ, d_serv, cross_d, fading,
            phy.p0, phy.noise_w, phy.pathloss_exponent, phy.s, nc, sinr,
        )
        t2 = clock()
        na = 0
        for k in range(nc):
            if occ[k]:
                act_sinr[na] = sinr[k]
                act_cap[na] = math.log2(1.0 + sinr[k])
                na += 1
        a_sinr, a_cap = act_sinr[:na], act_cap[:na]
        t3 = clock()
        mrs = kernels.mrs_trial(a_sinr, a_cap, thr, rates, c0, ilz, idx, comp)
        t4 = clock()
        max_idx = idx[:na].copy()
        t5 = clock()
        swf = kernels.swf_trial(
            a_sinr, a_cap, thr, rates, c0, ilz, budget, False, idx, comp
        )
        t6 = clock()
        scc = kernels.scc_trial(
            a_sinr, a_cap, thr, rates, c0, ilz, budget, idx, comp
        )
        t7 = clock()
        steps += int((max_idx - idx[:na]).sum())
        spent["draw"] += t1 - t0
        spent["sinr"] += t2 - t1
        spent["mrs"] += t4 - t3
        spent["swf"] += t6 - t5
        spent["scc"] += t7 - t6
        identical &= (
            n_active == result.n_active[t]
            and mrs == (series["unconstrained"].sum_rate[t],
                        series["unconstrained"].sum_complexity[t])
            and swf == (series["swf"].sum_rate[t],
                        series["swf"].sum_complexity[t])
            and scc == (series["scc"].sum_rate[t],
                        series["scc"].sum_complexity[t])
        )
    out = {f"kernels.{k}_us": 1e6 * v / rows for k, v in spent.items()}
    out["kernels.scc_steps"] = steps / rows
    out["replay_trials"] = rows
    out["replay_identical"] = bool(identical)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    print(json.dumps(run(args.config, args.seed, args.out, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
