"""Acceptance gate: ten end-to-end criteria for the release build.

Each criterion prints one PASS/FAIL line (collected into the terminal
summary by conftest) and then asserts, so a red line always comes with a
red test.  Criteria 1-6 run the full-scale reference campaign: 129 base
stations drawn uniformly in a 30x30 km arena, 10 centralized cells,
100,000 evaluation trials, budget calibrated on an independent draw
stream of the same size.
"""

import itertools
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from cran_sched import (
    Arena,
    CampaignConfig,
    ModelParams,
    PhyParams,
    UserChannel,
    budget_from_samples,
    build_table,
    continuous_waterfill,
    db_to_linear,
    decode_complexity,
    default_table,
    gap,
    generate_layout,
    iteration_count,
    linearize,
    max_feasible_index,
    mrs,
    quadratic_complexity,
    required_water_level,
    run_campaign,
    scc,
    swf_discrete,
    sweep_lambda,
    sweep_nc,
)
from cran_sched import batch
from cran_sched.cli import main as cli_main

EPS_GRID = (0.1, 0.01, 0.001)
N_TRIALS = 100_000
PARAMS = ModelParams()


def record(ok: bool, num: int, name: str, detail: str, extra=()) -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {name}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    for item in extra:
        conftest.ACCEPTANCE_LINES.append(f"           {item}")
    print(line)
    for item in extra:
        print(f"    {item}")
    return ok


def reference_config(**overrides) -> CampaignConfig:
    fields = dict(
        layout=generate_layout(
            "uniform-random", 129, Arena(0.0, 0.0, 30.0, 30.0), 10, seed=1
        ),
        table=default_table(PARAMS),
        model=PARAMS,
        phy=PhyParams(),
        n_trials=N_TRIALS,
        epsilon=0.1,
        seed=12345,
        area_samples=100_000,
    )
    fields.update(overrides)
    return CampaignConfig(**fields)


@pytest.fixture(scope="module")
def campaigns():
    out = {}
    for eps in EPS_GRID:
        start = time.perf_counter()
        out[eps] = (run_campaign(reference_config(epsilon=eps)),
                    time.perf_counter() - start)
    return out


def test_criterion_01_budget_schedulers_never_go_dark(campaigns):
    counts = {}
    elapsed = 0.0
    for eps, (res, dt) in campaigns.items():
        elapsed += dt
        for name in ("swf", "scc"):
            counts[(name, eps)] = int(
                np.count_nonzero(res.series[name].outage)
            )
    ok = all(v == 0 for v in counts.values()) and elapsed < 300.0
    record(
        ok, 1, "swf/scc computational outage is exactly zero",
        f"outage counts {sorted(counts.values())} over "
        f"3x{N_TRIALS} trials, campaigns took {elapsed:.1f}s (< 300s)",
    )
    assert all(v == 0 for v in counts.values())
    assert elapsed < 300.0


def test_criterion_02_mrs_outage_matches_target(campaigns):
    details = []
    ok = True
    for eps in (0.1, 0.01):
        res, _ = campaigns[eps]
        sigma3 = 3.0 * math.sqrt(eps * (1.0 - eps) / N_TRIALS)
        got = res.outage_rate("mrs")
        hit = abs(got - eps) <= sigma3
        ok &= hit
        details.append(f"eps={eps}: measured {got:.5f} (3-sigma {sigma3:.5f})")
    record(ok, 2, "max-rate outage tracks calibration target",
           "; ".join(details))
    for eps in (0.1, 0.01):
        res, _ = campaigns[eps]
        sigma3 = 3.0 * math.sqrt(eps * (1.0 - eps) / N_TRIALS)
        assert abs(res.outage_rate("mrs") - eps) <= sigma3


def _held_out_rate_law(res, eps: float) -> list[tuple[float, float]]:
    """Test ``mean(mrs) ~ (1 - eps*rho) * mean(unconstrained)`` out of sample.

    ``rho`` is the mean unconstrained sum-rate of the over-budget trials
    relative to the overall mean.  Over-budget is read from the
    unconstrained costs, not from the mrs outage flags, so a fault in the
    mrs scoring cannot leak into the reference.  ``rho`` is fitted on one
    half of the trials and the law is tested on the other half, in both
    directions; returns ``(deviation, fitted rho)`` per direction.
    """
    unc = res.series["unconstrained"]
    over = unc.sum_complexity > res.c_server
    mrs_rate = res.series["mrs"].sum_rate
    half = res.n_trials // 2
    first, second = slice(0, half), slice(half, res.n_trials)
    out = []
    for fit, test in ((first, second), (second, first)):
        rate = unc.sum_rate[fit]
        rho = float(rate[over[fit]].mean() / rate.mean())
        predicted = (1.0 - eps * rho) * unc.sum_rate[test].mean()
        out.append((float(mrs_rate[test].mean() / predicted - 1.0), rho))
    return out


def test_criterion_03_mrs_mean_rate_scales_linearly(campaigns):
    laws = {
        eps: _held_out_rate_law(campaigns[eps][0], eps) for eps in EPS_GRID
    }
    details = []
    extra = []
    for eps, law in laws.items():
        res, _ = campaigns[eps]
        unc_mean = res.series["unconstrained"].sum_rate.mean()
        naive = res.mean_sum_rate("mrs") / ((1.0 - eps) * unc_mean) - 1.0
        details.append(
            f"eps={eps}: held-out deviation "
            + "/".join(f"{d * 100:+.2f}%" for d, _ in law)
        )
        extra.append(
            f"eps={eps}: over-budget mean rate is "
            + "/".join(f"{rho:.2f}" for _, rho in law)
            + "x the overall mean; (1-eps) reference deviation "
            f"{naive * 100:+.2f}%"
        )
    extra.append(
        "cost rises with rate, so the zeroed trials carry more than the "
        "average rate (rho > 1) and the loss slope is eps*rho, not eps"
    )
    ok = all(abs(d) <= 0.02 and rho > 1.0
             for law in laws.values() for d, rho in law)
    record(ok, 3,
           "max-rate mean sum-rate ~ (1-eps*rho) x unconstrained, "
           "rho held out (2%)",
           "; ".join(details), extra)
    for eps, law in laws.items():
        for deviation, rho in law:
            assert rho > 1.0, f"eps={eps}: rho {rho:.4f}"
            assert abs(deviation) <= 0.02, f"eps={eps}: {deviation:+.4f}"


def test_criterion_04_budget_schedulers_lose_little_rate(campaigns):
    bounds = {0.1: 0.02, 0.001: 0.005}
    details = []
    ok = True
    for eps, bound in bounds.items():
        res, _ = campaigns[eps]
        for name in ("swf", "scc"):
            loss = res.relative_loss(name)
            ok &= loss <= bound
            details.append(f"{name}@eps={eps}: {loss * 100:.3f}%")
    record(
        ok, 4, "swf/scc mean sum-rate close to unconstrained",
        "; ".join(details),
        ["full-scale reference deployment figures for comparison: "
         "~0.28% at eps=0.1 and ~0.07% at eps=0.001"],
    )
    for eps, bound in bounds.items():
        res, _ = campaigns[eps]
        assert res.relative_loss("swf") <= bound
        assert res.relative_loss("scc") <= bound


def test_criterion_05_swf_and_scc_stay_marginally_apart():
    pts = list(sweep_nc(reference_config(epsilon=0.1), [2, 4, 6, 8, 10]))
    assert len(pts) == 5
    gaps = []
    for pt in pts:
        res = pt.result
        unc = res.mean_sum_rate("unconstrained")
        gaps.append(
            abs(res.mean_sum_rate("swf") - res.mean_sum_rate("scc")) / unc
        )
    worst = max(gaps)
    ok = worst <= 0.01
    record(
        ok, 5, "swf vs scc gap across the cell-count sweep",
        f"worst |swf-scc|/unconstrained = {worst * 100:.4f}% "
        f"over n_c in {{2,4,6,8,10}} (bound 1%)",
    )
    assert worst <= 0.01


def test_criterion_06_density_sweep_shape():
    cfg = reference_config(epsilon=0.1)
    pts = list(sweep_lambda(cfg, [0.5, 1.0, 2.0, 4.0]))
    assert len(pts) == 4
    mrs_out = [pt.result.outage_rate("mrs") for pt in pts]
    swf_out = [pt.result.outage_rate("swf") for pt in pts]
    scc_out = [pt.result.outage_rate("scc") for pt in pts]
    swf_mean = [pt.result.mean_sum_rate("swf") for pt in pts]
    scc_mean = [pt.result.mean_sum_rate("scc") for pt in pts]

    monotone_out = all(
        b >= a - 1e-12 for a, b in zip(mrs_out, mrs_out[1:])
    )
    exceeds = mrs_out[-1] > cfg.epsilon
    zero_out = not any(swf_out) and not any(scc_out)
    monotone_rate = all(
        b >= a - 1e-9 for a, b in zip(swf_mean, swf_mean[1:])
    ) and all(b >= a - 1e-9 for a, b in zip(scc_mean, scc_mean[1:]))
    ok = monotone_out and exceeds and zero_out and monotone_rate
    record(
        ok, 6, "user-density sweep under the budget fixed at lambda=0.5",
        f"max-rate outage {['%.4f' % v for v in mrs_out]} non-decreasing and "
        f"above eps at lambda=4; swf/scc outage all zero; swf mean "
        f"{['%.3f' % v for v in swf_mean]} non-decreasing",
    )
    assert monotone_out and exceeds and zero_out and monotone_rate


def test_criterion_07_continuous_solutions_satisfy_kkt():
    rng = np.random.default_rng(4242)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        sinr = rng.uniform(0.5, 100.0, size=n)
        users = [UserChannel(k, float(g)) for k, g in enumerate(sinr)]
        caps = np.log2(1.0 + sinr) - 0.01
        r0 = caps * rng.uniform(0.3, 1.0, size=n)
        coeffs = [
            linearize(PARAMS, float(g), float(r)) for g, r in zip(sinr, r0)
        ]
        alpha = np.array([c.quad_alpha for c in coeffs])
        beta = np.array([c.quad_beta for c in coeffs])
        cap_spend = float(np.sum(alpha * caps**2 + beta * caps))
        budget = float(rng.uniform(0.05, 0.95)) * max(cap_spend, 1e-9)
        sol = continuous_waterfill(users, coeffs, budget, caps)

        # primal feasibility / slackness
        assert np.all(sol.rates >= -1e-9)
        assert np.all(sol.rates <= caps + 1e-9)
        assert sol.sum_complexity <= budget * (1.0 + 1e-6) + 1e-12

        # stationarity at the common water level, and budget tightness
        level = sol.water_level
        marginal = 2.0 * alpha * sol.rates + beta
        interior = False
        for k, r in enumerate(sol.rates):
            if r <= 1e-9:
                assert beta[k] >= level - 1e-6
            elif r >= caps[k] - 1e-9:
                assert marginal[k] <= level + 1e-6
            else:
                interior = True
                assert abs(marginal[k] - level) <= 1e-6 * max(1.0, level)
        if interior:
            assert abs(sol.sum_complexity - budget) <= 1e-6 * budget
        checked += 1
    record(True, 7, "continuous water-filling satisfies its optimality "
           "conditions", f"{checked}/1000 randomized instances clean")
    assert checked == 1000


def test_criterion_08_greedy_schedulers_near_exhaustive_optimum():
    rates5 = [0.5, 1.0, 1.5, 2.0, 2.5]
    t5 = build_table(rates5, nu=db_to_linear(0.2))
    rng = np.random.default_rng(808)
    n_inst = 1000
    ratios = {"swf": [], "scc": []}
    feasible = True
    for _ in range(n_inst):
        n = int(rng.integers(1, 5))
        users = [
            UserChannel(k, float(g))
            for k, g in enumerate(rng.uniform(0.3, 40.0, size=n))
        ]
        unc = mrs(users, t5, PARAMS)
        budget = float(rng.uniform(0.05, 1.0)) * max(unc.sum_complexity, 1e-6)

        # exhaustive search over per-user precomputed level costs
        options = []
        for u in users:
            mi = max_feasible_index(t5, u.sinr)
            opts = [(0.0, 0.0)]
            for i in range(0 if mi is None else mi + 1):
                opts.append(
                    (rates5[i], decode_complexity(PARAMS, u.sinr, rates5[i]))
                )
            options.append(opts)
        best = 0.0
        for combo in itertools.product(*options):
            c_tot = sum(c for _, c in combo)
            if c_tot <= budget:
                r_tot = sum(r for r, _ in combo)
                if r_tot > best:
                    best = r_tot

        for name, fn in (("swf", swf_discrete), ("scc", scc)):
            a = fn(users, t5, PARAMS, budget)
            feasible &= a.sum_complexity <= budget
            assert a.sum_rate <= best + 1e-9
            ratios[name].append(1.0 if best == 0.0 else a.sum_rate / best)

    edges = [0.0, 0.5, 0.8, 0.9, 0.95, 1.0 - 1e-9, np.inf]
    labels = ["<0.50", "0.50-0.80", "0.80-0.90", "0.90-0.95",
              "0.95-1.00", "=1.00"]
    hist_lines = []
    shares = {}
    for name in ("swf", "scc"):
        arr = np.asarray(ratios[name])
        counts = np.histogram(arr, bins=edges)[0]
        shares[name] = float(np.mean(arr >= 0.9))
        hist_lines.append(
            f"{name} ratio histogram: "
            + ", ".join(f"{l}: {c}" for l, c in zip(labels, counts))
        )
    ok = feasible and all(s >= 0.95 for s in shares.values())
    record(
        ok, 8, "greedy allocations vs exhaustive search (<=4 users)",
        f"always feasible: {feasible}; >=90% of optimum on "
        f"swf {shares['swf'] * 100:.1f}% / scc {shares['scc'] * 100:.1f}% "
        f"of {n_inst} instances (need >=95%)",
        hist_lines,
    )
    assert feasible
    assert shares["swf"] >= 0.95 and shares["scc"] >= 0.95


def _implementation_values():
    co1 = linearize(PARAMS, 3.0, 1.0)
    co2 = linearize(PARAMS, 3.0, 0.5)
    c31 = decode_complexity(PARAMS, 3.0, 1.0)
    c0, ilz = PARAMS.kernel_constants()
    raw15 = 1.0 * ilz * (c0 - 2.0 * math.log2(gap(15.0, 1.0)))
    sol = continuous_waterfill([UserChannel(0, 3.0)], [co1], c31, [2.0])

    nu = db_to_linear(0.2)
    t2 = build_table([0.5, 1.0], nu=nu)
    users = [UserChannel(0, 3.0), UserChannel(1, 1.0)]
    cu2 = decode_complexity(PARAMS, 1.0, 0.5)
    lu2 = linearize(PARAMS, 1.0, 0.5)
    a_swf = swf_discrete(users, t2, PARAMS, 1.0)
    a_scc = scc(users, t2, PARAMS, 1.0)
    assert [e.rate for e in a_swf.entries] == [1.0, 0.0]
    assert a_swf.sum_rate == 1.0
    assert a_scc.sum_complexity == a_swf.sum_complexity

    phy = PhyParams()
    # one user alone in its cell at 1 km and one at 2 km, unit fading
    single_link = batch.sinr_from_distances(
        np.ones((2, 1), dtype=bool), np.array([[1.0], [2.0]]),
        np.array([[[1.0]], [[2.0]]]), np.ones((2, 1, 1)), 1,
        phy.p0, phy.noise_w, phy.pathloss_exponent, phy.s,
    )
    sec = {
        "complexity model": {
            "k_factor(0.2, 0.1)": PARAMS.k_eps,
            "k_factor(0.2, 0.01)": ModelParams(eps_channel=0.01).k_eps,
            "complexity(sinr=3, r=1)": c31,
            "complexity(sinr=15, r=3)": decode_complexity(PARAMS, 15.0, 3.0),
            "raw_complexity(sinr=15, r=1)  (negative, clamps to 0)": raw15,
            "complexity(sinr=15, r=1)": decode_complexity(PARAMS, 15.0, 1.0),
            "iterations_per_bit(sinr=3, r=1) = raw/r": iteration_count(
                PARAMS, 3.0, 1.0
            ),
        },
        "linearization at (sinr=3, r0=1)": {
            "a": co1.a,
            "b": co1.b,
            "quad_alpha": co1.quad_alpha,
            "quad_beta": co1.quad_beta,
            "quad(r=1)  (== complexity(3,1) exactly)": quadratic_complexity(
                co1, 1.0
            ),
            "quad(r=0.5)": quadratic_complexity(co1, 0.5),
        },
        "linearization at (sinr=3, r0=0.5), gap=1.5": {
            "a": co2.a,
            "b": co2.b,
            "quad_alpha": co2.quad_alpha,
            "quad_beta": co2.quad_beta,
            "quad(r=0.5)  (== complexity(3,0.5) exactly)":
                quadratic_complexity(co2, 0.5),
            "complexity(sinr=3, r=0.5) direct": decode_complexity(
                PARAMS, 3.0, 0.5
            ),
        },
        "required water level": {
            "wl(coeffs@(3,1), c=complexity(3,1))": required_water_level(
                co1, c31
            ),
            "(identity check: 2*alpha + beta)":
                2.0 * co1.quad_alpha + co1.quad_beta,
            "wl(coeffs@(3,0.5), c=quad@0.5)": required_water_level(
                co2, quadratic_complexity(co2, 0.5)
            ),
        },
        "one-user continuous water-filling": {
            "r*": float(sol.rates[0]),
            "1/eta = 2*alpha*r* + beta": sol.water_level,
        },
        "mcs thresholds, nu = 0.2 dB": {
            "nu (linear)": nu,
            "threshold(r=0.5)": float(t2.thresholds[0]),
            "threshold(r=1.0)": float(t2.thresholds[1]),
        },
        "two-user greedy trace (rates {0.5, 1.0}, budget 1.0)": {
            "C(user1: sinr=3, r=1)": c31,
            "C(user2: sinr=1, r=0.5)": cu2,
            "initial sum": c31 + cu2,
            "water level user1": required_water_level(co1, c31),
            "water level user2": required_water_level(lu2, cu2),
            "re-add total (rejected, > 1.0)": c31 + cu2,
            "final: r = (1.0, 0.0), sum_rate = 1.0, sum_complexity":
                a_swf.sum_complexity,
        },
        "uplink sinr compositions": {
            "sinr(d=1, h=1)": float(single_link[0, 0]),
            "sinr(d=2, h=1)": float(single_link[1, 0]),
        },
        "budget quantile rule": {
            "quantile({1..10}, 0.10)": budget_from_samples(range(1, 11), 0.10),
            "quantile({1..10}, 0.25)": budget_from_samples(range(1, 11), 0.25),
            "quantile({5,5,5}, 0.10)": budget_from_samples(
                [5.0, 5.0, 5.0], 0.10
            ),
        },
    }
    return {
        f"{section} :: {key}": value
        for section, group in sec.items()
        for key, value in group.items()
    }


def test_criterion_09_matches_independent_reference_script():
    script = Path(__file__).resolve().parents[1] / "tools" / "oracles.py"
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    section = ""
    oracle = {}
    for line in proc.stdout.splitlines():
        stripped = line.strip()
        if stripped.startswith("=="):
            section = stripped.strip("= ").strip()
            continue
        if " = " not in line:
            continue
        name, _, value = line.rpartition(" = ")
        try:
            oracle[f"{section} :: {name.strip()}"] = float(value)
        except ValueError:
            continue

    impl = _implementation_values()
    missing = sorted(set(impl) - set(oracle))
    assert missing == [], f"reference script no longer prints: {missing}"
    worst_key, worst_rel = None, 0.0
    for key, want in impl.items():
        got = oracle[key]
        rel = abs(want - got) / max(abs(got), 1e-30) if got else abs(want)
        if rel > worst_rel:
            worst_key, worst_rel = key, rel
        assert math.isclose(want, got, rel_tol=1e-6, abs_tol=1e-12), (
            f"{key}: implementation {want!r} vs reference {got!r}"
        )
    record(
        True, 9, "implementation matches the independent reference script",
        f"{len(impl)} values within 1e-6 relative "
        f"(worst {worst_rel:.1e} at '{worst_key}')",
    )


def test_criterion_10_cli_runs_are_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n_bs = 12\narena_km = 8.0\nn_centralized = 3\n"
        "n_trials = 2000\ncalibration_trials = 1000\n"
        "area_samples = 10000\nseed = 7\n"
    )
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "per_trial.csv").read_bytes())
    ok = outs[0] == outs[1]
    record(
        ok, 10, "repeated cli runs are byte-identical",
        f"per-trial csv digests equal over {2000 * 4} rows: {ok}",
    )
    assert ok
