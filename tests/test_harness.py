"""Campaign orchestration tests: calibration, paired draws, files."""

import dataclasses
import gc
import json
import logging
import math
import os
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from cran_sched import (
    Arena,
    CampaignConfig,
    ModelParams,
    PhyParams,
    UserChannel,
    budget_from_samples,
    calibrate_budget,
    default_table,
    empirical_cdf,
    generate_layout,
    mrs,
    run_campaign,
    scc,
    sweep_lambda,
    sweep_nc,
    swf_discrete,
    write_cdf_csvs,
    write_manifest,
    write_per_trial_csv,
    write_summary_csv,
    write_sweep_csv,
)
from cran_sched import batch, cli, harness, kernels
from cran_sched.harness import SCHEDULERS

BENCH_CONFIGS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "campaign_bench", "configs",
)


def small_config(**overrides) -> CampaignConfig:
    params = ModelParams()
    fields = dict(
        layout=generate_layout(
            "uniform-random", 12, Arena(0.0, 0.0, 8.0, 8.0), 3, seed=7
        ),
        table=default_table(params),
        model=params,
        phy=PhyParams(),
        n_trials=6000,       # spans two trial chunks
        epsilon=0.1,
        calibration_trials=1000,
        seed=7,
        area_samples=10_000,
    )
    fields.update(overrides)
    return CampaignConfig(**fields)


@pytest.fixture(scope="module")
def campaign():
    cfg = small_config()
    return cfg, run_campaign(cfg)


# ------------------------------------------------------------- calibration


def test_budget_from_samples_reference_points():
    assert budget_from_samples(range(1, 11), 0.1) == 9.0
    assert budget_from_samples(range(1, 11), 0.25) == 8.0
    assert budget_from_samples([5.0, 5.0, 5.0], 0.1) == 5.0
    assert budget_from_samples([5.0, 5.0, 5.0], 0.7) == 5.0
    # eps * n within the 1e-9 slack of n: every sample may be exceeded
    assert budget_from_samples([3.0, 1.0, 2.0], 1.0 - 1e-12) == 1.0


def test_budget_from_samples_is_smallest_admissible():
    # the returned value admits a strictly-exceeding fraction <= eps, and the
    # next sample down does not
    rng = np.random.default_rng(17)
    for _ in range(50):
        xs = rng.exponential(10.0, size=int(rng.integers(10, 400)))
        eps = float(rng.uniform(0.01, 0.5))
        c = budget_from_samples(xs, eps)
        n = xs.size
        assert np.count_nonzero(xs > c) / n <= eps
        below = xs[xs < c]
        if below.size:
            c2 = below.max()
            assert np.count_nonzero(xs > c2) / n > eps


def test_budget_from_samples_epsilon_zero_warns_and_returns_max():
    with pytest.warns(UserWarning, match="out of sample"):
        assert budget_from_samples([3.0, 1.0, 2.0], 0.0) == 3.0


def test_budget_from_samples_validation():
    with pytest.raises(ValueError, match="at least one"):
        budget_from_samples([], 0.1)
    with pytest.raises(ValueError, match="epsilon"):
        budget_from_samples([1.0], 1.0)
    with pytest.raises(ValueError, match="epsilon"):
        budget_from_samples([1.0], -0.1)


def test_calibrate_budget_needs_epsilon():
    cfg = small_config(epsilon=None, c_server=50.0)
    with pytest.raises(ValueError, match="epsilon"):
        calibrate_budget(cfg)


def test_calibrate_budget_deterministic():
    cfg = small_config()
    assert calibrate_budget(cfg) == calibrate_budget(cfg)


def all_exact_costs(cfg):
    """Every calibration trial's max-rate sum cost from the exact campaign
    kernel, ``kernels.run_chunk``, as the evaluation computes its costs."""
    _n_active, out = harness._run_stream(
        cfg, harness.campaign_geometry(cfg), harness.CALIBRATION_STREAM,
        cfg.calibration_trials or cfg.n_trials, math.inf, [batch.mrs],
    )
    return out[:, 0, 1]


def trial_channels(cfg, cells, rows):
    """Each trial's occupancy and SINR, computed from its uniform row as
    the campaign computes them (``batch._channel`` on the campaign's
    position-term table); the SINR of an unoccupied cell is unspecified."""
    n = cells.n_inst
    return batch._channel(
        rows[:, :n], rows[:, n: 2 * n], rows[:, 2 * n:], cells.p_occ,
        cells.pool_off, cells.nc, cfg.phy.p0, cfg.phy.noise_w,
        harness._position_terms(cells, cfg.phy),
    )


def all_exact_budget(cfg):
    """The all-exact calibration: the quantile rule over every exact
    cost."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return budget_from_samples(all_exact_costs(cfg), cfg.epsilon)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["reference", "interference"])
def test_calibrate_budget_equals_the_all_exact_budget(workload, seed):
    # two chunks of calibration trials, so that two workers share them
    rc = cli.parse_config(os.path.join(BENCH_CONFIGS, f"{workload}.cfg"))
    base = dataclasses.replace(
        cli.build_campaign(dataclasses.replace(rc, seed=seed)),
        calibration_trials=harness.CHUNK_TRIALS + 1000,
    )
    geometry = harness.campaign_geometry(base)
    costs = all_exact_costs(base)
    for eps in (0.1, 0.01, 0.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = budget_from_samples(costs, eps)
        for workers in (1, 2):
            cfg = dataclasses.replace(base, epsilon=eps, workers=workers)
            if eps == 0.0:
                with pytest.warns(UserWarning) as record:
                    got = calibrate_budget(cfg, geometry)
                # once per call, and attributed to the caller
                [w] = [w for w in record if "out of sample" in str(w.message)]
                assert w.filename == __file__
            else:
                got = calibrate_budget(cfg, geometry)
            assert got == expected, (eps, workers)


def test_trial_with_a_sinr_on_a_threshold_is_recomputed():
    # move a ladder threshold exactly onto an active user's exact SINR: the
    # calibration must put that user on the threshold's rung, as the scalar
    # kernels do, and the budget must be the all-exact one
    cfg = small_config()
    cells = harness.campaign_cells(cfg, harness.campaign_geometry(cfg))
    rows = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, harness.CALIBRATION_STREAM, 0])
    ).random((50, cells.row_len))
    thresholds = cfg.table.thresholds.copy()
    occupied, sinrs = trial_channels(cfg, cells, rows)
    for t, (occ, sinr) in enumerate(zip(occupied, sinrs)):
        on = [
            k for k in range(cells.nc) if occ[k] and sinr[k] >= thresholds[0]
        ]
        if on:
            break
    p = int(np.searchsorted(thresholds, sinr[on[0]], "right")) - 1
    thresholds[p] = sinr[on[0]]
    assert (np.diff(thresholds) > 0).all()
    cfg = dataclasses.replace(
        cfg, table=dataclasses.replace(cfg.table, thresholds=thresholds)
    )
    assert calibrate_budget(cfg) == all_exact_budget(cfg)
    users = [
        UserChannel(k, float(sinr[k])) for k in range(cells.nc) if occ[k]
    ]
    alloc = mrs(users, cfg.table, cfg.model)
    assert all_exact_costs(cfg)[t] == alloc.sum_complexity


def test_calibration_ties_at_zero(caplog):
    # at a density this low most trials have no active user on the ladder,
    # so the quantile is a tie at 0.0
    cfg = small_config(phy=PhyParams(lambda_density=0.001))
    costs = all_exact_costs(cfg)
    assert np.count_nonzero(costs == 0.0) > 0.9 * costs.size
    with caplog.at_level(logging.INFO, logger="cran_sched"):
        assert calibrate_budget(cfg) == all_exact_budget(cfg) == 0.0
    over = np.count_nonzero(costs > 0.0)
    assert f"c_server = 0.0, in-sample outage {over} " in caplog.text


def test_calibrate_budget_logs_its_diagnostics(caplog):
    cfg = small_config()
    costs = all_exact_costs(cfg)
    with caplog.at_level(logging.INFO, logger="cran_sched"):
        c = calibrate_budget(cfg)
    over = int(np.count_nonzero(costs > c))
    assert over <= 100
    assert (
        f"calibration: n = 1000, k = 100, c_server = {c!r}, "
        in caplog.text
    )
    assert f"in-sample outage {over} ({over / 1000:.4f})" in caplog.text


# ------------------------------------------------------------ empirical cdf


def test_empirical_cdf_reference_points():
    np.testing.assert_allclose(
        empirical_cdf([1.0, 2.0, 3.0]),
        [[1.0, 1 / 3], [2.0, 2 / 3], [3.0, 1.0]],
    )
    np.testing.assert_allclose(empirical_cdf([5.0, 5.0]), [[5.0, 1.0]])
    with pytest.raises(ValueError, match="at least one"):
        empirical_cdf([])


def test_empirical_cdf_is_a_cdf():
    rng = np.random.default_rng(3)
    table = empirical_cdf(rng.normal(size=1000))
    assert np.all(np.diff(table[:, 0]) > 0)
    assert np.all(np.diff(table[:, 1]) > 0)
    assert table[-1, 1] == 1.0
    assert table[0, 1] > 0.0


def test_cdf_counts_equal_numpy_unique():
    # ties, both zeros, infinities and NaNs, which np.unique counts as one
    # value: the same values, bit for bit, and the same cumulative counts
    rng = np.random.default_rng(4)
    pool = np.array(
        [0.0, -0.0, 1.0, 2.5, -3.0, 5e-324, np.inf, -np.inf, np.nan]
    )
    for n in [1, 2, 3, *rng.integers(4, 200, 300)]:
        if n % 2:
            x = rng.choice(pool, n)
        else:
            x = np.round(rng.normal(size=n), 1)
        values, at_most = harness._cdf_counts(x)
        want, counts = np.unique(x, return_counts=True)
        np.testing.assert_array_equal(
            values.view(np.uint64), want.view(np.uint64)
        )
        np.testing.assert_array_equal(at_most, np.cumsum(counts))


# ------------------------------------------------------------ config checks


def test_campaign_config_validation():
    with pytest.raises(ValueError, match="non-empty"):
        small_config(schedulers=())
    with pytest.raises(ValueError, match="duplicate"):
        small_config(schedulers=("mrs", "mrs"))
    with pytest.raises(ValueError, match="unknown scheduler"):
        small_config(schedulers=("mrs", "round-robin"))
    with pytest.raises(ValueError, match="n_trials"):
        small_config(n_trials=0)
    with pytest.raises(ValueError, match="exactly one"):
        small_config(epsilon=0.1, c_server=10.0)
    with pytest.raises(ValueError, match="exactly one"):
        small_config(epsilon=None, c_server=None)
    with pytest.raises(ValueError, match="epsilon"):
        small_config(epsilon=1.0)
    with pytest.raises(ValueError, match="c_server"):
        small_config(epsilon=None, c_server=-1.0)
    # an infinite budget would reach the manifest as a non-JSON Infinity
    with pytest.raises(ValueError, match="c_server must be >= 0 and finite"):
        small_config(epsilon=None, c_server=math.inf)
    with pytest.raises(ValueError, match="seed"):
        small_config(seed=-1)
    with pytest.raises(ValueError, match="calibration_trials"):
        small_config(calibration_trials=999)
    # unset, calibration_trials defaults to n_trials, which then must reach
    # the floor; a fixed budget draws no calibration trials
    with pytest.raises(ValueError, match="n_trials .* >= 1000"):
        small_config(n_trials=999, calibration_trials=None)
    small_config(epsilon=None, c_server=50.0, calibration_trials=10)
    with pytest.raises(ValueError, match="area_samples"):
        small_config(area_samples=9999)
    with pytest.raises(ValueError, match="workers"):
        small_config(workers=0)


# -------------------------------------------------------- campaign behavior


def test_schedulers_share_draws_and_respect_budget(campaign):
    cfg, res = campaign
    budget = res.c_server
    unc = res.series["unconstrained"]
    srs = res.series["mrs"]

    # the unconstrained run is the max-rate run without zeroing
    assert not unc.outage.any()
    np.testing.assert_array_equal(unc.sum_complexity, srs.sum_complexity)
    np.testing.assert_array_equal(
        srs.sum_rate, np.where(srs.outage, 0.0, unc.sum_rate)
    )
    np.testing.assert_array_equal(srs.outage, srs.sum_complexity > budget)

    for name in ("swf", "scc"):
        s = res.series[name]
        assert not s.outage.any()
        assert np.all(s.sum_complexity <= budget)
        # per trial the constrained rate never beats the unconstrained one
        assert np.all(s.sum_rate <= unc.sum_rate + 1e-12)
        # off-outage trials leave the budget slack, so nothing is stepped
        # down and the paired draws force bit-identical outcomes
        calm = ~srs.outage
        np.testing.assert_array_equal(s.sum_rate[calm], unc.sum_rate[calm])
        np.testing.assert_array_equal(
            s.sum_complexity[calm], unc.sum_complexity[calm]
        )


def test_outage_rate_tracks_target(campaign):
    cfg, res = campaign
    # out-of-sample check at desk scale; the acceptance suite pins 3 sigma
    assert res.outage_rate("mrs") == pytest.approx(cfg.epsilon, abs=0.04)
    assert res.epsilon == cfg.epsilon


def test_budget_above_every_sample_means_zero_outage(campaign):
    cfg, res = campaign
    top = float(res.series["mrs"].sum_complexity.max())
    clear = run_campaign(
        dataclasses.replace(cfg, epsilon=None, c_server=top + 1.0)
    )
    assert clear.outage_rate("mrs") == 0.0
    np.testing.assert_array_equal(
        clear.series["mrs"].sum_rate,
        clear.series["unconstrained"].sum_rate,
    )


def test_n_active_bounds_and_idle_trials(campaign):
    cfg, res = campaign
    nc = cfg.layout.n_centralized
    assert np.all(res.n_active >= 0) and np.all(res.n_active <= nc)
    idle = res.n_active == 0
    assert np.all(res.series["unconstrained"].sum_rate[idle] == 0.0)
    assert np.all(res.series["unconstrained"].sum_complexity[idle] == 0.0)


def test_result_accessors(campaign):
    cfg, res = campaign
    unc = res.series["unconstrained"]
    swf = res.series["swf"]
    assert res.mean_sum_rate("swf") == pytest.approx(
        float(swf.sum_rate.mean()), rel=1e-12
    )
    loss = res.relative_loss("swf")
    assert loss == pytest.approx(
        (unc.mean_sum_rate - swf.mean_sum_rate) / unc.mean_sum_rate, rel=1e-12
    )
    assert 0.0 <= loss < 1.0



def test_campaign_deterministic_and_worker_invariant(campaign):
    cfg, res = campaign
    rerun = run_campaign(cfg)
    forked = run_campaign(dataclasses.replace(cfg, workers=3))
    for other in (rerun, forked):
        assert other.c_server == res.c_server
        np.testing.assert_array_equal(other.n_active, res.n_active)
        for name in res.schedulers:
            for field in ("sum_rate", "sum_complexity", "outage"):
                np.testing.assert_array_equal(
                    getattr(other.series[name], field),
                    getattr(res.series[name], field),
                )


def test_scheduler_subset_runs(campaign):
    cfg, res = campaign
    sub = run_campaign(
        dataclasses.replace(
            cfg, schedulers=("mrs", "unconstrained"),
            epsilon=None, c_server=res.c_server,
        )
    )
    assert set(sub.series) == {"mrs", "unconstrained"}
    np.testing.assert_array_equal(
        sub.series["mrs"].sum_rate, res.series["mrs"].sum_rate
    )


@pytest.mark.parametrize("name", list(harness.SCHEDULERS))
def test_each_scheduler_alone_matches_full_run(campaign, name):
    # only the kernels a campaign names run, so a scheduler run alone must
    # reproduce its series from the full campaign bit for bit
    cfg, res = campaign
    alone = run_campaign(
        dataclasses.replace(
            cfg, schedulers=(name,), epsilon=None, c_server=res.c_server
        )
    )
    np.testing.assert_array_equal(alone.n_active, res.n_active)
    for field in ("sum_rate", "sum_complexity", "outage"):
        np.testing.assert_array_equal(
            getattr(alone.series[name], field),
            getattr(res.series[name], field),
        )


def test_fits_rule_names_scheduler_and_trial(campaign, monkeypatch):
    # scoring max-rate allocations as "fits" must trip on the first trial
    # whose cost exceeds the budget
    cfg, res = campaign
    monkeypatch.setitem(harness.SCHEDULERS, "swf", (batch.mrs, "fits"))
    first = int(np.argmax(res.series["mrs"].outage))
    assert res.series["mrs"].outage[first]
    with pytest.raises(
        AssertionError, match=rf"swf exceeded the budget on trial {first}:"
    ):
        run_campaign(
            dataclasses.replace(
                cfg, schedulers=("swf",), epsilon=None, c_server=res.c_server
            )
        )


def test_a_new_scheduler_is_one_table_entry(campaign, monkeypatch):
    # a scheduler that serves no user, added by its SCHEDULERS entry alone,
    # runs on the campaign's draws and leaves the other series as they were.
    # At a zero budget it runs on every trial of positive max-rate cost; a
    # trial whose served users all cost 0.0 (the cost is clamped at zero)
    # fits the budget and keeps the max-rate allocation, as every scheduler
    # does there
    cfg, _res = campaign
    cfg = dataclasses.replace(cfg, epsilon=None, c_server=0.0)
    base = run_campaign(cfg)

    def idle(mf, cap, init_c, lg, rates, c0, ilz, budget):
        return np.full_like(mf, -1), np.zeros_like(init_c)

    monkeypatch.setitem(harness.SCHEDULERS, "idle", (idle, "fits"))
    res = run_campaign(
        dataclasses.replace(cfg, schedulers=cfg.schedulers + ("idle",))
    )
    idle_series = res.series["idle"]
    max_rate = base.series["unconstrained"]
    ran = max_rate.sum_complexity > 0.0
    assert ran.mean() > 0.5
    assert not idle_series.sum_rate[ran].any()
    np.testing.assert_array_equal(
        idle_series.sum_rate[~ran], max_rate.sum_rate[~ran]
    )
    assert not idle_series.sum_complexity.any()
    assert not idle_series.outage.any()
    np.testing.assert_array_equal(res.n_active, base.n_active)
    for name in cfg.schedulers:
        for field in ("sum_rate", "sum_complexity", "outage"):
            np.testing.assert_array_equal(
                getattr(res.series[name], field),
                getattr(base.series[name], field),
            )


def test_library_allocations_equal_the_campaign(campaign):
    # replay the first evaluation chunk through the library API: the
    # allocators must return the campaign's sums bit for bit
    cfg, res = campaign
    cells = harness.campaign_cells(cfg, harness.campaign_geometry(cfg))
    rows = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, harness.EVAL_STREAM, 0])
    ).random((harness.CHUNK_TRIALS, cells.row_len))
    occupied, sinrs = trial_channels(cfg, cells, rows)
    for t, (occ, sinr) in enumerate(zip(occupied, sinrs)):
        users = [
            UserChannel(k, float(sinr[k])) for k in range(cells.nc) if occ[k]
        ]
        for name, alloc in (
            ("unconstrained", mrs(users, cfg.table, cfg.model)),
            ("swf", swf_discrete(users, cfg.table, cfg.model, res.c_server)),
            ("scc", scc(users, cfg.table, cfg.model, res.c_server)),
        ):
            s = res.series[name]
            assert (alloc.sum_rate, alloc.sum_complexity) == (
                s.sum_rate[t], s.sum_complexity[t]
            ), (name, t)


# ------------------------------------------------------------------- sweeps


def test_sweep_nc_reselects_and_recalibrates(campaign):
    cfg, _ = campaign
    pts = list(sweep_nc(dataclasses.replace(cfg, n_trials=2000), [1, 3]))
    assert [pt.value for pt in pts] == [1.0, 3.0]
    # budgets are recalibrated per point, so more cells cost more
    assert pts[1].result.c_server > pts[0].result.c_server
    for pt in pts:
        assert pt.result.outage_rate("swf") == 0.0
    with pytest.raises(ValueError, match="nc must be"):
        list(sweep_nc(cfg, [0]))
    with pytest.raises(ValueError, match="nc must be"):
        list(sweep_nc(cfg, [cfg.layout.n_bs + 1]))


@pytest.mark.parametrize(
    "value, shown",
    [(2.7, "2.7"), (0.5, "0.5"), (math.inf, "inf"), (-math.inf, "-inf"),
     (math.nan, "nan"), (3.0 + 1e-12, repr(3.0 + 1e-12))],
)
def test_sweep_nc_rejects_a_count_that_is_not_an_integer(
    value, shown, monkeypatch
):
    # a fractional count is not truncated to a cell set, and the message
    # names the value as given, before the geometry is built
    cfg = small_config()
    calls = []
    monkeypatch.setattr(
        harness, "campaign_geometry", lambda *args: calls.append(args)
    )
    with pytest.raises(ValueError, match="nc must be") as err:
        list(sweep_nc(cfg, [2, value]))
    assert str(err.value).endswith(f"got {shown}")
    assert calls == []


def test_sweep_nc_checks_every_value_before_the_first_campaign(monkeypatch):
    cfg = small_config()
    calls = []
    for name in ("campaign_geometry", "run_campaign"):
        monkeypatch.setattr(
            harness, name, lambda *args, name=name, **kw: calls.append(name)
        )
    with pytest.raises(ValueError, match="nc must be"):
        list(sweep_nc(cfg, [2, cfg.layout.n_bs + 1]))
    # no value is an error too, before the geometry is built
    with pytest.raises(ValueError, match="nc_values must be non-empty"):
        list(sweep_nc(cfg, []))
    assert calls == []


def test_sweep_lambda_checks_every_density_before_the_first_campaign(
    monkeypatch,
):
    calls = []
    for name in ("calibrate_budget", "run_campaign"):
        monkeypatch.setattr(
            harness, name, lambda *args, name=name, **kw: calls.append(name)
        )
    cfg = small_config()
    pinned = dataclasses.replace(cfg, epsilon=None, c_server=42.0)
    for config in (cfg, pinned):
        points = sweep_lambda(config, [1.0, math.nan])
        with pytest.raises(ValueError, match="lambda_density must be > 0"):
            next(points)
    assert calls == []


def test_sweep_lambda_holds_budget_fixed(campaign):
    cfg, _ = campaign
    pts = list(sweep_lambda(
        dataclasses.replace(cfg, n_trials=2000), [0.5, 1.0, 2.0]
    ))
    budgets = {pt.result.c_server for pt in pts}
    assert len(budgets) == 1
    outs = [pt.result.outage_rate("mrs") for pt in pts]
    assert all(b >= a - 1e-12 for a, b in zip(outs, outs[1:]))
    with pytest.raises(ValueError, match="non-empty"):
        list(sweep_lambda(cfg, []))
    with pytest.raises(ValueError, match="lambda_density must be > 0"):
        list(sweep_lambda(cfg, [0.5], reference_lambda=0.0))


def test_sweep_lambda_explicit_budget_skips_calibration(campaign, monkeypatch):
    cfg, _ = campaign

    def no_calibration(*args, **kwargs):
        raise AssertionError("a pinned budget ran a calibration")

    monkeypatch.setattr(harness, "calibrate_budget", no_calibration)
    fixed = dataclasses.replace(
        cfg, n_trials=2000, epsilon=None, c_server=42.0
    )
    pts = list(sweep_lambda(fixed, [0.5, 1.0]))
    assert all(pt.result.c_server == 42.0 for pt in pts)
    # nor does a campaign given a budget
    small = dataclasses.replace(cfg, n_trials=1000)
    assert run_campaign(fixed).c_server == 42.0
    assert run_campaign(small, c_server=50.0).c_server == 50.0
    for budget in -1.0, math.inf, math.nan:
        with pytest.raises(ValueError, match=f"c_server .*, got {budget}"):
            run_campaign(small, c_server=budget)


@pytest.mark.parametrize(
    "sweep, values",
    [(sweep_nc, [1, 2, 3]), (sweep_lambda, [0.5, 1.0, 2.0])],
    ids=["sweep_nc", "sweep_lambda"],
)
def test_library_sweeps_drop_each_point_before_the_next(
    sweep, values, monkeypatch
):
    # a sweep yields each point as its campaign finishes and keeps none,
    # so a caller that drops a point holds one campaign's arrays at a time
    real_run = harness.run_campaign
    results, alive = [], []

    def tracked_run(*args, **kwargs):
        gc.collect()
        alive.append([ref() is not None for ref in results])
        result = real_run(*args, **kwargs)
        results.append(weakref.ref(result))
        return result

    monkeypatch.setattr(harness, "run_campaign", tracked_run)
    points = iter(sweep(small_config(n_trials=1000), values))
    seen = []
    # next() and del, not a for loop, whose variable would keep the last
    # point alive while the next one is computed
    for _ in values:
        pt = next(points)
        seen.append(pt.value)
        del pt
    with pytest.raises(StopIteration):
        next(points)
    assert seen == [float(v) for v in values]
    assert alive == [[False] * k for k in range(len(values))]


def counted_position_terms(monkeypatch):
    """Forget the kept position-term table and record each table
    ``batch.position_terms`` builds, by its number of scheduled cells."""
    from cran_sched import batch

    built = []
    build = batch.position_terms

    def counted(pool_xy, pool_off, bs_xy, dmin, nc, *args):
        built.append(nc)
        return build(pool_xy, pool_off, bs_xy, dmin, nc, *args)

    monkeypatch.setattr(batch, "position_terms", counted)
    monkeypatch.setattr(harness, "_TERMS", None)
    return built


def test_position_terms_are_built_once_per_cell_set(monkeypatch):
    cfg = small_config(n_trials=1000, background_interference=True)
    geometry = harness.campaign_geometry(cfg)
    built = counted_position_terms(monkeypatch)
    run_campaign(cfg, geometry, c_server=calibrate_budget(cfg, geometry))
    assert built == [3]
    # every density shares the cell set, in one process or forked workers
    for workers in (1, 2):
        list(sweep_lambda(
            dataclasses.replace(cfg, workers=workers), [0.5, 2.0],
            geometry=geometry,
        ))
    assert built == [3]
    # another cell count is another cell set, and the last one is kept
    list(sweep_nc(cfg, [2, 2, 3], geometry=geometry))
    assert built == [3, 2, 3]


def test_campaigns_hold_no_cell_pool_while_their_chunks_run(monkeypatch):
    # the position-term cache keys on a digest, not on the pool, and each
    # campaign drops its cell set once its payload is built, so neither the
    # calibration's pool nor the evaluation's outlives the table's build
    cfg = small_config(n_trials=1000, background_interference=True)
    geometry = harness.campaign_geometry(cfg)
    built = counted_position_terms(monkeypatch)
    pools = []
    make_cells = harness.campaign_cells

    def tracked_cells(*args):
        cells = make_cells(*args)
        pools.append(weakref.ref(cells.pool_xy))
        return cells

    alive = []
    run_chunk = kernels.run_chunk

    def checked(*args):
        alive.append([pool() is not None for pool in pools])
        return run_chunk(*args)

    monkeypatch.setattr(harness, "campaign_cells", tracked_cells)
    monkeypatch.setattr(kernels, "run_chunk", checked)
    run_campaign(cfg, geometry, c_server=calibrate_budget(cfg, geometry))
    assert built == [3]
    assert alive == [[False], [False, False]]
    assert [pool() for pool in pools] == [None, None]


# ------------------------------------------------------------ result files


def test_failed_probe_leaves_the_campaign_files_unchanged(
    campaign, tmp_path, monkeypatch
):
    # with every libm function on one CPython call per element, the
    # campaign writes the same per_trial.csv as through NumPy's scalar loop
    from cran_sched import batch

    cfg, res = campaign
    calls = []
    libm = batch._libm

    def counted(fn, x, args):
        calls.append(fn)
        return libm(fn, x, args)

    monkeypatch.setattr(batch, "_libm", counted)
    # each run builds its own position-term table, whose pow calls go
    # through the libm path under test
    monkeypatch.setattr(harness, "_TERMS", None)
    monkeypatch.setattr(batch, "_FAST", {})
    fast = run_campaign(cfg)
    assert {math.log1p, pow, math.log2} <= set(calls)
    calls.clear()
    monkeypatch.setattr(harness, "_TERMS", None)
    monkeypatch.setattr(batch, "_FAST", {})
    monkeypatch.setattr(batch, "_probe", lambda fn: False)
    slow = run_campaign(cfg)
    assert calls == []
    for name, r in (("cached", res), ("fast", fast), ("slow", slow)):
        write_per_trial_csv(r, tmp_path / f"{name}.csv")
    want = (tmp_path / "cached.csv").read_bytes()
    assert (tmp_path / "fast.csv").read_bytes() == want
    assert (tmp_path / "slow.csv").read_bytes() == want




def test_per_trial_csv_round_trip(campaign, tmp_path):
    cfg, res = campaign
    path = tmp_path / "per_trial.csv"
    write_per_trial_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,scheduler,sum_rate,sum_complexity,outage,n_active"
    assert len(lines) == 1 + res.n_trials * len(res.schedulers)
    k = 0
    for t in range(0, res.n_trials, 997):  # spot-check a spread of trials
        for i, name in enumerate(res.schedulers):
            row = lines[1 + t * len(res.schedulers) + i].split(",")
            s = res.series[name]
            assert row[0] == str(t) and row[1] == name
            assert float(row[2]) == s.sum_rate[t]
            assert float(row[3]) == s.sum_complexity[t]
            assert row[4] == str(int(s.outage[t]))
            assert row[5] == str(int(res.n_active[t]))
            k += 1
    assert k > 0
    assert not os.path.exists(str(path) + ".tmp")


def reference_files(res) -> dict[str, str]:
    """per_trial.csv and the CDF files, formatted one float at a time with
    the f-strings the writers used before their string tables."""
    lines = ["trial,scheduler,sum_rate,sum_complexity,outage,n_active"]
    for t in range(res.n_trials):
        for name in res.schedulers:
            s = res.series[name]
            lines.append(
                f"{t},{name},{float(s.sum_rate[t])!r},"
                f"{float(s.sum_complexity[t])!r},{int(s.outage[t]):d},"
                f"{int(res.n_active[t])}"
            )
    files = {"per_trial.csv": "\n".join(lines) + "\n"}
    for name in res.schedulers:
        for metric in ("sum_rate", "sum_complexity"):
            table = empirical_cdf(getattr(res.series[name], metric))
            rows = ["value,fraction"]
            rows.extend(f"{v!r},{f!r}" for v, f in table.tolist())
            files[f"cdf_{name}_{metric}.csv"] = "\n".join(rows) + "\n"
    return files


def synthetic_result(n_trials: int, seed: int) -> harness.CampaignResult:
    """A result with -0.0 beside 0.0 in one column and values repeated
    across schedulers, as on trials the budget leaves untouched."""
    rng = np.random.default_rng(seed)
    rate = rng.random(n_trials) * 40.0
    cost = np.round(rng.random(n_trials) * 90.0, 3)
    rate[::3] = 0.0
    rate[1::3] = -0.0
    cost[0] = -0.0
    cost[1:2] = 0.0
    cut = rng.random(n_trials) < 0.3
    series = {}
    for name in SCHEDULERS:
        outage = (rng.random(n_trials) < 0.1) & (name == "mrs")
        rates = np.where(cut, rng.random(n_trials), rate)
        costs = cost if name in ("mrs", "unconstrained") else np.where(
            cut, cost * 0.5, cost
        )
        series[name] = harness.SchedulerSeries(
            sum_rate=np.where(outage, 0.0, rates), sum_complexity=costs,
            outage=outage,
        )
    return harness.CampaignResult(
        schedulers=tuple(SCHEDULERS), n_trials=n_trials, seed=seed,
        epsilon=0.1, c_server=50.0,
        n_active=rng.integers(0, 11, n_trials), series=series,
    )


@pytest.mark.parametrize(
    "n_trials", [1, 7, harness.WRITE_TRIALS + 1, None],
    ids=["one-trial", "seven-trials", "one-past-a-block", "campaign"],
)
def test_result_files_equal_the_one_float_at_a_time_text(
    n_trials, campaign, tmp_path
):
    res = campaign[1] if n_trials is None else synthetic_result(n_trials, 5)
    expected = reference_files(res)
    if n_trials is not None:
        # the -0.0 beside 0.0 must keep its own text
        assert "-0.0" in expected["per_trial.csv"]
    write_per_trial_csv(res, tmp_path / "per_trial.csv")
    write_cdf_csvs(res, tmp_path)
    assert sorted(os.listdir(tmp_path)) == sorted(expected)
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name


def test_summary_csv_round_trip(campaign, tmp_path):
    cfg, res = campaign
    path = tmp_path / "summary.csv"
    write_summary_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "scheduler,mean_sum_rate,outage_rate,c_server"
    assert len(lines) == 1 + len(res.schedulers)
    for line, name in zip(lines[1:], res.schedulers):
        row = line.split(",")
        assert row[0] == name
        assert float(row[1]) == res.mean_sum_rate(name)
        assert float(row[2]) == res.outage_rate(name)
        assert float(row[3]) == res.c_server


def test_cdf_csvs(campaign, tmp_path):
    cfg, res = campaign
    paths = write_cdf_csvs(res, tmp_path)
    assert len(paths) == 2 * len(res.schedulers)
    name = os.path.join(tmp_path, "cdf_swf_sum_rate.csv")
    assert name in paths
    lines = Path(name).read_text().splitlines()
    assert lines[0] == "value,fraction"
    table = empirical_cdf(res.series["swf"].sum_rate)
    assert len(lines) == 1 + len(table)
    last = lines[-1].split(",")
    assert float(last[0]) == table[-1, 0] and float(last[1]) == 1.0


def test_each_cdf_csv_holds_its_own_table(campaign, tmp_path):
    # equal series are formatted once, and each file still holds the table
    # of its own series
    cfg, res = campaign
    write_cdf_csvs(res, tmp_path)
    for name in res.schedulers:
        for metric in ("sum_rate", "sum_complexity"):
            text = (tmp_path / f"cdf_{name}_{metric}.csv").read_text()
            table = empirical_cdf(getattr(res.series[name], metric))
            rows = "".join(f"{v!r},{f!r}\n" for v, f in table.tolist())
            assert text == "value,fraction\n" + rows, (name, metric)
    assert (tmp_path / "cdf_mrs_sum_complexity.csv").read_bytes() == (
        tmp_path / "cdf_unconstrained_sum_complexity.csv"
    ).read_bytes()


def test_sweep_csv(campaign, tmp_path):
    cfg, res = campaign
    pts = list(sweep_lambda(
        dataclasses.replace(cfg, n_trials=2000, epsilon=None, c_server=50.0),
        [0.5, 1.0],
    ))
    path = tmp_path / "sweep_lambda.csv"
    write_sweep_csv(pts, "lambda_density", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda_density,scheduler,mean_sum_rate,outage_rate,c_server"
    assert len(lines) == 1 + sum(len(pt.result.schedulers) for pt in pts)
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert first[1] == pts[0].result.schedulers[0]


def test_manifest(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(
        path, "run", {"epsilon": "0.1"}, seed=7, version="0.1.0",
        c_server=12.5,
    )
    doc = json.loads(path.read_text())
    assert doc["command"] == "run"
    assert doc["config"] == {"epsilon": "0.1"}
    assert doc["seed"] == 7
    assert doc["version"] == "0.1.0"
    assert doc["c_server"] == 12.5
    # strict JSON: a non-finite budget is refused before anything is written
    path = tmp_path / "strict.json"
    for budget in math.inf, math.nan:
        with pytest.raises(ValueError, match="JSON compliant"):
            write_manifest(path, "run", {}, 7, "0.1.0", c_server=budget)
    assert not path.exists()


# ---------------------------------------------------------------- internals


def test_chunks_partition_trials(monkeypatch):
    # each chunk's arrays land in its own trials, in chunk order
    sizes = []

    def numbered(blocks, *args):
        sizes.append(sum(u.shape[0] for u in blocks))
        n_active = np.full(sizes[-1], len(sizes) - 1)
        return n_active, np.zeros((sizes[-1], len(args[-1]), 2))

    monkeypatch.setattr(kernels, "run_chunk", numbered)
    cfg = small_config()
    n_active, out = harness._run_stream(
        cfg, harness.campaign_geometry(cfg), harness.EVAL_STREAM, 10_000,
        math.inf, [batch.mrs],
    )
    chunk = harness.CHUNK_TRIALS
    assert sizes == [chunk, chunk, 10_000 - 2 * chunk]
    np.testing.assert_array_equal(n_active, np.repeat([0, 1, 2], sizes))
    assert out.shape == (10_000, 1, 2)


def test_streams_are_distinct():
    assert len({harness.EVAL_STREAM, harness.CALIBRATION_STREAM,
                harness.AREA_STREAM}) == 3
