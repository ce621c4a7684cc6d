"""Unit and property tests for the rate allocators."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from cran_sched import (
    ContinuousSolution,
    DomainError,
    ModelParams,
    RateAllocation,
    UserChannel,
    build_table,
    continuous_waterfill,
    decode_complexity,
    default_table,
    linearize,
    max_feasible_index,
    mrs,
    required_water_level,
    scc,
    swf_discrete,
)

NU_02DB = 1.0471285480508995
C_U1 = 0.74807036358740776     # cost of user sinr=3 at rate 1.0
C_U2 = 0.80471173986709693     # cost of user sinr=1 at rate 0.5
WL_U1 = 1.9907402327066314     # water level of user 1 at that operating point
WL_U2 = 2.8520933488534175
READD_TOTAL = 1.5527821034545047
WL_G3_RHALF = 0.65843438046863114

PARAMS = ModelParams()


def two_entry_table():
    return build_table([0.5, 1.0], nu=NU_02DB)


def trace_users():
    # user 0 supports the top entry (rate 1.0), user 1 only the bottom (0.5)
    return [UserChannel(0, 3.0), UserChannel(1, 1.0)]


def random_instance(rng, n_lo=2, n_hi=16, g_lo=0.3, g_hi=80.0):
    n = int(rng.integers(n_lo, n_hi))
    return [
        UserChannel(k, float(g))
        for k, g in enumerate(rng.uniform(g_lo, g_hi, size=n))
    ]


# ---------------------------------------------------------------- dataclasses


def test_user_channel_validation():
    u = UserChannel(3, 3.0)
    assert u.capacity == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError, match="sinr"):
        UserChannel(0, 0.0)
    with pytest.raises(ValueError, match="sinr"):
        UserChannel(0, -1.0)


def test_allocation_counts_served_users():
    a = swf_discrete(trace_users(), two_entry_table(), PARAMS, 1.0)
    assert isinstance(a, RateAllocation)
    assert a.n_served == 1
    assert a.budget == 1.0


# ------------------------------------------------------------ water level


def test_required_water_level_frozen_values():
    co1 = linearize(PARAMS, 3.0, 1.0)
    wl = required_water_level(co1, decode_complexity(PARAMS, 3.0, 1.0))
    assert wl == pytest.approx(WL_U1, rel=1e-9)
    # identity at the expansion point: level == 2*alpha*r0 + beta
    assert wl == pytest.approx(2.0 * co1.quad_alpha + co1.quad_beta, rel=1e-12)

    co2 = linearize(PARAMS, 3.0, 0.5)
    c_half = co2.quad_alpha * 0.25 + co2.quad_beta * 0.5
    assert required_water_level(co2, c_half) == pytest.approx(
        WL_G3_RHALF, rel=1e-9
    )


def test_required_water_level_negative_radicand():
    co = linearize(PARAMS, 3.0, 1.0)
    floor = -co.quad_beta**2 / (4.0 * co.quad_alpha)
    assert required_water_level(co, floor + 1e-12) == pytest.approx(
        0.0, abs=1e-5
    )
    with pytest.raises(DomainError, match="quad_alpha .*radicand") as err:
        required_water_level(co, floor - 1e-6)
    assert f"{co.quad_beta:.3e}" in str(err.value)


def test_required_water_level_passes_nan_through():
    # a NaN target or coefficient is no negative radicand: the level is NaN
    co = linearize(PARAMS, 3.0, 1.0)
    assert math.isnan(required_water_level(co, math.nan))
    nan_alpha = dataclasses.replace(co, quad_alpha=math.nan)
    assert math.isnan(required_water_level(nan_alpha, 0.5))


# ------------------------------------------------------------ two-user trace


def test_swf_two_user_trace():
    a = swf_discrete(trace_users(), two_entry_table(), PARAMS, budget=1.0)
    assert [e.rate for e in a.entries] == [1.0, 0.0]
    assert [e.mcs_index for e in a.entries] == [1, None]
    assert a.sum_rate == pytest.approx(1.0, rel=1e-12)
    assert a.sum_complexity == pytest.approx(C_U1, rel=1e-9)
    assert a.entries[0].complexity == pytest.approx(C_U1, rel=1e-9)
    assert a.entries[1].complexity == 0.0


def test_swf_trace_intermediate_quantities():
    # the reduction ordering in the trace is driven by these frozen values
    co1 = linearize(PARAMS, 3.0, 1.0)
    co2 = linearize(PARAMS, 1.0, 0.5)
    c1 = decode_complexity(PARAMS, 3.0, 1.0)
    c2 = decode_complexity(PARAMS, 1.0, 0.5)
    assert c1 == pytest.approx(C_U1, rel=1e-9)
    assert c2 == pytest.approx(C_U2, rel=1e-9)
    assert required_water_level(co1, c1) == pytest.approx(WL_U1, rel=1e-9)
    assert required_water_level(co2, c2) == pytest.approx(WL_U2, rel=1e-9)
    # re-adding user 1 at its max feasible entry would blow the budget
    assert c1 + c2 == pytest.approx(READD_TOTAL, rel=1e-9)
    assert c1 + c2 > 1.0


def test_scc_two_user_trace():
    a = scc(trace_users(), two_entry_table(), PARAMS, budget=1.0)
    assert [e.rate for e in a.entries] == [1.0, 0.0]
    assert a.sum_complexity == pytest.approx(C_U1, rel=1e-9)


# ------------------------------------------------------------ edge behavior


def test_infinite_budget_keeps_max_feasible():
    users = trace_users()
    t = two_entry_table()
    ref = mrs(users, t, PARAMS)
    for fn in (swf_discrete, scc):
        a = fn(users, t, PARAMS, budget=math.inf)
        assert [e.rate for e in a.entries] == [e.rate for e in ref.entries]
        assert a.sum_rate == ref.sum_rate


def test_empty_instance():
    t = two_entry_table()
    for a in (
        mrs([], t, PARAMS),
        swf_discrete([], t, PARAMS, 1.0),
        scc([], t, PARAMS, 1.0),
    ):
        assert a.entries == ()
        assert a.sum_rate == 0.0 and a.sum_complexity == 0.0
        assert a.n_served == 0


def test_scc_budget_above_unconstrained_sum_is_a_no_op():
    users = trace_users()
    t = two_entry_table()
    unc = mrs(users, t, PARAMS)
    a = scc(users, t, PARAMS, budget=unc.sum_complexity)
    assert [e.rate for e in a.entries] == [e.rate for e in unc.entries]


def test_zero_budget_keeps_only_zero_cost_users():
    # sinr=15 reaches the top entry with the cost clamp active (free decode);
    # it survives a zero budget while the costly sinr=3 user is dropped.
    t = two_entry_table()
    assert decode_complexity(PARAMS, 15.0, 1.0) == 0.0
    for fn in (swf_discrete, scc):
        solo = fn([UserChannel(0, 15.0)], t, PARAMS, budget=0.0)
        assert [e.rate for e in solo.entries] == [1.0]
        assert solo.sum_complexity == 0.0

        pair = fn([UserChannel(0, 3.0), UserChannel(1, 15.0)], t, PARAMS, 0.0)
        assert [e.rate for e in pair.entries] == [0.0, 1.0]
        assert pair.sum_rate == 1.0
        assert pair.sum_complexity == 0.0


def test_negative_budget_rejected():
    users = trace_users()
    t = two_entry_table()
    for fn in (swf_discrete, scc):
        with pytest.raises(ValueError, match="budget"):
            fn(users, t, PARAMS, budget=-1.0)


def test_gap_guard_checked_on_entry():
    # sinr exactly at a threshold that sits on capacity: gap 0 at the chosen
    # entry must be rejected, not silently evaluated
    t = build_table([1.0], nu=1.0)
    with pytest.raises(DomainError, match="gap"):
        mrs([UserChannel(0, 1.0)], t, PARAMS)


# --------------------------------------------------------------------- mrs


def test_mrs_inclusive_threshold():
    t = two_entry_table()
    a = mrs([UserChannel(0, NU_02DB)], t, PARAMS)
    assert a.entries[0].mcs_index == 1
    assert a.entries[0].rate == 1.0


def test_mrs_below_lowest_threshold():
    t = two_entry_table()
    a = mrs([UserChannel(0, 0.1)], t, PARAMS)
    assert a.entries[0].mcs_index is None
    assert a.entries[0].rate == 0.0
    assert a.entries[0].complexity == 0.0
    assert a.n_served == 0


def test_mrs_matches_table_lookup_and_cost_model():
    t = default_table()
    rng = np.random.default_rng(42)
    users = random_instance(rng, 5, 12)
    a = mrs(users, t, PARAMS)
    for u, e in zip(users, a.entries):
        want = max_feasible_index(t, u.sinr)
        assert e.mcs_index == want
        if want is None:
            assert e.rate == 0.0 and e.complexity == 0.0
        else:
            assert e.rate == float(t.rates[want])
            assert e.complexity == pytest.approx(
                decode_complexity(PARAMS, u.sinr, e.rate), rel=1e-12
            )


# -------------------------------------------------------- allocation checks


def seq_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_allocations_internally_consistent(seed):
    t = default_table()
    rng = np.random.default_rng(seed)
    for _ in range(50):
        users = random_instance(rng)
        unc = mrs(users, t, PARAMS)
        budget = float(rng.uniform(0.0, 1.2)) * max(unc.sum_complexity, 1e-9)
        for a in (
            unc,
            swf_discrete(users, t, PARAMS, budget),
            scc(users, t, PARAMS, budget),
        ):
            # totals are the left-to-right sums of the per-user entries
            assert a.sum_rate == pytest.approx(
                seq_sum(e.rate for e in a.entries), rel=1e-9, abs=1e-12
            )
            assert a.sum_complexity == pytest.approx(
                seq_sum(e.complexity for e in a.entries), rel=1e-9, abs=1e-12
            )
            mrs_rate = {e.user_id: e.rate for e in unc.entries}
            for u, e in zip(users, a.entries):
                assert e.user_id == u.user_id
                if e.mcs_index is None:
                    assert e.rate == 0.0 and e.complexity == 0.0
                else:
                    assert e.rate == float(t.rates[e.mcs_index])
                    assert e.rate <= mrs_rate[e.user_id]
                    assert e.complexity == pytest.approx(
                        decode_complexity(PARAMS, u.sinr, e.rate), rel=1e-12
                    )


@pytest.mark.parametrize("seed", [10, 11, 12, 13])
def test_budget_feasibility_exhaustive(seed):
    t = default_table()
    rng = np.random.default_rng(seed)
    for _ in range(100):
        users = random_instance(rng)
        unc = mrs(users, t, PARAMS)
        budget = float(rng.uniform(0.0, 1.0)) * max(unc.sum_complexity, 1e-9)
        for fn in (swf_discrete, scc):
            a = fn(users, t, PARAMS, budget)
            assert a.sum_complexity <= budget


def test_scc_budget_monotonicity():
    t = default_table()
    rng = np.random.default_rng(21)
    for _ in range(200):
        users = random_instance(rng)
        unc = mrs(users, t, PARAMS)
        if unc.sum_complexity <= 0:
            continue
        b1, b2 = np.sort(rng.uniform(0.02, 1.0, size=2)) * unc.sum_complexity
        r1 = scc(users, t, PARAMS, float(b1)).sum_rate
        r2 = scc(users, t, PARAMS, float(b2)).sum_rate
        assert r2 >= r1 - 1e-12


def test_swf_budget_monotonicity_statistical():
    # not guaranteed for the water-level heuristic; demand it on >= 95%
    t = default_table()
    rng = np.random.default_rng(22)
    ok = total = 0
    for _ in range(300):
        users = random_instance(rng)
        unc = mrs(users, t, PARAMS)
        if unc.sum_complexity <= 0:
            continue
        b1, b2 = np.sort(rng.uniform(0.02, 1.0, size=2)) * unc.sum_complexity
        r1 = swf_discrete(users, t, PARAMS, float(b1)).sum_rate
        r2 = swf_discrete(users, t, PARAMS, float(b2)).sum_rate
        total += 1
        ok += r2 >= r1 - 1e-12
    assert ok / total >= 0.95


def test_permutation_symmetry():
    t = default_table()
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        # distinct SINRs so ties cannot mask order dependence
        sinr = np.sort(rng.uniform(0.3, 80.0, size=n)) * (
            1.0 + 1e-6 * np.arange(n)
        )
        users = [UserChannel(k, float(g)) for k, g in enumerate(sinr)]
        unc = mrs(users, t, PARAMS)
        budget = float(rng.uniform(0.1, 0.9)) * max(unc.sum_complexity, 1e-9)
        perm = rng.permutation(n)
        shuffled = [users[i] for i in perm]
        for fn in (
            lambda u: mrs(u, t, PARAMS),
            lambda u: swf_discrete(u, t, PARAMS, budget),
            lambda u: scc(u, t, PARAMS, budget),
        ):
            base = {e.user_id: (e.mcs_index, e.rate) for e in fn(users).entries}
            moved = {
                e.user_id: (e.mcs_index, e.rate) for e in fn(shuffled).entries
            }
            assert base == moved


def test_brute_force_near_optimality_small_instances():
    # exhaustive search over all per-user entry choices on tiny instances;
    # both greedy allocators must stay feasible and reach >= 90% of the
    # optimum sum-rate on >= 95% of instances
    rates5 = [0.5, 1.0, 1.5, 2.0, 2.5]
    t5 = build_table(rates5, nu=NU_02DB)
    rng = np.random.default_rng(77)
    n_inst = 300
    ok_swf = ok_scc = 0
    for _ in range(n_inst):
        users = random_instance(rng, 1, 5, 0.3, 40.0)
        unc = mrs(users, t5, PARAMS)
        budget = float(rng.uniform(0.05, 1.0)) * max(unc.sum_complexity, 1e-6)
        options = []
        for u in users:
            mi = max_feasible_index(t5, u.sinr)
            options.append([None] if mi is None else [None, *range(mi + 1)])
        best = 0.0
        for combo in itertools.product(*options):
            c_tot = r_tot = 0.0
            for u, i in zip(users, combo):
                if i is None:
                    continue
                c_tot += decode_complexity(PARAMS, u.sinr, rates5[i])
                r_tot += rates5[i]
            if c_tot <= budget and r_tot > best:
                best = r_tot
        a_swf = swf_discrete(users, t5, PARAMS, budget)
        a_scc = scc(users, t5, PARAMS, budget)
        assert a_swf.sum_complexity <= budget
        assert a_scc.sum_complexity <= budget
        assert a_swf.sum_rate <= best + 1e-9
        assert a_scc.sum_rate <= best + 1e-9
        if best == 0.0:
            ok_swf += 1
            ok_scc += 1
        else:
            ok_swf += a_swf.sum_rate >= 0.9 * best
            ok_scc += a_scc.sum_rate >= 0.9 * best
    assert ok_swf / n_inst >= 0.95
    assert ok_scc / n_inst >= 0.95


# ----------------------------------------------------- continuous relaxation


def test_continuous_one_user_recovers_expansion_point():
    co = linearize(PARAMS, 3.0, 1.0)
    budget = decode_complexity(PARAMS, 3.0, 1.0)
    sol = continuous_waterfill([co], budget, [2.0])
    assert isinstance(sol, ContinuousSolution)
    np.testing.assert_allclose(sol.rates, [1.0], rtol=1e-6)
    assert sol.water_level == pytest.approx(WL_U1, rel=1e-6)
    assert sol.eta == pytest.approx(1.0 / WL_U1, rel=1e-6)
    assert sol.sum_complexity == pytest.approx(budget, rel=1e-6)


def test_continuous_identical_users_split_evenly():
    co = linearize(PARAMS, 3.0, 1.0)
    budget = 2.0 * decode_complexity(PARAMS, 3.0, 1.0)
    sol = continuous_waterfill([co, co], budget, [2.0, 2.0])
    np.testing.assert_allclose(sol.rates, [1.0, 1.0], rtol=1e-6)
    assert sol.water_level == pytest.approx(WL_U1, rel=1e-6)


def test_continuous_slack_budget_returns_caps():
    co = linearize(PARAMS, 3.0, 1.0)
    caps = np.array([1.0, 1.0])
    spend = 2.0 * (co.quad_alpha + co.quad_beta)
    sol = continuous_waterfill([co, co], spend + 1.0, caps)
    np.testing.assert_allclose(sol.rates, caps, rtol=1e-12)
    assert sol.water_level == pytest.approx(
        2.0 * co.quad_alpha + co.quad_beta, rel=1e-12
    )
    assert sol.sum_complexity == pytest.approx(spend, rel=1e-12)


def test_continuous_zero_budget_and_empty():
    co = linearize(PARAMS, 3.0, 1.0)
    sol = continuous_waterfill([co], 0.0, [1.0])
    np.testing.assert_allclose(sol.rates, [0.0])
    assert sol.water_level == 0.0
    assert sol.eta == math.inf

    empty = continuous_waterfill([], 5.0, [])
    assert empty.rates.shape == (0,)
    assert empty.water_level is None
    assert empty.eta is None
    assert empty.sum_complexity == 0.0


def test_continuous_validation():
    co = linearize(PARAMS, 3.0, 1.0)
    with pytest.raises(ValueError, match="equal lengths"):
        continuous_waterfill([co, co], 1.0, [1.0])
    with pytest.raises(ValueError, match="equal lengths"):
        continuous_waterfill([co], 1.0, [1.0, 1.0])
    with pytest.raises(ValueError, match="budget"):
        continuous_waterfill([co], -1.0, [1.0])
    with pytest.raises(ValueError, match="caps"):
        continuous_waterfill([co], 1.0, [-0.5])
    for alpha in (0.0, -1.0):
        flat = dataclasses.replace(co, quad_alpha=alpha)
        with pytest.raises(ValueError, match="quad_alpha must be > 0"):
            continuous_waterfill([co, flat], 1.0, [1.0, 1.0])


def kkt_violations(coeffs, caps, budget, sol, rtol=1e-6):
    """Collect KKT violations for one continuous solution (empty == optimal)."""
    bad = []
    level = sol.water_level
    alpha = np.array([c.quad_alpha for c in coeffs])
    beta = np.array([c.quad_beta for c in coeffs])
    marginal = 2.0 * alpha * sol.rates + beta
    interior = False
    for k, r in enumerate(sol.rates):
        if r <= 1e-9:
            # not profitable at this level: marginal cost at zero >= level
            if beta[k] < level - 1e-6:
                bad.append(f"user {k}: idle but beta {beta[k]} < level")
        elif r >= caps[k] - 1e-9:
            if marginal[k] > level + 1e-6:
                bad.append(f"user {k}: capped above level")
        else:
            interior = True
            if abs(marginal[k] - level) > 1e-6 * max(1.0, level):
                bad.append(f"user {k}: marginal {marginal[k]} != level {level}")
    if interior and abs(sol.sum_complexity - budget) > rtol * budget:
        bad.append(f"budget not tight: {sol.sum_complexity} vs {budget}")
    return bad


def test_continuous_kkt_randomized():
    rng = np.random.default_rng(600)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        sinr = rng.uniform(0.5, 100.0, size=n)
        caps = np.log2(1.0 + sinr) - 0.01
        r0 = caps * rng.uniform(0.3, 1.0, size=n)
        coeffs = [
            linearize(PARAMS, float(g), float(r)) for g, r in zip(sinr, r0)
        ]
        alpha = np.array([c.quad_alpha for c in coeffs])
        beta = np.array([c.quad_beta for c in coeffs])
        cap_spend = float(np.sum(alpha * caps**2 + beta * caps))
        budget = float(rng.uniform(0.05, 0.95)) * max(cap_spend, 1e-9)
        sol = continuous_waterfill(coeffs, budget, caps)
        assert np.all(sol.rates >= 0.0) and np.all(sol.rates <= caps + 1e-12)
        assert sol.sum_complexity <= budget * (1.0 + 1e-6) + 1e-12
        assert kkt_violations(coeffs, caps, budget, sol) == []
