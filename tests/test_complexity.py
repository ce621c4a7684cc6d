"""Unit tests for the decoder-cost model and its tangent quadratic."""

import math

import numpy as np
import pytest

from cran_sched import (
    GAP_GUARD,
    DomainError,
    LinearizationCoeffs,
    ModelParams,
    decode_complexity,
    gap,
    iteration_count,
    linearize,
    quadratic_complexity,
)

# Frozen high-precision reference values (mpmath, 50 digits; tools/oracles.py).
C_G3_R1 = 0.74807036358740776        # cost at sinr=3, rate=1
C_G15_R3 = 2.2442110907622233        # cost at sinr=15, rate=3
RAW_G15_R1 = -0.61714202538456283    # unclamped cost at sinr=15, rate=1
A_G3_R1 = -1.4426950408889634        # tangent slope at sinr=3, r0=1
B_G3_R1 = 1.4426950408889634
ALPHA_G3_R1 = 1.2426698691192236
BETA_G3_R1 = -0.49459950553181587
QUAD_G3_R1_AT_HALF = 0.063367714513897972
A_G3_RHALF = -0.9617966939259756     # tangent slope at sinr=3, r0=0.5
B_G3_RHALF = 1.065860847684144
ALPHA_G3_RHALF = 0.82844657941281575
BETA_G3_RHALF = -0.17001219894418461
C_G3_RHALF = 0.12210554538111163     # cost at sinr=3, rate=0.5


def test_k_factor_reference_points():
    assert ModelParams(k_prime=0.2, eps_channel=0.1).k_eps == pytest.approx(
        0.2, rel=1e-12
    )
    assert ModelParams(k_prime=0.2, eps_channel=0.01).k_eps == pytest.approx(
        0.1, rel=1e-12
    )


def test_gap_reference_points():
    assert gap(3.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert gap(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert gap(15.0, 1.0) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(DomainError):
        gap(-0.5, 1.0)


def test_decode_complexity_frozen_values():
    p = ModelParams()
    assert decode_complexity(p, 3.0, 1.0) == pytest.approx(C_G3_R1, rel=1e-9)
    assert decode_complexity(p, 15.0, 3.0) == pytest.approx(C_G15_R3, rel=1e-9)
    assert decode_complexity(p, 3.0, 0.5) == pytest.approx(C_G3_RHALF, rel=1e-9)


def test_decode_complexity_clamps_far_from_capacity():
    # At sinr=15, rate=1 the fitted form goes negative and must clamp to zero.
    p = ModelParams()
    assert decode_complexity(p, 15.0, 1.0) == 0.0
    # the unclamped per-bit count is still reported by the diagnostic
    assert iteration_count(p, 15.0, 1.0) == pytest.approx(RAW_G15_R1, rel=1e-9)


def test_decode_complexity_zero_rate_is_free():
    p = ModelParams()
    assert decode_complexity(p, 3.0, 0.0) == 0.0
    assert decode_complexity(p, 0.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        decode_complexity(p, 3.0, -0.1)


def test_decode_complexity_guard_at_capacity():
    p = ModelParams()
    with pytest.raises(DomainError):
        decode_complexity(p, 1.0, 1.0)  # gap exactly 0
    with pytest.raises(DomainError):
        decode_complexity(p, 3.0, 2.0 - 0.5 * GAP_GUARD)


def test_iteration_count_matches_cost_per_bit():
    p = ModelParams()
    assert iteration_count(p, 3.0, 1.0) == pytest.approx(C_G3_R1, rel=1e-9)
    # cost = rate * per-bit iterations wherever the clamp is inactive
    assert iteration_count(p, 15.0, 3.0) == pytest.approx(C_G15_R3 / 3.0, rel=1e-9)
    with pytest.raises(DomainError):
        iteration_count(p, 3.0, 0.0)


def test_linearize_frozen_coefficients():
    p = ModelParams()
    co = linearize(p, 3.0, 1.0)
    assert isinstance(co, LinearizationCoeffs)
    assert co.a == pytest.approx(A_G3_R1, rel=1e-9)
    assert co.b == pytest.approx(B_G3_R1, rel=1e-9)
    assert co.quad_alpha == pytest.approx(ALPHA_G3_R1, rel=1e-9)
    assert co.quad_beta == pytest.approx(BETA_G3_R1, rel=1e-9)
    assert co.expansion_rate == 1.0 and co.sinr == 3.0
    assert quadratic_complexity(co, 1.0) == pytest.approx(C_G3_R1, rel=1e-9)
    assert quadratic_complexity(co, 0.5) == pytest.approx(
        QUAD_G3_R1_AT_HALF, rel=1e-9
    )

    co2 = linearize(p, 3.0, 0.5)
    assert co2.a == pytest.approx(A_G3_RHALF, rel=1e-9)
    assert co2.b == pytest.approx(B_G3_RHALF, rel=1e-9)
    assert co2.quad_alpha == pytest.approx(ALPHA_G3_RHALF, rel=1e-9)
    assert co2.quad_beta == pytest.approx(BETA_G3_RHALF, rel=1e-9)
    # the quadratic is exact at its own expansion point
    assert quadratic_complexity(co2, 0.5) == pytest.approx(C_G3_RHALF, rel=1e-9)


def test_linearize_rejects_zero_gap():
    p = ModelParams()
    with pytest.raises(DomainError):
        linearize(p, 3.0, 2.0)  # log2(4) - 2 = 0


def test_quadratic_exact_at_expansion_point_everywhere():
    # Tangency property on a sampled operating grid: the quadratic reproduces
    # the unclamped cost at the expansion rate to 1e-9 relative.
    p = ModelParams()
    rng = np.random.default_rng(2024)
    for _ in range(500):
        sinr = float(rng.uniform(0.2, 120.0))
        cap = math.log2(1.0 + sinr)
        r0 = float(cap - rng.uniform(1e-3, 0.9))
        if r0 <= 0:
            continue
        co = linearize(p, sinr, r0)
        exact = r0 * iteration_count(p, sinr, r0)
        assert quadratic_complexity(co, r0) == pytest.approx(exact, rel=1e-9)
        assert co.a < 0.0
        assert co.quad_alpha > 0.0


def test_tangent_slope_matches_finite_difference():
    p = ModelParams()
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(100):
        sinr = float(rng.uniform(0.5, 50.0))
        cap = math.log2(1.0 + sinr)
        r0 = float(cap - rng.uniform(0.05, 0.8))
        if r0 <= h:
            continue
        co = linearize(p, sinr, r0)
        fd = (math.log2(gap(sinr, r0 + h)) - math.log2(gap(sinr, r0 - h))) / (2 * h)
        assert co.a == pytest.approx(fd, rel=1e-5)


def test_cost_increases_toward_capacity():
    # With the gap below 1 bpcu both bracket terms grow in the rate, so the
    # clamped cost is strictly increasing as the rate approaches capacity.
    p = ModelParams()
    sinr = 10.0
    cap = math.log2(1.0 + sinr)
    rates = np.linspace(cap - 0.9, cap - 1e-4, 64)
    costs = [decode_complexity(p, sinr, float(r)) for r in rates]
    assert all(b > a > 0.0 for a, b in zip(costs, costs[1:]))


def test_model_params_validation():
    with pytest.raises(ValueError, match="k_prime"):
        ModelParams(k_prime=0.0)
    with pytest.raises(ValueError, match="zeta"):
        ModelParams(zeta=2.0)
    with pytest.raises(ValueError, match="eps_channel"):
        ModelParams(eps_channel=0.0)
    with pytest.raises(ValueError, match="eps_channel"):
        ModelParams(eps_channel=1.0)


def test_kernel_constants_consistent_with_cost():
    p = ModelParams()
    c0, ilz = p.kernel_constants()
    # at gap exactly 1 the log term vanishes: cost(rate=1) = ilz * c0
    assert ilz * c0 == pytest.approx(C_G3_R1, rel=1e-12)
    assert ilz == pytest.approx(1.0 / math.log2(5.0), rel=1e-12)
