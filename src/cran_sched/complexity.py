"""Turbo-decoder complexity model and its quadratic approximation.

Decoding a rate-``r`` codeword received at SINR ``g`` costs

    C(g, r) = r / log2(zeta - 1) * [log2((zeta - 2) / (K * zeta)) - 2 * log2(gap)]

bit-iterations per channel use, where ``gap = log2(1 + g) - r`` is the
distance of the operating point from capacity and ``K`` scales the iteration
count with the target codeword error rate.  The cost blows up logarithmically
as the gap closes and is clamped at zero from below (far from capacity the
fitted closed form goes negative; physically the decoder converges in
essentially no iterations there).

Linearizing ``log2(gap)`` in the rate turns the cost into a quadratic
``quad_alpha * r**2 + quad_beta * r`` that downstream water-filling and the
greedy schedulers rely on.  The tangent construction makes the quadratic agree
with the exact cost at the expansion rate, which the test suite pins to 1e-9.

Each formula is written once, below, on ``lg = log2(cap - rate)``, and works
on floats and on NumPy arrays alike: :func:`raw_cost`, :func:`cost`,
:func:`tangent` and :func:`water_level`.  The campaign's batched kernels
(:mod:`.batch`) call them on arrays, the functions here check their inputs
and call them on floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# below this capacity gap (bpcu) the log blows up; callers must stay above it
GAP_GUARD = 1e-9

_LN2 = math.log(2.0)


def raw_cost(rate, lg, c0, ilz):
    """Unclamped decoding cost ``rate * ilz * (c0 - 2 * lg)`` of ``rate``
    with ``lg = log2(cap - rate)``.  At ``rate = 1.0`` it is the per-bit
    iteration count, bit for bit, since ``1.0 * ilz`` is exact."""
    return rate * ilz * (c0 - 2.0 * lg)


def cost(rate, lg, c0, ilz):
    """:func:`raw_cost` clamped at zero from below."""
    raw = raw_cost(rate, lg, c0, ilz)
    return np.where(raw > 0.0, raw, 0.0)


def tangent(rate, cap, lg, c0, ilz):
    """Tangent ``a * r + b`` of ``log2(cap - r)`` at ``rate``, with
    ``lg = log2(cap - rate)``, and the induced quadratic cost coefficients:
    returns ``(a, b, quad_alpha, quad_beta)``."""
    a = -1.0 / (_LN2 * (cap - rate))
    b = lg - a * rate
    return a, b, -2.0 * a * ilz, (c0 - 2.0 * b) * ilz


def water_level(quad_alpha, quad_beta, comp):
    """Water level ``sqrt(4 * quad_alpha * comp + quad_beta**2)`` at which
    continuous water-filling spends ``comp`` on a user; NaN where the
    radicand is negative."""
    return np.sqrt(4.0 * quad_alpha * comp + quad_beta * quad_beta)


class DomainError(ValueError):
    """An input left the domain where the closed forms are defined."""


@dataclass(frozen=True)
class ModelParams:
    """Turbo-decoder constants of the decoding cost C(g, r)."""

    k_prime: float = 0.2        # iteration-count fit constant (> 0)
    zeta: float = 6.0           # convergence-speed fit constant (> 2)
    eps_channel: float = 0.1    # target codeword error rate in (0, 1)

    def __post_init__(self) -> None:
        if not 0 < self.k_prime < math.inf:
            raise ValueError(
                f"k_prime must be > 0 and finite, got {self.k_prime}"
            )
        if not 2 < self.zeta < math.inf:
            raise ValueError(f"zeta must be > 2 and finite, got {self.zeta}")
        if not 0 < self.eps_channel < 1:
            raise ValueError(
                f"eps_channel must be in (0, 1), got {self.eps_channel}"
            )

    @property
    def k_eps(self) -> float:
        """Iteration scale factor for the configured target error rate."""
        return -self.k_prime / math.log10(self.eps_channel)

    def kernel_constants(self) -> tuple[float, float]:
        """Precomputed ``(c0, ilz)`` pair used by the kernels.

        ``c0`` is the rate-independent bracket term
        ``log2((zeta - 2) / (k_eps * zeta))`` and ``ilz`` is
        ``1 / log2(zeta - 1)``.
        """
        c0 = math.log2((self.zeta - 2.0) / (self.k_eps * self.zeta))
        ilz = 1.0 / math.log2(self.zeta - 1.0)
        return c0, ilz


@dataclass(frozen=True)
class LinearizationCoeffs:
    """Tangent-line and induced quadratic coefficients at one operating point."""

    a: float                # slope of log2(gap) in the rate (always < 0)
    b: float                # intercept of the tangent line
    quad_alpha: float       # quadratic rate coefficient (always > 0)
    quad_beta: float        # linear rate coefficient (either sign)
    expansion_rate: float   # rate the tangent was taken at
    sinr: float             # linear SINR of the operating point


def gap(sinr: float, rate: float) -> float:
    """Capacity gap ``log2(1 + sinr) - rate`` in bpcu.

    Parameters
    ----------
    sinr : float
        Linear (not dB) SINR, >= 0.
    rate : float
        Spectral efficiency in bpcu.
    """
    if sinr < 0:
        raise DomainError(f"sinr must be >= 0, got {sinr}")
    return math.log2(1.0 + sinr) - rate


def _guarded_capacity(sinr: float, rate: float) -> float:
    """Capacity ``log2(1 + sinr)``, checked to lie GAP_GUARD above ``rate``."""
    # the capacity bit for bit, since x - 0.0 == x
    cap = gap(sinr, 0.0)
    if cap - rate < GAP_GUARD:
        raise DomainError(
            f"capacity gap {cap - rate:.3e} below guard {GAP_GUARD:.0e} "
            f"(sinr={sinr}, rate={rate})"
        )
    return cap


def decode_complexity(params: ModelParams, sinr: float, rate: float) -> float:
    """Decoding cost in bit-iterations per channel use, clamped at zero.

    A zero rate costs nothing and short-circuits before any log is taken.
    Positive rates must keep the capacity gap above ``GAP_GUARD``.
    """
    if rate < 0:
        raise DomainError(f"rate must be >= 0, got {rate}")
    if rate == 0.0:
        return 0.0
    cap = _guarded_capacity(sinr, rate)
    c0, ilz = params.kernel_constants()
    return float(cost(rate, math.log2(cap - rate), c0, ilz))


def iteration_count(params: ModelParams, sinr: float, rate: float) -> float:
    """Unclamped per-bit iteration count, for diagnostics.

    Returns the raw (possibly negative) cost divided by the rate; values
    above the decoder's iteration cap (a config's ``l_max``, 8 by default)
    flag operating points the fitted decoder cannot reach.
    """
    if rate <= 0:
        raise DomainError(f"rate must be > 0, got {rate}")
    cap = _guarded_capacity(sinr, rate)
    return raw_cost(1.0, math.log2(cap - rate), *params.kernel_constants())


def linearize(
    params: ModelParams, sinr: float, expansion_rate: float
) -> LinearizationCoeffs:
    """Tangent of ``log2(gap)`` at ``expansion_rate`` and the induced quadratic.

    The tangent ``a * r + b`` replaces ``log2(gap)`` inside the cost bracket,
    giving ``quad_alpha * r**2 + quad_beta * r``; by construction the
    quadratic equals the exact (unclamped) cost at the expansion rate.
    """
    cap = _guarded_capacity(sinr, expansion_rate)
    a, b, quad_alpha, quad_beta = tangent(
        expansion_rate, cap, math.log2(cap - expansion_rate),
        *params.kernel_constants(),
    )
    return LinearizationCoeffs(
        a=a,
        b=b,
        quad_alpha=quad_alpha,
        quad_beta=quad_beta,
        expansion_rate=expansion_rate,
        sinr=sinr,
    )


def quadratic_complexity(coeffs: LinearizationCoeffs, rate: float) -> float:
    """Quadratic cost model ``quad_alpha * rate**2 + quad_beta * rate``."""
    return coeffs.quad_alpha * rate * rate + coeffs.quad_beta * rate
