"""Uplink rate allocation under a sum decoding-cost budget.

Three discrete allocators run the batched schedulers of :mod:`.batch` on a
block of one trial: ``mrs`` (every user at its highest feasible
entry, no budget), ``swf_discrete`` (water-level-guided step-down with a
re-add pass, close to the continuous optimum) and ``scc`` (step down the
most expensive user, a cheaper heuristic).  All three are one function
body, ``_allocate``: it guards each user's capacity gap, runs the
scheduler on a one-row block and reads the allocation back.
``continuous_waterfill`` solves the relaxed problem exactly on the
quadratic cost model by bisection on the water level; the optimality tests
check KKT conditions against it.

All argmax ties break toward the earliest user in the input list, so results
are reproducible for any caller that presents users in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import batch
from .complexity import (
    DomainError,
    LinearizationCoeffs,
    ModelParams,
    _guarded_capacity,
    water_level,
)
from .mcs import McsTable


@dataclass(frozen=True)
class UserChannel:
    """One schedulable user: an id and its linear uplink SINR."""

    user_id: int
    sinr: float

    def __post_init__(self) -> None:
        if not self.sinr > 0.0:
            raise ValueError(
                f"user {self.user_id}: sinr must be > 0, got {self.sinr}"
            )

    @property
    def capacity(self) -> float:
        """Shannon capacity ``log2(1 + sinr)`` in bpcu."""
        return math.log2(1.0 + self.sinr)


@dataclass(frozen=True)
class RateEntry:
    """Outcome for one user: chosen ladder entry (None = not served)."""

    user_id: int
    mcs_index: int | None
    rate: float
    complexity: float


@dataclass(frozen=True)
class RateAllocation:
    """A full allocation with its deterministic left-to-right totals."""

    entries: tuple[RateEntry, ...]
    sum_rate: float
    sum_complexity: float
    budget: float | None    # None for the budget-free allocator

    @property
    def n_served(self) -> int:
        return sum(1 for e in self.entries if e.mcs_index is not None)


@dataclass(frozen=True)
class ContinuousSolution:
    """Relaxed water-filling solution on the quadratic cost model."""

    rates: np.ndarray           # per-user rates, caller's user order
    water_level: float | None   # None when there were no users
    eta: float | None           # 1 / water_level (inf at level 0)
    sum_complexity: float       # quadratic-model cost of ``rates``


def required_water_level(
    coeffs: LinearizationCoeffs, target_complexity: float
) -> float:
    """Water level at which continuous water-filling spends exactly
    ``target_complexity`` on this user.

    Inverts ``quad(r) = C`` for the allocated rate and evaluates the
    marginal-cost line there, giving ``sqrt(4*alpha*C + beta**2)``.  Negative
    targets are allowed for diagnostics as long as the radicand stays
    non-negative.
    """
    alpha, beta = coeffs.quad_alpha, coeffs.quad_beta
    with np.errstate(invalid="ignore"):
        level = float(water_level(alpha, beta, target_complexity))
    # finite inputs give NaN only from a negative radicand; NaN inputs
    # give NaN back
    if math.isnan(level) and all(
        map(math.isfinite, (alpha, beta, target_complexity))
    ):
        raise DomainError(
            f"no water level reaches complexity {target_complexity} with "
            f"quad_alpha {alpha:.3e}, quad_beta {beta:.3e} (radicand < 0)"
        )
    return level


def continuous_waterfill(
    coeffs: list[LinearizationCoeffs],
    budget: float,
    rate_caps: list[float] | np.ndarray,
) -> ContinuousSolution:
    """Exact relaxed allocation: spend ``budget`` across users, one per
    entry of ``coeffs`` and ``rate_caps``, so marginal quadratic costs
    equalize at a common water level.

    Each user's rate is ``min(cap, (level - beta) / (2 * alpha))`` clamped at
    zero; the level is found by bisection (the spent budget is non-decreasing
    in the level).  When even the caps fit the budget the caps are returned
    with the smallest level that reaches them.
    """
    n = len(coeffs)
    if len(rate_caps) != n:
        raise ValueError(
            f"coeffs ({n}) and rate_caps ({len(rate_caps)}) must have equal "
            "lengths"
        )
    if not budget >= 0.0:
        raise ValueError(f"budget must be >= 0, got {budget}")

    if n == 0:
        return ContinuousSolution(
            rates=np.zeros(0), water_level=None, eta=None, sum_complexity=0.0
        )

    alpha = np.array([c.quad_alpha for c in coeffs], dtype=np.float64)
    beta = np.array([c.quad_beta for c in coeffs], dtype=np.float64)
    caps = np.asarray(rate_caps, dtype=np.float64)
    if np.any(alpha <= 0.0):
        raise ValueError("every quad_alpha must be > 0")
    if np.any(caps < 0.0):
        raise ValueError("rate caps must be >= 0")

    def rates_at(level: float) -> np.ndarray:
        return np.clip((level - beta) / (2.0 * alpha), 0.0, caps)

    def spend(rates: np.ndarray) -> float:
        return float(np.sum(alpha * rates * rates + beta * rates))

    if budget == 0.0:
        zero = np.zeros(n)
        return ContinuousSolution(
            rates=zero, water_level=0.0, eta=math.inf,
            sum_complexity=spend(zero),
        )

    cap_spend = spend(caps)
    level_at_cap = 2.0 * alpha * caps + beta
    if cap_spend <= budget:
        level = max(float(np.max(level_at_cap)), 0.0)
        return ContinuousSolution(
            rates=caps.copy(),
            water_level=level,
            eta=math.inf if level == 0.0 else 1.0 / level,
            sum_complexity=cap_spend,
        )

    lo = 0.0
    hi = float(np.max(level_at_cap))
    tol = 1e-9 * budget
    level = hi
    for _ in range(200):
        level = 0.5 * (lo + hi)
        total = spend(rates_at(level))
        if abs(total - budget) <= tol:
            break
        if total < budget:
            lo = level
        else:
            hi = level
    rates = rates_at(level)
    return ContinuousSolution(
        rates=rates,
        water_level=level,
        eta=math.inf if level == 0.0 else 1.0 / level,
        sum_complexity=spend(rates),
    )


def _allocate(
    kind,
    users: list[UserChannel],
    table: McsTable,
    params: ModelParams,
    budget: float | None,
) -> RateAllocation:
    """Run scheduler function ``kind`` of :mod:`.batch` on ``users``
    (``budget`` None: no budget, for max-rate)."""
    if budget is not None:
        budget = float(budget)
        if not budget >= 0.0:
            raise ValueError(f"budget must be >= 0, got {budget}")
    # the greedy kernels take log2 of the capacity gap at the max feasible
    # entry, so a user closer than GAP_GUARD to capacity is rejected here;
    # capacities use the campaign kernel's scalar math.log2, so an
    # allocation equals the campaign's for the same SINRs, bit for bit
    sinr = np.array([u.sinr for u in users], dtype=np.float64)
    mf = batch.max_feasible(table.thresholds, sinr)
    cap = np.array([
        _guarded_capacity(u.sinr, table.rates[i]) if i >= 0 else u.capacity
        for u, i in zip(users, mf)
    ], dtype=np.float64)
    idx, comp, sum_rate, sum_comp = batch.schedule_block(
        kind, mf[None], cap[None], table.rates, *params.kernel_constants(),
        math.inf if budget is None else budget,
    )
    return RateAllocation(
        entries=tuple(
            RateEntry(
                user_id=u.user_id,
                mcs_index=int(i) if i >= 0 else None,
                rate=float(table.rates[i]) if i >= 0 else 0.0,
                complexity=float(c),
            )
            for u, i, c in zip(users, idx[0], comp[0])
        ),
        sum_rate=float(sum_rate[0]),
        sum_complexity=float(sum_comp[0]),
        budget=budget,
    )


def mrs(
    users: list[UserChannel], table: McsTable, params: ModelParams
) -> RateAllocation:
    """Max-rate selection: every user at its highest feasible ladder entry."""
    return _allocate(batch.mrs, users, table, params, None)


def swf_discrete(
    users: list[UserChannel],
    table: McsTable,
    params: ModelParams,
    budget: float,
) -> RateAllocation:
    """Water-level-guided allocation under a sum cost budget.

    Users start at their max feasible entries; while the total cost exceeds
    the budget, the user whose operating point demands the highest water
    level steps down one entry (ties to the earliest user).  A final pass
    re-admits dropped users, highest water level at their max feasible entry
    first, wherever the budget allows.
    """
    return _allocate(batch.swf, users, table, params, budget)


def scc(
    users: list[UserChannel],
    table: McsTable,
    params: ModelParams,
    budget: float,
) -> RateAllocation:
    """Cost-greedy allocation: step down the most expensive user until the
    total cost fits the budget (ties to the earliest user)."""
    return _allocate(batch.scc, users, table, params, budget)
