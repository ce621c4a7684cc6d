"""Uplink rate allocation under a sum decoding-cost budget.

Three discrete allocators share the greedy skeleton in :mod:`.kernels`:

* ``mrs``  -- every user at its highest feasible ladder entry, no budget.
* ``swf_discrete`` -- step down the user whose operating point demands the highest
  water level (the level a continuous water-filler would need to reach that
  rate under the local quadratic cost model), then try to re-admit dropped
  users; keeps the allocation close to the continuous optimum.
* ``scc``  -- step down the single most expensive user; a cheaper heuristic
  that targets the largest immediate cost reduction.

``continuous_waterfill`` solves the relaxed problem exactly on the quadratic
cost model via bisection on the water level and is the reference the
optimality tests check KKT conditions against.

All argmax ties break toward the earliest user in the input list, so results
are reproducible for any caller that presents users in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .complexity import (
    GAP_GUARD,
    DomainError,
    LinearizationCoeffs,
    ModelParams,
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
    rad = 4.0 * coeffs.quad_alpha * target_complexity + coeffs.quad_beta**2
    if rad < 0.0:
        raise DomainError(
            f"no water level reaches complexity {target_complexity} "
            f"(radicand {rad:.3e} < 0)"
        )
    return math.sqrt(rad)


def continuous_waterfill(
    users: list[UserChannel],
    coeffs: list[LinearizationCoeffs],
    budget: float,
    rate_caps: list[float] | np.ndarray,
) -> ContinuousSolution:
    """Exact relaxed allocation: spend ``budget`` across users so marginal
    quadratic costs equalize at a common water level.

    Each user's rate is ``min(cap, (level - beta) / (2 * alpha))`` clamped at
    zero; the level is found by bisection (the spent budget is non-decreasing
    in the level).  When even the caps fit the budget the caps are returned
    with the smallest level that reaches them.
    """
    if len(coeffs) != len(users) or len(rate_caps) != len(users):
        raise ValueError(
            f"users ({len(users)}), coeffs ({len(coeffs)}) and rate_caps "
            f"({len(rate_caps)}) must have equal lengths"
        )
    if not budget >= 0.0:
        raise ValueError(f"budget must be >= 0, got {budget}")

    n = len(users)
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


def _user_arrays(
    users: list[UserChannel], table: McsTable
) -> tuple[np.ndarray, np.ndarray]:
    """SINR/capacity arrays in input order, with the gap guard pre-checked.

    The greedy kernels take ``log2`` of the capacity gap at the max feasible
    entry, so any user sitting closer than GAP_GUARD to capacity is rejected
    here with the same error the closed-form API raises.
    """
    sinr = np.array([u.sinr for u in users], dtype=np.float64)
    cap = np.log2(1.0 + sinr) if len(users) else np.zeros(0)
    for k, u in enumerate(users):
        i = kernels.max_feasible_idx(table.thresholds, u.sinr)
        if i >= 0 and cap[k] - table.rates[i] < GAP_GUARD:
            raise DomainError(
                f"user {u.user_id}: capacity gap "
                f"{cap[k] - table.rates[i]:.3e} below guard "
                f"{GAP_GUARD:.0e} at ladder entry {i}"
            )
    return sinr, cap


def _build_allocation(
    users: list[UserChannel],
    table: McsTable,
    idx: np.ndarray,
    comp: np.ndarray,
    sum_rate: float,
    sum_complexity: float,
    budget: float | None,
) -> RateAllocation:
    entries = tuple(
        RateEntry(
            user_id=u.user_id,
            mcs_index=int(idx[k]) if idx[k] >= 0 else None,
            rate=float(table.rates[idx[k]]) if idx[k] >= 0 else 0.0,
            complexity=float(comp[k]),
        )
        for k, u in enumerate(users)
    )
    return RateAllocation(
        entries=entries,
        sum_rate=float(sum_rate),
        sum_complexity=float(sum_complexity),
        budget=budget,
    )


def _check_budget(budget: float) -> float:
    budget = float(budget)
    if not budget >= 0.0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    return budget


def mrs(
    users: list[UserChannel], table: McsTable, params: ModelParams
) -> RateAllocation:
    """Max-rate selection: every user at its highest feasible ladder entry."""
    sinr, cap = _user_arrays(users, table)
    c0, ilz = params.kernel_constants()
    idx = np.empty(len(users), np.int64)
    comp = np.empty(len(users), np.float64)
    sum_rate, sum_comp = kernels.mrs_trial(
        sinr, cap, table.thresholds, table.rates, c0, ilz, idx, comp
    )
    return _build_allocation(users, table, idx, comp, sum_rate, sum_comp, None)


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
    budget = _check_budget(budget)
    sinr, cap = _user_arrays(users, table)
    c0, ilz = params.kernel_constants()
    idx = np.empty(len(users), np.int64)
    comp = np.empty(len(users), np.float64)
    sum_rate, sum_comp = kernels.swf_trial(
        sinr, cap, table.thresholds, table.rates, c0, ilz,
        budget, False, idx, comp,
    )
    return _build_allocation(
        users, table, idx, comp, sum_rate, sum_comp, budget
    )


def scc(
    users: list[UserChannel],
    table: McsTable,
    params: ModelParams,
    budget: float,
) -> RateAllocation:
    """Cost-greedy allocation: step down the most expensive user until the
    total cost fits the budget (ties to the earliest user)."""
    budget = _check_budget(budget)
    sinr, cap = _user_arrays(users, table)
    c0, ilz = params.kernel_constants()
    idx = np.empty(len(users), np.int64)
    comp = np.empty(len(users), np.float64)
    sum_rate, sum_comp = kernels.scc_trial(
        sinr, cap, table.thresholds, table.rates, c0, ilz, budget, idx, comp
    )
    return _build_allocation(
        users, table, idx, comp, sum_rate, sum_comp, budget
    )
