"""Discrete MCS table: spectral-efficiency ladder and SINR thresholds.

Each entry pairs a rate ``r_i`` (bpcu) with the lowest SINR that supports it,
``thr_i = nu * (2**r_i - 1)`` — the capacity-achieving SINR for ``r_i``
scaled by a margin ``nu`` (configured in dB, stored linear).  A user with
SINR ``g`` may transmit at any entry with ``thr_i <= g``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import max_feasible
from .complexity import ModelParams

# LTE/NR AMC efficiency ladder at MCS-table granularity (bpcu), with the two
# modulation-switch near-duplicates and the 5.3320 step dropped: 27 strictly
# increasing levels from 0.1523 to 5.5547.
DEFAULT_RATES: tuple[float, ...] = (
    0.1523, 0.2344, 0.3066, 0.3770, 0.4385, 0.5879, 0.7402, 0.8770, 1.0273,
    1.1758, 1.3262, 1.4766, 1.6953, 1.9141, 2.1602, 2.4063, 2.5703, 2.7305,
    3.0293, 3.3223, 3.6094, 3.9023, 4.2129, 4.5234, 4.8164, 5.1152, 5.5547,
)


def db_to_linear(db: float) -> float:
    """Power ratio for a dB value (0.2 dB -> 10**0.02)."""
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class McsTable:
    """Strictly increasing rates with their minimum-SINR thresholds."""

    rates: np.ndarray       # bpcu, strictly increasing
    thresholds: np.ndarray  # linear SINR, strictly increasing, same length
    nu: float               # SNR margin used to build the thresholds

    @property
    def n(self) -> int:
        return len(self.rates)

    @property
    def entries(self) -> list[tuple[int, float, float]]:
        """(index, rate, threshold) triples, lowest rate first."""
        return [
            (i, float(r), float(t))
            for i, (r, t) in enumerate(zip(self.rates, self.thresholds))
        ]


def build_table(rates, nu: float) -> McsTable:
    """Build a table from a strictly increasing rate ladder and margin ``nu``.

    The thresholds invert the rate law ``r = log2(1 + thr / nu)``.
    """
    r = np.asarray(rates, dtype=np.float64)
    if r.ndim != 1 or len(r) == 0:
        raise ValueError("rates must be a non-empty 1-d sequence")
    if not np.isfinite(r).all():
        raise ValueError("rates must be finite")
    if np.any(r <= 0):
        raise ValueError("rates must be positive")
    if np.any(np.diff(r) <= 0):
        raise ValueError("rates must be strictly increasing")
    if not nu > 0:
        raise ValueError(f"nu must be > 0, got {nu}")
    thresholds = nu * (np.exp2(r) - 1.0)
    return McsTable(rates=r, thresholds=thresholds, nu=float(nu))


def default_table(params: ModelParams) -> McsTable:
    """The 27-level default ladder with the margin taken from ``params.nu``."""
    return build_table(DEFAULT_RATES, params.nu)


def max_feasible_index(table: McsTable, sinr: float) -> int | None:
    """Highest entry whose threshold the SINR meets (inclusive), else None.

    A NaN SINR meets no threshold.
    """
    idx = int(max_feasible(table.thresholds, sinr))
    return idx if idx >= 0 else None


def load_rates(path) -> list[float]:
    """Read a custom rate ladder: one bpcu value per line, # comments allowed."""
    rates: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                rates.append(float(text))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not a rate: {text!r}") from exc
    if not rates:
        raise ValueError(f"{path}: no rates found")
    return rates
