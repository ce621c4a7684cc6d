"""System-level channel generator: layouts, cells, user placement, SINR.

A layout is a set of base-station positions in a rectangular arena with a
designated subset of centrally processed cells.  Cells are the Voronoi
regions of the BS positions; their areas are estimated by uniform sampling
and the sample points double as the per-cell user-position pool, so a drawn
user always lies in its serving cell.

Per trial, each instantiated cell is independently occupied with probability
``1 - exp(-lambda * area)``; an occupied cell gets one user at a uniformly
chosen pool point, transmitting with fractional power control
``p0 * d**(s*apl)`` over distance-``apl`` path loss and unit-mean exponential
(Rayleigh power) fading.  The uplink SINR at scheduled cell k is

    p0 * h_kk * d_k**((s-1)*apl)
    -----------------------------------------------------------
    noise + sum_i p0 * d_i**(s*apl) * h_ik * |Y_k - X_i|**(-apl)

with i ranging over the other occupied instantiated cells.  By default only
the scheduled cells are instantiated; callers may add further
interference-only cells (see :func:`assemble_cells`).

Every random quantity is a fixed-length transform of one uniform row, so a
trial is a pure function of its seed (see :mod:`.kernels`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import kernels

# distances below 10 m are clamped to keep the path-loss model sane
MIN_DISTANCE_KM = 0.01

# sample points per nearest-BS pass in estimate_cell_areas; keeps the
# (points x BSs) distance temporaries in cache
_OWNER_CHUNK = 512


class LayoutError(ValueError):
    """A layout file or layout construction request was invalid."""


@dataclass(frozen=True)
class Arena:
    """Axis-aligned rectangle in km."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise LayoutError(
                f"arena must have positive extent, got "
                f"({self.xmin}, {self.ymin}, {self.xmax}, {self.ymax})"
            )

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))

    def contains(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax


@dataclass(frozen=True)
class NetworkLayout:
    """BS positions in an arena plus the centrally processed subset."""

    bs_positions: np.ndarray        # (n_bs, 2) km
    arena: Arena
    centralized_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        pos = np.asarray(self.bs_positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] == 0:
            raise LayoutError("bs_positions must be a non-empty (n, 2) array")
        object.__setattr__(self, "bs_positions", pos)
        for k in range(pos.shape[0]):
            if not self.arena.contains(pos[k, 0], pos[k, 1]):
                raise LayoutError(
                    f"BS {k} at ({pos[k, 0]}, {pos[k, 1]}) lies outside "
                    f"the arena"
                )
        ids = tuple(int(i) for i in self.centralized_ids)
        if not ids:
            raise LayoutError("centralized_ids must be non-empty")
        if len(set(ids)) != len(ids):
            raise LayoutError(f"centralized_ids has duplicates: {ids}")
        for i in ids:
            if not 0 <= i < pos.shape[0]:
                raise LayoutError(
                    f"centralized id {i} out of range for "
                    f"{pos.shape[0]} base stations"
                )
        object.__setattr__(self, "centralized_ids", ids)

    @property
    def n_bs(self) -> int:
        return int(self.bs_positions.shape[0])

    @property
    def n_centralized(self) -> int:
        return len(self.centralized_ids)

    def with_centralized(self, ids) -> "NetworkLayout":
        """Same layout with a different centrally processed subset."""
        return NetworkLayout(self.bs_positions, self.arena, tuple(ids))


@dataclass(frozen=True)
class CellGeometry:
    """Monte-Carlo Voronoi cell areas plus the sample-point pools.

    ``pool_xy``/``pool_off`` hold the sample points grouped by nearest BS so
    ``pool_xy[pool_off[k]:pool_off[k+1]]`` is cell k's user-position pool.
    """

    areas: np.ndarray       # (n_bs,) km^2, sums to the arena area
    pool_xy: np.ndarray     # (n_samples, 2) points grouped by owner
    pool_off: np.ndarray    # (n_bs + 1,) pool slice offsets

    @property
    def n_bs(self) -> int:
        return int(self.areas.shape[0])


@dataclass(frozen=True)
class PhyParams:
    """Radio-level constants for placement, power control and SINR."""

    pathloss_exponent: float = 3.7   # distance exponent (> 2)
    s: float = 0.1                   # fractional power-control compensation
    p0: float = 10.0                 # reference transmit power, W
    noise_w: float = 0.1             # receiver noise power, W
    lambda_density: float = 1.0      # user intensity, users per km^2

    def __post_init__(self) -> None:
        if not self.pathloss_exponent > 2.0:
            raise ValueError(
                f"pathloss_exponent must be > 2, got {self.pathloss_exponent}"
            )
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"s must be in [0,1], got {self.s}")
        if not self.p0 > 0.0:
            raise ValueError(f"p0 must be > 0, got {self.p0}")
        if not self.noise_w > 0.0:
            raise ValueError(f"noise_w must be > 0, got {self.noise_w}")
        if not self.lambda_density > 0.0:
            raise ValueError(
                f"lambda_density must be > 0, got {self.lambda_density}"
            )


@dataclass(frozen=True)
class CellArrays:
    """Kernel-ready arrays for one set of instantiated cells.

    The first ``nc`` cells are scheduled; any further cells are
    interference-only.  ``row_len`` is the number of uniforms one trial
    consumes: occupancy + position per instantiated cell, one fading gain
    per (instantiated cell, scheduled cell) pair.
    """

    cell_ids: tuple[int, ...]   # layout BS ids, scheduled cells first
    nc: int                     # number of scheduled cells
    p_occ: np.ndarray           # (n_inst,) occupancy probabilities
    pool_xy: np.ndarray         # stacked per-cell position pools
    pool_off: np.ndarray        # (n_inst + 1,) pool slice offsets
    bs_xy: np.ndarray           # (n_inst, 2) BS positions

    @property
    def n_inst(self) -> int:
        return int(self.p_occ.shape[0])

    @property
    def row_len(self) -> int:
        return 2 * self.n_inst + self.n_inst * self.nc


@dataclass(frozen=True)
class TrialDraw:
    """One trial's channel realization over a set of instantiated cells.

    Arrays are indexed by instantiated-cell position (scheduled cells
    first); unoccupied cells carry NaN positions/distances.  ``fading`` has
    one unit-mean exponential gain per (instantiated cell, scheduled cell)
    pair, row i being the gains from cell i's user towards each scheduled
    BS.
    """

    cells: CellArrays
    occupied: np.ndarray            # (n_inst,) bool
    positions: np.ndarray           # (n_inst, 2) km, NaN when empty
    serving_distance: np.ndarray    # (n_inst,) km, NaN when empty
    cross_distance: np.ndarray      # (n_inst, nc) km, NaN when empty
    fading: np.ndarray              # (n_inst, nc) gains, > 0
    rng_seed: object                # seed the draw derives from

    @property
    def n_active(self) -> int:
        """Occupied scheduled cells."""
        return int(np.count_nonzero(self.occupied[: self.cells.nc]))


def occupancy_probability(phy: PhyParams, area: float) -> float:
    """Probability ``1 - exp(-lambda * area)`` that a cell holds a user."""
    return -math.expm1(-phy.lambda_density * area)


def _central_ids(positions: np.ndarray, arena: Arena, n: int) -> tuple:
    cx, cy = arena.center
    dist = np.hypot(positions[:, 0] - cx, positions[:, 1] - cy)
    order = np.argsort(dist, kind="stable")
    return tuple(sorted(int(i) for i in order[:n]))


def most_central_ids(layout: NetworkLayout, n: int) -> tuple[int, ...]:
    """The ``n`` BS ids nearest the arena center (ties to the lower id)."""
    if not 1 <= n <= layout.n_bs:
        raise LayoutError(f"n must be in [1, {layout.n_bs}], got {n}")
    return _central_ids(layout.bs_positions, layout.arena, n)


def generate_layout(
    kind: str,
    n_bs: int,
    arena: Arena,
    n_centralized: int,
    seed: int,
) -> NetworkLayout:
    """Synthesize a layout: ``uniform-random`` or ``hex-grid`` positions.

    The centrally processed subset is always the ``n_centralized`` BSs
    nearest the arena center (ties to the lower BS id).  Hex grids stagger
    alternate rows by a quarter column, keeping the middle row unshifted so
    odd square grids put a BS exactly at the arena center.
    """
    if n_bs < 1:
        raise LayoutError(f"n_bs must be >= 1, got {n_bs}")
    if not 1 <= n_centralized <= n_bs:
        raise LayoutError(
            f"n_centralized must be in [1, n_bs={n_bs}], got {n_centralized}"
        )
    if kind == "uniform-random":
        rng = np.random.default_rng(seed)
        u = rng.random((n_bs, 2))
        pos = np.empty((n_bs, 2))
        pos[:, 0] = arena.xmin + u[:, 0] * arena.width
        pos[:, 1] = arena.ymin + u[:, 1] * arena.height
    elif kind == "hex-grid":
        nrows = max(1, round(math.sqrt(n_bs)))
        ncols = math.ceil(n_bs / nrows)
        dx = arena.width / ncols
        dy = arena.height / nrows
        mid = nrows // 2
        pos = np.empty((n_bs, 2))
        k = 0
        for r in range(nrows):
            shift = 0.25 * dx if (r - mid) % 2 else 0.0
            for c in range(ncols):
                if k == n_bs:
                    break
                pos[k, 0] = arena.xmin + (c + 0.5) * dx + shift
                pos[k, 1] = arena.ymin + (r + 0.5) * dy
                k += 1
    else:
        raise LayoutError(
            f"unknown layout kind {kind!r} "
            f"(expected 'uniform-random' or 'hex-grid')"
        )
    central = _central_ids(pos, arena, n_centralized)
    return NetworkLayout(pos, arena, central)


def load_layout(source) -> NetworkLayout:
    """Parse a layout file.

    Grammar (``#`` starts a comment anywhere):

    * one BS per line: ``id,x_km,y_km`` with ids forming ``0..n-1``;
    * one required header ``centralized: id,id,...``;
    * one optional header ``arena: xmin,ymin,xmax,ymax`` (default: the
      bounding box of the positions, padded by 0.5 km on any degenerate
      axis).
    """
    path = os.fspath(source)
    rows: dict[int, tuple[float, float]] = {}
    central: tuple[int, ...] | None = None
    arena: Arena | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                if text.startswith("centralized:"):
                    ids = text.removeprefix("centralized:").split(",")
                    central = tuple(int(t.strip()) for t in ids)
                elif text.startswith("arena:"):
                    vals = text.removeprefix("arena:").split(",")
                    if len(vals) != 4:
                        raise ValueError("expected 4 comma-separated values")
                    arena = Arena(*(float(v.strip()) for v in vals))
                else:
                    parts = text.split(",")
                    if len(parts) != 3:
                        raise ValueError("expected 'id,x_km,y_km'")
                    bs_id = int(parts[0].strip())
                    if bs_id in rows:
                        raise ValueError(f"duplicate BS id {bs_id}")
                    rows[bs_id] = (float(parts[1]), float(parts[2]))
            except ValueError as exc:
                raise LayoutError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise LayoutError(f"{path}: no base stations found")
    n = len(rows)
    missing = sorted(set(range(n)) - set(rows))
    if missing:
        raise LayoutError(
            f"{path}: BS ids must form 0..{n - 1}; missing {missing}"
        )
    if central is None:
        raise LayoutError(f"{path}: missing 'centralized:' header")
    pos = np.array([rows[i] for i in range(n)], dtype=np.float64)
    if arena is None:
        lo = pos.min(axis=0)
        hi = pos.max(axis=0)
        pad = np.where(hi - lo > 0.0, 0.0, 0.5)
        arena = Arena(
            lo[0] - pad[0], lo[1] - pad[1], hi[0] + pad[0], hi[1] + pad[1]
        )
    try:
        return NetworkLayout(pos, arena, central)
    except LayoutError as exc:
        raise LayoutError(f"{path}: {exc}") from None


def save_layout(layout: NetworkLayout, path) -> None:
    """Write a layout in the :func:`load_layout` grammar (atomic rename)."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    a = layout.arena
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f"arena: {a.xmin!r},{a.ymin!r},{a.xmax!r},{a.ymax!r}\n")
        ids = ",".join(str(i) for i in layout.centralized_ids)
        fh.write(f"centralized: {ids}\n")
        for k in range(layout.n_bs):
            x, y = (float(v) for v in layout.bs_positions[k])
            fh.write(f"{k},{x!r},{y!r}\n")
    os.replace(tmp, path)


def estimate_cell_areas(
    layout: NetworkLayout, n_samples: int, seed
) -> CellGeometry:
    """Estimate Voronoi cell areas by uniform sampling over the arena.

    Each sample is assigned to its nearest BS; cell k's area is the arena
    area times its sample fraction, so the areas sum to the arena area
    exactly.  The samples are kept as the per-cell user-position pools.
    """
    if n_samples < 10_000:
        raise ValueError(f"n_samples must be >= 10000, got {n_samples}")
    rng = np.random.default_rng(seed)
    u = rng.random((n_samples, 2))
    pts = np.empty_like(u)
    pts[:, 0] = layout.arena.xmin + u[:, 0] * layout.arena.width
    pts[:, 1] = layout.arena.ymin + u[:, 1] * layout.arena.height
    bs = layout.bs_positions
    owner = np.empty(n_samples, np.int64)
    for start in range(0, n_samples, _OWNER_CHUNK):
        p = pts[start: start + _OWNER_CHUNK]
        d2 = p[:, 0, None] - bs[:, 0]
        d2 *= d2
        dy = p[:, 1, None] - bs[:, 1]
        d2 += dy * dy
        owner[start: start + p.shape[0]] = np.argmin(d2, axis=1)
    counts = np.bincount(owner, minlength=layout.n_bs)
    areas = layout.arena.area * counts / float(n_samples)
    order = np.argsort(owner, kind="stable")
    pool_off = np.zeros(layout.n_bs + 1, dtype=np.int64)
    np.cumsum(counts, out=pool_off[1:])
    return CellGeometry(
        areas=areas,
        pool_xy=np.ascontiguousarray(pts[order]),
        pool_off=pool_off,
    )


def assemble_cells(
    layout: NetworkLayout,
    geometry: CellGeometry,
    phy: PhyParams,
    scheduled_ids=None,
    interference_ids=(),
) -> CellArrays:
    """Bundle the kernel inputs for one set of instantiated cells.

    ``scheduled_ids`` defaults to the layout's centralized subset;
    ``interference_ids`` adds cells whose users interfere without being
    scheduled (they must not overlap the scheduled set).
    """
    if geometry.n_bs != layout.n_bs:
        raise ValueError(
            f"geometry covers {geometry.n_bs} cells but the layout has "
            f"{layout.n_bs}"
        )
    if scheduled_ids is None:
        scheduled_ids = layout.centralized_ids
    sched = tuple(int(i) for i in scheduled_ids)
    extra = tuple(int(i) for i in interference_ids)
    overlap = set(sched) & set(extra)
    if overlap:
        raise ValueError(
            f"interference_ids overlap scheduled cells: {sorted(overlap)}"
        )
    all_ids = sched + extra
    for i in all_ids:
        if not 0 <= i < layout.n_bs:
            raise ValueError(f"cell id {i} out of range for {layout.n_bs} BSs")
    if len(set(all_ids)) != len(all_ids):
        raise ValueError(f"duplicate cell ids in {all_ids}")
    p_occ = np.array(
        [occupancy_probability(phy, geometry.areas[i]) for i in all_ids]
    )
    pools = [
        geometry.pool_xy[geometry.pool_off[i]: geometry.pool_off[i + 1]]
        for i in all_ids
    ]
    pool_off = np.zeros(len(all_ids) + 1, dtype=np.int64)
    np.cumsum([p.shape[0] for p in pools], out=pool_off[1:])
    pool_xy = (
        np.concatenate(pools, axis=0) if pools else np.zeros((0, 2))
    )
    return CellArrays(
        cell_ids=all_ids,
        nc=len(sched),
        p_occ=p_occ,
        pool_xy=np.ascontiguousarray(pool_xy),
        pool_off=pool_off,
        bs_xy=np.ascontiguousarray(layout.bs_positions[list(all_ids)]),
    )


def draw_from_row(cells: CellArrays, row: np.ndarray, rng_seed) -> TrialDraw:
    """Deterministically map one uniform row to a :class:`TrialDraw`."""
    n_inst, nc = cells.n_inst, cells.nc
    if row.shape != (cells.row_len,):
        raise ValueError(
            f"expected a uniform row of length {cells.row_len}, "
            f"got shape {row.shape}"
        )
    occ = np.empty(n_inst, np.bool_)
    pos = np.empty((n_inst, 2), np.float64)
    d_serv = np.empty(n_inst, np.float64)
    cross_d = np.empty((n_inst, nc), np.float64)
    fading = np.empty((n_inst, nc), np.float64)
    kernels.draw_arrays(
        row[:n_inst], row[n_inst: 2 * n_inst], row[2 * n_inst:],
        cells.p_occ, cells.pool_xy, cells.pool_off, cells.bs_xy,
        MIN_DISTANCE_KM, nc,
        occ, pos, d_serv, cross_d, fading,
    )
    return TrialDraw(
        cells=cells,
        occupied=occ,
        positions=pos,
        serving_distance=d_serv,
        cross_distance=cross_d,
        fading=fading,
        rng_seed=rng_seed,
    )


def draw_trial(
    layout: NetworkLayout,
    geometry: CellGeometry,
    phy: PhyParams,
    seed,
    cells: CellArrays | None = None,
) -> TrialDraw:
    """Draw one trial over the centralized cells (or over ``cells``).

    ``seed`` may be anything ``numpy.random.default_rng`` accepts; the draw
    is a pure function of it.
    """
    if cells is None:
        cells = assemble_cells(layout, geometry, phy)
    rng = np.random.default_rng(seed)
    row = rng.random(cells.row_len)
    return draw_from_row(cells, row, seed)


def uplink_sinr_all(draw: TrialDraw, phy: PhyParams) -> np.ndarray:
    """Linear SINR for every scheduled cell; -1.0 marks unoccupied cells."""
    sinr = np.empty(draw.cells.nc, np.float64)
    kernels.sinr_trial(
        draw.occupied, draw.serving_distance, draw.cross_distance,
        draw.fading, phy.p0, phy.noise_w, phy.pathloss_exponent, phy.s,
        draw.cells.nc, sinr,
    )
    return sinr


def uplink_sinr(draw: TrialDraw, phy: PhyParams, k: int) -> float:
    """Linear uplink SINR of scheduled cell ``k`` (must be occupied)."""
    if not 0 <= k < draw.cells.nc:
        raise ValueError(
            f"cell index {k} out of range for {draw.cells.nc} scheduled cells"
        )
    if not draw.occupied[k]:
        raise ValueError(f"cell {k} is not occupied in this trial")
    return float(uplink_sinr_all(draw, phy)[k])
