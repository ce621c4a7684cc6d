"""Network geometry: layouts, cell areas and each cell set's model arrays.

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
the scheduled cells, the layout's centralized ones, are instantiated; with
background interference every other cell is instantiated after them,
interference-only (see :func:`assemble_cells`).

:mod:`.batch` draws each trial from one uniform row of fixed length, so a
trial is a pure function of its seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

# distances below 10 m are clamped to keep the path-loss model sane
MIN_DISTANCE_KM = 0.01

# the kinds of synthesized layout (generate_layout)
LAYOUT_KINDS = ("uniform-random", "hex-grid")

# sample points per pass of _nearest_bs; keeps its (points x candidates)
# temporaries in cache
_OWNER_CHUNK = 4096


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
        # a squared distance across the arena must stay finite, or no
        # sample point finds its nearest BS
        if not math.isfinite(self.width * self.width
                             + self.height * self.height):
            raise LayoutError(
                f"arena extent {self.width!r} x {self.height!r} km is too "
                f"large: its squared diagonal overflows a float"
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
        if not 2.0 < self.pathloss_exponent < math.inf:
            raise ValueError(
                "pathloss_exponent must be > 2 and finite, got "
                f"{self.pathloss_exponent}"
            )
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"s must be in [0,1], got {self.s}")
        if not 0.0 < self.p0 < math.inf:
            raise ValueError(f"p0 must be > 0 and finite, got {self.p0}")
        if not 0.0 < self.noise_w < math.inf:
            raise ValueError(
                f"noise_w must be > 0 and finite, got {self.noise_w}"
            )
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


def occupancy_probability(phy: PhyParams, area: float) -> float:
    """Probability ``1 - exp(-lambda * area)`` that a cell holds a user."""
    return -math.expm1(-phy.lambda_density * area)


def _central_ids(positions: np.ndarray, arena: Arena, n: int) -> tuple:
    cx, cy = arena.center
    dist = np.hypot(positions[:, 0] - cx, positions[:, 1] - cy)
    order = np.argsort(dist, kind="stable")
    return tuple(sorted(int(i) for i in order[:n]))


def _uniform_points(seed, n: int, arena: Arena) -> np.ndarray:
    """``n`` points uniform over the arena: uniforms drawn from ``seed``,
    scaled and shifted in place, which rounds as ``xmin + u * width``."""
    xy = np.random.default_rng(seed).random((n, 2))
    xy *= (arena.width, arena.height)
    xy += (arena.xmin, arena.ymin)
    return xy


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
        pos = _uniform_points(seed, n_bs, arena)
    elif kind == "hex-grid":
        nrows = max(1, round(math.sqrt(n_bs)))
        ncols = math.ceil(n_bs / nrows)
        dx = arena.width / ncols
        dy = arena.height / nrows
        # BS k sits in row r, column c, row-major
        r, c = np.divmod(np.arange(n_bs), ncols)
        shift = np.where((r - nrows // 2) % 2, 0.25 * dx, 0.0)
        pos = np.empty((n_bs, 2))
        pos[:, 0] = arena.xmin + (c + 0.5) * dx + shift
        pos[:, 1] = arena.ymin + (r + 0.5) * dy
    else:
        raise LayoutError(
            f"unknown layout kind {kind!r} "
            f"(expected {' or '.join(map(repr, LAYOUT_KINDS))})"
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
                    if central is not None:
                        raise ValueError("repeated 'centralized:' header")
                    ids = text.removeprefix("centralized:").split(",")
                    central = tuple(int(t.strip()) for t in ids)
                elif text.startswith("arena:"):
                    if arena is not None:
                        raise ValueError("repeated 'arena:' header")
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


def _nearest_bs(pts: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """Index of each point's nearest BS, ties to the lowest index.

    Equal, bit for bit, to the argmin over every BS of the rounded
    ``dx*dx + dy*dy`` (``dx = px - bx``), but each point is compared only
    with the candidates of its bucket in a G x G grid, G = ceil(sqrt(n_bs)),
    over the points' bounding box.  A BS is a candidate of a bucket when
    its smallest squared distance to the closed bucket rectangle is at most
    the least, over all BSs, of the largest squared distance to it.

    The test needs no margin.  Both bounds are computed from the rectangle's
    edges with the operations of a point's distance (subtract, square,
    add), and round-to-nearest is monotone, so for every point p in the
    rectangle the rounded values obey ``lower(b) <= d2(p, b)`` and
    ``d2(p, c) <= upper(c)``.  The BS that the full pass picks for p has
    the least rounded ``d2(p, .)``, so its lower bound is at most every
    upper bound: it is a candidate, even when the two are equal.  Each
    point lies in its bucket's rectangle exactly, because buckets are found
    by ``searchsorted`` on the same edges.  Candidates are listed in
    ascending index order, padded with a BS at infinite distance, so argmin
    breaks ties as the full pass does.
    """
    g = math.isqrt(bs.shape[0] - 1) + 1
    # column by column: a reduction over axis 0 of an (n, 2) array is slow
    lo = np.array([col.min() for col in pts.T])
    hi = np.array([col.max() for col in pts.T])
    # (axis, g + 1) edges; the product comes first so integer extents give
    # integer edges, and the clip keeps a rounded inner edge inside the box
    edges = lo[:, None] + (hi - lo)[:, None] * np.arange(g + 1) / g
    edges[:, -1] = hi
    edges = np.clip(edges, lo[:, None], hi[:, None])
    below = edges[:, :-1, None] - bs.T[:, None, :]      # (axis, g, n_bs)
    above = edges[:, 1:, None] - bs.T[:, None, :]
    near = np.maximum(np.maximum(below, -above), 0.0)
    far = np.maximum(np.abs(below), np.abs(above))
    near *= near
    far *= far
    # bucket id = iy * g + ix; one row of buckets at a time keeps the
    # (buckets x BSs) bounds at g * n_bs elements
    bucket, ids = [], []
    for iy in range(g):
        upper = far[1, iy] + far[0]
        b, i = np.nonzero(
            near[1, iy] + near[0] <= upper.min(axis=1, keepdims=True)
        )
        bucket.append(b + iy * g)
        ids.append(i)
    bucket = np.concatenate(bucket)
    ids = np.concatenate(ids)
    count = np.bincount(bucket, minlength=g * g)
    width = int(count.max())
    # nonzero lists each bucket's candidates in ascending id order
    slot = np.arange(bucket.size) - np.repeat(np.cumsum(count) - count, count)
    cand_x = np.full((g * g, width), np.inf)
    cand_y = np.full((g * g, width), np.inf)
    cand_x[bucket, slot] = bs[ids, 0]
    cand_y[bucket, slot] = bs[ids, 1]
    cand = np.zeros((g * g, width), np.min_scalar_type(bs.shape[0] - 1))
    cand[bucket, slot] = ids

    owner = np.empty(pts.shape[0], cand.dtype)
    for start in range(0, pts.shape[0], _OWNER_CHUNK):
        p = pts[start: start + _OWNER_CHUNK]
        cell = np.searchsorted(edges[1, 1:-1], p[:, 1], side="right") * g
        cell += np.searchsorted(edges[0, 1:-1], p[:, 0], side="right")
        d2 = p[:, 0, None] - cand_x.take(cell, axis=0)
        d2 *= d2
        dy = p[:, 1, None] - cand_y.take(cell, axis=0)
        d2 += dy * dy
        cell *= width
        cell += np.argmin(d2, axis=1)
        owner[start: start + p.shape[0]] = cand.take(cell)
    return owner


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
    pts = _uniform_points(seed, n_samples, layout.arena)
    owner = _nearest_bs(pts, layout.bs_positions)
    counts = np.bincount(owner, minlength=layout.n_bs)
    areas = layout.arena.area * counts / float(n_samples)
    # owner is at most 16 bits wide for any layout under 65,536 BSs, where
    # NumPy's stable sort is a radix sort
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
    background: bool = False,
) -> CellArrays:
    """Bundle the kernel inputs for the layout's centralized cells, which
    are scheduled; with ``background``, every other BS's cell follows in
    ascending id order, its user interfering without being scheduled."""
    if geometry.n_bs != layout.n_bs:
        raise ValueError(
            f"geometry covers {geometry.n_bs} cells but the layout has "
            f"{layout.n_bs}"
        )
    all_ids = layout.centralized_ids
    if background:
        central = set(all_ids)
        all_ids += tuple(i for i in range(layout.n_bs) if i not in central)
    p_occ = np.array(
        [occupancy_probability(phy, geometry.areas[i]) for i in all_ids]
    )
    pools = [
        geometry.pool_xy[geometry.pool_off[i]: geometry.pool_off[i + 1]]
        for i in all_ids
    ]
    pool_off = np.zeros(len(all_ids) + 1, dtype=np.int64)
    np.cumsum([p.shape[0] for p in pools], out=pool_off[1:])
    return CellArrays(
        cell_ids=all_ids,
        nc=layout.n_centralized,
        p_occ=p_occ,
        pool_xy=np.concatenate(pools, axis=0),
        pool_off=pool_off,
        bs_xy=layout.bs_positions[list(all_ids)],
    )
