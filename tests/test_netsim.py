"""Tests for layouts, cell geometry, and the trial draws and uplink SINR
of ``batch``'s block functions."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cran_sched import (
    MIN_DISTANCE_KM,
    Arena,
    LayoutError,
    NetworkLayout,
    PhyParams,
    assemble_cells,
    estimate_cell_areas,
    generate_layout,
    load_layout,
    most_central_ids,
    occupancy_probability,
    save_layout,
)
from cran_sched import batch, netsim

SINR_D1 = 100.0                  # p0=10, W=0.1, d=1 km, no interferers
SINR_D2 = 9.9442060469364834     # same link at d=2 km: 100 * 2**(0.37 - 3.7)


# ------------------------------------------------------------------- layout


def test_arena_properties_and_validation():
    a = Arena(-1.0, 0.0, 3.0, 2.0)
    assert a.width == 4.0 and a.height == 2.0 and a.area == 8.0
    assert a.center == (1.0, 1.0)
    assert a.contains(3.0, 2.0) and not a.contains(3.1, 1.0)
    with pytest.raises(LayoutError, match="extent"):
        Arena(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(LayoutError, match="extent"):
        Arena(0.0, 2.0, 1.0, 1.0)
    # the squared diagonal must be a finite float
    with pytest.raises(LayoutError, match="extent 1e\\+200 x 1.0 km"):
        Arena(0.0, 0.0, 1e200, 1.0)
    assert Arena(0.0, 0.0, 1e150, 1e150).width == 1e150


def test_network_layout_validation():
    arena = Arena(0.0, 0.0, 10.0, 10.0)
    pos = np.array([[1.0, 1.0], [9.0, 9.0]])
    lay = NetworkLayout(pos, arena, (0, 1))
    assert lay.n_bs == 2 and lay.n_centralized == 2
    with pytest.raises(LayoutError, match="outside"):
        NetworkLayout(np.array([[1.0, 1.0], [11.0, 9.0]]), arena, (0,))
    with pytest.raises(LayoutError, match="non-empty"):
        NetworkLayout(pos, arena, ())
    with pytest.raises(LayoutError, match="duplicates"):
        NetworkLayout(pos, arena, (0, 0))
    with pytest.raises(LayoutError, match="out of range"):
        NetworkLayout(pos, arena, (2,))
    with pytest.raises(LayoutError, match="\\(n, 2\\)"):
        NetworkLayout(np.zeros((0, 2)), arena, (0,))
    sub = lay.with_centralized((1,))
    assert sub.centralized_ids == (1,)


def test_phy_params_validation():
    PhyParams()  # defaults are valid
    with pytest.raises(ValueError, match="pathloss_exponent"):
        PhyParams(pathloss_exponent=2.0)
    with pytest.raises(ValueError, match=r"s must be in \[0,1\]"):
        PhyParams(s=1.5)
    with pytest.raises(ValueError, match=r"s must be in \[0,1\]"):
        PhyParams(s=-0.1)
    with pytest.raises(ValueError, match="p0"):
        PhyParams(p0=0.0)
    with pytest.raises(ValueError, match="noise_w"):
        PhyParams(noise_w=0.0)
    with pytest.raises(ValueError, match="lambda_density"):
        PhyParams(lambda_density=0.0)


def test_load_layout_round_trip(tmp_path):
    f = tmp_path / "net.txt"
    f.write_text(
        "# three BSs\n"
        "arena: 0,0,10,10\n"
        "centralized: 0,2\n"
        "0,1.5,2.5\n"
        "1,5.0,5.0   # middle\n"
        "2,9.0,1.0\n"
    )
    lay = load_layout(f)
    assert lay.n_bs == 3
    assert lay.centralized_ids == (0, 2)
    assert lay.arena == Arena(0.0, 0.0, 10.0, 10.0)
    np.testing.assert_allclose(
        lay.bs_positions, [[1.5, 2.5], [5.0, 5.0], [9.0, 1.0]]
    )


def test_load_layout_default_arena_is_bounding_box(tmp_path):
    f = tmp_path / "net.txt"
    f.write_text("centralized: 0\n0,1.0,2.0\n1,4.0,6.0\n")
    lay = load_layout(f)
    assert lay.arena == Arena(1.0, 2.0, 4.0, 6.0)

    # a degenerate axis (all BSs on one line) gets padded by 0.5 km
    g = tmp_path / "line.txt"
    g.write_text("centralized: 0\n0,1.0,3.0\n1,4.0,3.0\n")
    lay = load_layout(g)
    assert lay.arena == Arena(1.0, 2.5, 4.0, 3.5)


def test_load_layout_errors(tmp_path):
    cases = [
        ("empty.txt", "# nothing\n", "no base stations"),
        ("nohdr.txt", "0,1.0,1.0\n", "centralized"),
        ("badid.txt", "centralized: 7\n0,1.0,1.0\n", "out of range"),
        ("dup.txt", "centralized: 0\n0,1.0,1.0\n0,2.0,2.0\n", "duplicate"),
        ("gap.txt", "centralized: 0\n0,1.0,1.0\n2,2.0,2.0\n", "missing \\[1\\]"),
        ("cols.txt", "centralized: 0\n0,1.0\n", "id,x_km,y_km"),
        ("text.txt", "centralized: 0\n0,one,1.0\n", "could not convert"),
        (
            "arena3.txt",
            "arena: 0,0,5\ncentralized: 0\n0,1.0,1.0\n",
            "arena3.txt:1: expected 4 comma-separated values",
        ),
    ]
    for name, body, pattern in cases:
        f = tmp_path / name
        f.write_text(body)
        with pytest.raises(LayoutError, match=pattern) as exc:
            load_layout(f)
        assert name in str(exc.value)
    # parse errors carry the offending line number
    f = tmp_path / "lineno.txt"
    f.write_text("centralized: 0\n0,1.0,1.0\n1,x,2.0\n")
    with pytest.raises(LayoutError, match="lineno.txt:3"):
        load_layout(f)


@pytest.mark.parametrize(
    "name, body",
    [
        ("centralized", "centralized: 0\n0,1,1\n1,2,2\ncentralized: 1\n"),
        ("arena", "centralized: 0\narena: 0,0,5,5\n0,1,1\narena: 0,0,9,9\n"),
    ],
    ids=["centralized", "arena"],
)
def test_load_layout_rejects_a_repeated_header(name, body, tmp_path):
    # each header appears at most once: a second one is an error at its
    # line, not an override
    f = tmp_path / "twice.txt"
    f.write_text(body)
    with pytest.raises(
        LayoutError, match=f"twice.txt:4: repeated '{name}:' header"
    ):
        load_layout(f)


def test_save_layout_round_trip(tmp_path):
    lay = generate_layout(
        "uniform-random", 17, Arena(-3.0, 0.0, 12.5, 9.0), 4, seed=99
    )
    path = tmp_path / "saved.txt"
    save_layout(lay, path)
    back = load_layout(path)
    np.testing.assert_array_equal(back.bs_positions, lay.bs_positions)
    assert back.centralized_ids == lay.centralized_ids
    assert back.arena == lay.arena


def test_generate_uniform_layout():
    arena = Arena(0.0, 0.0, 30.0, 30.0)
    lay = generate_layout("uniform-random", 129, arena, 10, seed=42)
    assert lay.n_bs == 129
    assert lay.n_centralized == 10
    assert all(
        arena.contains(x, y) for x, y in lay.bs_positions
    )
    again = generate_layout("uniform-random", 129, arena, 10, seed=42)
    np.testing.assert_array_equal(lay.bs_positions, again.bs_positions)
    other = generate_layout("uniform-random", 129, arena, 10, seed=43)
    assert not np.array_equal(lay.bs_positions, other.bs_positions)


def test_generate_hex_layout_centers_odd_grid():
    arena = Arena(0.0, 0.0, 3.0, 3.0)
    lay = generate_layout("hex-grid", 9, arena, 1, seed=0)
    # the middle row is unshifted, so BS 4 sits exactly at the arena center
    np.testing.assert_allclose(lay.bs_positions[4], [1.5, 1.5])
    assert lay.centralized_ids == (4,)
    # alternate rows are staggered by a quarter column
    assert lay.bs_positions[0, 0] == pytest.approx(0.75)
    assert lay.bs_positions[3, 0] == pytest.approx(0.5)
    assert lay.bs_positions[6, 0] == pytest.approx(0.75)


def loop_hex_positions(n_bs, arena):
    """The hex grid's positions, one BS at a time in row-major order."""
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
    return pos


@pytest.mark.parametrize(
    "arena",
    [Arena(0.0, 0.0, 30.0, 30.0), Arena(-1.0, 2.0, 5.0, 3.0),
     Arena(0.3, -7.1, 1e4, 2.9)],
    ids=["square", "offset", "wide"],
)
def test_hex_layout_equals_the_loop_over_rows(arena):
    for n_bs in [*range(1, 300), 1000, 4097]:
        got = generate_layout("hex-grid", n_bs, arena, 1, seed=0)
        want = loop_hex_positions(n_bs, arena)
        assert got.bs_positions.tobytes() == want.tobytes(), n_bs


@pytest.mark.parametrize(
    "arena",
    [Arena(0.0, 0.0, 30.0, 30.0), Arena(-1.0, 2.0, 5.0, 3.0),
     Arena(0.3, -7.1, 1e4, 2.9)],
    ids=["square", "offset", "wide"],
)
def test_uniform_points_equal_the_column_formula(arena):
    # scaled and shifted in place, u * width + xmin rounds as the formula
    # that layouts and area samples were first drawn with
    for n, seed in (1, 0), (129, 1), (100_000, 7):
        u = np.random.default_rng(seed).random((n, 2))
        want = np.empty((n, 2))
        want[:, 0] = arena.xmin + u[:, 0] * arena.width
        want[:, 1] = arena.ymin + u[:, 1] * arena.height
        got = netsim._uniform_points(seed, n, arena)
        assert got.tobytes() == want.tobytes(), n
        if n <= 129:
            lay = generate_layout("uniform-random", n, arena, 1, seed=seed)
            assert lay.bs_positions.tobytes() == want.tobytes(), n


def test_generate_layout_errors():
    arena = Arena(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(LayoutError, match="n_bs"):
        generate_layout("hex-grid", 0, arena, 1, seed=0)
    with pytest.raises(LayoutError, match="n_centralized"):
        generate_layout("hex-grid", 4, arena, 5, seed=0)
    with pytest.raises(LayoutError, match="kind"):
        generate_layout("ring", 4, arena, 1, seed=0)


def test_most_central_ids():
    arena = Arena(0.0, 0.0, 10.0, 10.0)
    pos = np.array([[5.0, 6.0], [1.0, 1.0], [5.0, 4.0], [5.0, 5.0]])
    lay = NetworkLayout(pos, arena, (0,))
    assert most_central_ids(lay, 1) == (3,)
    # BSs 0 and 2 tie at distance 1; the lower id wins the last slot
    assert most_central_ids(lay, 2) == (0, 3)
    assert most_central_ids(lay, 4) == (0, 1, 2, 3)
    with pytest.raises(LayoutError, match="n must be"):
        most_central_ids(lay, 0)
    with pytest.raises(LayoutError, match="n must be"):
        most_central_ids(lay, 5)


# ----------------------------------------------------------------- geometry


def test_occupancy_probability():
    phy = PhyParams(lambda_density=1.0)
    assert occupancy_probability(phy, 0.0) == 0.0
    assert occupancy_probability(phy, math.log(2.0)) == pytest.approx(
        0.5, rel=1e-12
    )
    assert occupancy_probability(phy, 1e6) == 1.0
    tiny = occupancy_probability(PhyParams(lambda_density=1e-12), 1.0)
    assert tiny == pytest.approx(1e-12, rel=1e-6)


def test_estimate_cell_areas_single_bs():
    arena = Arena(0.0, 0.0, 30.0, 30.0)
    lay = NetworkLayout(np.array([[15.0, 15.0]]), arena, (0,))
    geo = estimate_cell_areas(lay, 10_000, seed=0)
    np.testing.assert_allclose(geo.areas, [900.0], rtol=1e-12)
    assert geo.pool_xy.shape == (10_000, 2)
    assert geo.pool_off.tolist() == [0, 10_000]


def test_estimate_cell_areas_symmetric_split():
    arena = Arena(0.0, 0.0, 4.0, 1.0)
    lay = NetworkLayout(np.array([[1.0, 0.5], [3.0, 0.5]]), arena, (0, 1))
    geo = estimate_cell_areas(lay, 100_000, seed=1)
    np.testing.assert_allclose(geo.areas, [2.0, 2.0], rtol=0.02)
    assert geo.areas.sum() == pytest.approx(arena.area, rel=1e-12)


def test_estimate_cell_areas_pools_partition_samples():
    arena = Arena(0.0, 0.0, 10.0, 10.0)
    lay = generate_layout("uniform-random", 7, arena, 3, seed=5)
    n = 20_000
    geo = estimate_cell_areas(lay, n, seed=2)
    assert geo.areas.sum() == pytest.approx(arena.area, rel=1e-12)
    assert geo.pool_off[0] == 0 and geo.pool_off[-1] == n
    assert np.all(np.diff(geo.pool_off) >= 0)
    # every pooled point lies in the arena and is nearest to its own BS
    for k in range(lay.n_bs):
        pts = geo.pool_xy[geo.pool_off[k]: geo.pool_off[k + 1]]
        assert np.all(pts[:, 0] >= arena.xmin) and np.all(pts[:, 0] <= arena.xmax)
        d = np.hypot(
            pts[:, 0, None] - lay.bs_positions[None, :, 0],
            pts[:, 1, None] - lay.bs_positions[None, :, 1],
        )
        np.testing.assert_array_equal(np.argmin(d, axis=1), k)


def brute_force_cell_areas(layout, n_samples, seed):
    """estimate_cell_areas with every sample compared against every BS,
    512 samples at a time: the pass the bucketed one replaced."""
    rng = np.random.default_rng(seed)
    u = rng.random((n_samples, 2))
    pts = np.empty_like(u)
    pts[:, 0] = layout.arena.xmin + u[:, 0] * layout.arena.width
    pts[:, 1] = layout.arena.ymin + u[:, 1] * layout.arena.height
    owner = brute_force_nearest(pts, layout.bs_positions)
    counts = np.bincount(owner, minlength=layout.n_bs)
    order = np.argsort(owner, kind="stable")
    pool_off = np.zeros(layout.n_bs + 1, dtype=np.int64)
    np.cumsum(counts, out=pool_off[1:])
    return (
        layout.arena.area * counts / float(n_samples), pts[order], pool_off
    )


def brute_force_nearest(pts, bs):
    owner = np.empty(pts.shape[0], np.int64)
    for start in range(0, pts.shape[0], 512):
        p = pts[start: start + 512]
        d2 = p[:, 0, None] - bs[:, 0]
        d2 *= d2
        dy = p[:, 1, None] - bs[:, 1]
        d2 += dy * dy
        owner[start: start + p.shape[0]] = np.argmin(d2, axis=1)
    return owner


def padded_layout(tmp_path):
    # collinear BSs and no arena header: the arena is padded by 0.5 km in y
    path = tmp_path / "line.txt"
    path.write_text(
        "centralized: 1\n"
        + "".join(f"{k},{1.5 * k!r},2.0\n" for k in range(5))
    )
    lay = load_layout(path)
    assert (lay.arena.ymin, lay.arena.ymax) == (1.5, 2.5)
    return lay


@pytest.mark.parametrize(
    "make, n_samples",
    [
        # the benchmark layout: 129 BSs in a 30 km square, layout seed 1
        (lambda _: generate_layout(
            "uniform-random", 129, Arena(0.0, 0.0, 30.0, 30.0), 10, seed=1
        ), 100_000),
        (lambda _: generate_layout(
            "hex-grid", 129, Arena(0.0, 0.0, 30.0, 30.0), 10, seed=1
        ), 100_000),
        (lambda _: generate_layout(
            "uniform-random", 1, Arena(0.0, 0.0, 5.0, 3.0), 1, seed=2
        ), 20_000),
        (lambda _: generate_layout(
            "hex-grid", 2, Arena(-1.0, 2.0, 5.0, 3.0), 1, seed=2
        ), 20_000),
        (lambda _: generate_layout(
            "uniform-random", 7, Arena(0.0, 0.0, 10.0, 10.0), 3, seed=5
        ), 20_000),
        (padded_layout, 20_000),
    ],
    ids=["bench-129", "hex-129", "n1", "n2-hex", "n7", "loaded-padded"],
)
def test_estimate_cell_areas_equals_the_full_pass(make, n_samples, tmp_path):
    lay = make(tmp_path)
    for seed in (0, np.random.SeedSequence([401, 3])):
        geo = estimate_cell_areas(lay, n_samples, seed)
        areas, pool_xy, pool_off = brute_force_cell_areas(lay, n_samples, seed)
        for got, want in (
            (geo.areas, areas), (geo.pool_xy, pool_xy),
            (geo.pool_off, pool_off),
        ):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "bs",
    [
        # bucket [0, 1]^2: BS 0's nearest squared distance to it (2) equals
        # BS 1's farthest, and the corner (0, 0) is 2 from both
        [(-1.0, -1.0), (1.0, 1.0)],
        # every sample on x = 1 or y = 1 is equidistant from two or four BSs
        [(0.5, 0.5), (1.5, 0.5), (0.5, 1.5), (1.5, 1.5)],
        [(1.5, 1.5), (0.5, 1.5), (1.5, 0.5), (0.5, 0.5)],
        [(1.0, 0.0), (0.0, 1.0), (2.0, 1.0), (1.0, 2.0)],
    ],
)
def test_nearest_bs_on_bucket_edges_and_ties(bs):
    # the samples span [0, 2]^2, so the 2 x 2 buckets have their edges at
    # 0, 1 and 2, and a quarter-km lattice puts samples on every edge
    grid = np.arange(9) * 0.25
    pts = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
    bs = np.array(bs)
    owner = netsim._nearest_bs(pts, bs)
    np.testing.assert_array_equal(owner, brute_force_nearest(pts, bs))
    if bs[0, 0] == -1.0:
        # the tie at (0, 0) goes to the lower id
        assert owner[0] == 0


def test_estimate_cell_areas_requires_enough_samples():
    lay = NetworkLayout(
        np.array([[0.5, 0.5]]), Arena(0.0, 0.0, 1.0, 1.0), (0,)
    )
    with pytest.raises(ValueError, match="10000"):
        estimate_cell_areas(lay, 9_999, seed=0)


# -------------------------------------------------------------------- draws
#
# A campaign draws its trials with ``batch``'s block functions, one block of
# uniform rows at a time; these tests check them on many rows at once.


def small_system(lam=1.0, nc=3):
    arena = Arena(0.0, 0.0, 6.0, 6.0)
    lay = generate_layout("uniform-random", 6, arena, nc, seed=3)
    phy = PhyParams(lambda_density=lam)
    geo = estimate_cell_areas(lay, 20_000, seed=4)
    return lay, geo, phy


def split(cells, u):
    """The occupancy, position and fading uniforms of the rows ``u``."""
    n = cells.n_inst
    return u[:, :n], u[:, n: 2 * n], u[:, 2 * n:]


def test_draw_trial_deterministic_in_seed():
    # a trial's occupancy and SINR depend on its uniform row alone, not on
    # the block it is drawn in; other uniforms give another trial
    lay, geo, phy = small_system()
    cells = assemble_cells(lay, geo, phy, background=True)
    terms = batch.position_terms(
        cells.pool_xy, cells.pool_off, cells.bs_xy, MIN_DISTANCE_KM,
        cells.nc, phy.pathloss_exponent, phy.s,
    )

    def channel(u):
        return batch._channel(
            *split(cells, u), cells.p_occ, cells.pool_off, cells.nc,
            phy.p0, phy.noise_w, terms,
        )

    u = np.random.default_rng(1234).random((200, cells.row_len))
    occ, sinr = channel(u)
    assert occ.any() and not occ.all()
    rev_occ, rev_sinr = channel(u[::-1])
    np.testing.assert_array_equal(rev_occ[::-1], occ)
    np.testing.assert_array_equal(rev_sinr[::-1], sinr)
    for t in (0, 1, 199):
        one_occ, one_sinr = channel(u[t: t + 1])
        np.testing.assert_array_equal(one_occ[0], occ[t])
        np.testing.assert_array_equal(one_sinr[0], sinr[t])
    other = np.random.default_rng(1235).random((200, cells.row_len))
    other_occ, other_sinr = channel(other)
    assert not np.array_equal(other_occ, occ)
    assert not np.array_equal(other_sinr, sinr)


def test_draw_trial_occupancy_extremes():
    lay, geo, _ = small_system()
    none = assemble_cells(lay, geo, PhyParams(lambda_density=1e-15))
    full = assemble_cells(lay, geo, PhyParams(lambda_density=1e9))
    u = np.random.default_rng(7).random((10_000, none.row_len))
    u_occ = split(none, u)[0]
    assert not (u_occ < none.p_occ).any()
    assert (full.p_occ == 1.0).all()
    assert (u_occ < full.p_occ).all()


def test_draw_trial_geometry_consistency():
    # every drawn user lies in its own cell, and its distances are the
    # floored Euclidean ones to its own BS and to each scheduled BS
    lay, geo, _ = small_system()
    cells = assemble_cells(
        lay, geo, PhyParams(lambda_density=1e9), background=True
    )
    nc, bs = cells.nc, cells.bs_xy
    u = np.random.default_rng(0).random((500, cells.row_len))
    u_pos = split(cells, u)[1]
    j = batch.pool_index(u_pos, cells.pool_off)
    assert ((cells.pool_off[:-1] <= j) & (j < cells.pool_off[1:])).all()
    xy = cells.pool_xy[j]
    x, y = xy[..., 0], xy[..., 1]
    a = lay.arena
    assert ((a.xmin <= x) & (x <= a.xmax)).all()
    assert ((a.ymin <= y) & (y <= a.ymax)).all()
    # users land in their own cell: the serving BS is the nearest
    d_all = np.hypot(
        x[..., None] - lay.bs_positions[:, 0],
        y[..., None] - lay.bs_positions[:, 1],
    )
    np.testing.assert_array_equal(
        d_all.argmin(axis=-1), np.broadcast_to(cells.cell_ids, j.shape)
    )
    owner = np.broadcast_to(np.arange(cells.n_inst), j.shape)
    d_serv, cross = batch.distances(
        xy.reshape(-1, 2), owner.ravel(), bs, MIN_DISTANCE_KM, nc
    )
    want = np.hypot(x - bs[:, 0], y - bs[:, 1])
    np.testing.assert_allclose(
        d_serv, np.maximum(want, MIN_DISTANCE_KM).ravel(), rtol=1e-12
    )
    want = np.hypot(x[..., None] - bs[:nc, 0], y[..., None] - bs[:nc, 1])
    np.testing.assert_allclose(
        cross, np.maximum(want, MIN_DISTANCE_KM).reshape(-1, nc), rtol=1e-12
    )
    # the diagonal of the cross distances is the serving distance
    cross = cross.reshape(j.shape + (nc,))
    np.testing.assert_array_equal(
        cross[:, range(nc), range(nc)], d_serv.reshape(j.shape)[:, :nc]
    )


def test_draw_per_cell_occupancy_matches_probability():
    lay, geo, phy = small_system(lam=0.2)
    cells = assemble_cells(lay, geo, phy)
    n = 100_000
    rng = np.random.default_rng(2718)
    u_occ = split(cells, rng.random((n, cells.row_len)))[0]
    p_hat = np.count_nonzero(u_occ < cells.p_occ, axis=0) / n
    sigma = np.sqrt(cells.p_occ * (1.0 - cells.p_occ) / n)
    assert np.all(np.abs(p_hat - cells.p_occ) <= 3.0 * sigma)


def test_fading_is_unit_mean_exponential():
    # 100 draws over a 100-cell system give 10^6 gains; the sample mean of a
    # unit-mean exponential is then within 0.5% at five sigma
    arena = Arena(0.0, 0.0, 30.0, 30.0)
    lay = generate_layout("hex-grid", 100, arena, 100, seed=0)
    phy = PhyParams(lambda_density=1e9)
    cells = assemble_cells(lay, estimate_cell_areas(lay, 100_000, seed=9), phy)
    u = np.stack(
        [np.random.default_rng(k).random(cells.row_len) for k in range(100)]
    )
    u_occ, _, u_fade = split(cells, u)
    occ = u_occ < cells.p_occ
    gains = batch.fading_gains(u_fade, occ[:, :, None] & occ[:, None, :])
    assert gains.size == 1_000_000
    assert np.all(gains > 0.0)
    assert gains.mean() == pytest.approx(1.0, abs=5e-3)
    assert gains.std() == pytest.approx(1.0, abs=2e-2)


def test_assemble_cells_validation():
    lay, geo, phy = small_system(nc=2)
    cells = assemble_cells(lay, geo, phy)
    assert cells.cell_ids == lay.centralized_ids
    assert cells.nc == 2 and cells.n_inst == 2
    assert cells.row_len == 2 * 2 + 2 * 2

    bg = assemble_cells(lay, geo, phy, background=True)
    assert bg.nc == 2 and bg.n_inst == lay.n_bs
    assert bg.row_len == 2 * 6 + 6 * 2
    # the centralized cells first, then the rest in ascending id order
    rest = sorted(set(range(lay.n_bs)) - set(lay.centralized_ids))
    assert bg.cell_ids == lay.centralized_ids + tuple(rest)
    np.testing.assert_array_equal(
        bg.bs_xy, lay.bs_positions[list(bg.cell_ids)]
    )

    other = generate_layout("uniform-random", 5, lay.arena, 2, seed=3)
    with pytest.raises(ValueError, match="geometry covers 6 cells"):
        assemble_cells(other, geo, phy)


# --------------------------------------------------------------------- SINR


def sinr(phy, occupied, d_serv, cross_d, fading):
    """``batch.sinr_from_distances`` of hand-built rows: occupancy and
    serving distances (rows x n_inst), cross distances and fading gains
    (rows x n_inst x nc)."""
    cross_d = np.asarray(cross_d, dtype=np.float64)
    return batch.sinr_from_distances(
        np.asarray(occupied, dtype=bool), np.asarray(d_serv, np.float64),
        cross_d, np.asarray(fading, np.float64), cross_d.shape[-1],
        phy.p0, phy.noise_w, phy.pathloss_exponent, phy.s,
    )


def test_uplink_sinr_single_link_reference_values():
    got = sinr(
        PhyParams(), [[True], [True]], [[1.0], [2.0]],
        [[[1.0]], [[2.0]]], [[[1.0]], [[1.0]]],
    )
    assert got[0, 0] == pytest.approx(SINR_D1, rel=1e-12)
    assert got[1, 0] == pytest.approx(SINR_D2, rel=1e-9)


def test_uplink_sinr_interference_composition():
    phy = PhyParams()
    apl, s, p0, w = phy.pathloss_exponent, phy.s, phy.p0, phy.noise_w
    d_serv = [1.2, 0.8]
    cross = [[1.2, 2.5], [3.1, 0.8]]
    h = [[0.9, 1.4], [0.3, 2.2]]
    got = sinr(phy, [[True, True]], [d_serv], [cross], [h])[0]
    for k in range(2):
        i = 1 - k
        num = p0 * h[k][k] * d_serv[k] ** ((s - 1.0) * apl)
        den = w + p0 * d_serv[i] ** (s * apl) * h[i][k] * cross[i][k] ** -apl
        assert got[k] == pytest.approx(num / den, rel=1e-12)


def test_uplink_sinr_background_interferers_enter_denominator():
    # one scheduled cell, one interference-only cell: the interferer lowers
    # the scheduled SINR but produces no SINR entry of its own; an
    # unoccupied interferer (second row) contributes nothing
    phy = PhyParams()
    apl, s, p0, w = phy.pathloss_exponent, phy.s, phy.p0, phy.noise_w
    base = sinr(phy, [[True]], [[1.0]], [[[1.0]]], [[[1.0]]])[0, 0]
    got = sinr(
        phy, [[True, True], [True, False]], [[1.0, 0.5], [1.0, np.nan]],
        [[[1.0], [2.0]], [[1.0], [np.nan]]], [[[1.0], [0.7]]] * 2,
    )
    assert got.shape == (2, 1)
    den = w + p0 * 0.5 ** (s * apl) * 0.7 * 2.0 ** -apl
    assert got[0, 0] == pytest.approx(p0 / den, rel=1e-12)
    assert got[0, 0] < base
    assert got[1, 0] == pytest.approx(base, rel=1e-12)


def test_uplink_sinr_symmetric_users_tie():
    got = sinr(
        PhyParams(), [[True, True]], [[1.0, 1.0]], [[[1.0, 3.0], [3.0, 1.0]]],
        [[[1.0, 0.5], [0.5, 1.0]]],
    )
    assert got[0, 0] == pytest.approx(got[0, 1], rel=1e-12)


def test_uplink_sinr_scale_invariance():
    # scaling transmit power and noise together leaves the SINR unchanged
    rng = np.random.default_rng(55)
    d_serv = rng.uniform(0.1, 3.0, (50, 4))
    cross = rng.uniform(0.1, 5.0, (50, 4, 4))
    h = rng.exponential(1.0, (50, 4, 4))
    occ = np.ones((50, 4), dtype=bool)
    base = sinr(PhyParams(p0=10.0, noise_w=0.1), occ, d_serv, cross, h)
    scaled = sinr(
        PhyParams(p0=10.0 * 137.0, noise_w=0.1 * 137.0), occ, d_serv, cross, h
    )
    np.testing.assert_allclose(scaled, base, rtol=1e-12)


def test_uplink_sinr_unoccupied_cell():
    # an unoccupied scheduled cell is neither served nor an interferer, and
    # its NaN distances reach no SINR
    got = sinr(
        PhyParams(), [[True, False]], [[1.0, np.nan]],
        [[[1.0, 2.0], [np.nan, np.nan]]], [[[1.0, 1.0], [1.0, 1.0]]],
    )
    assert np.isfinite(got).all()
    assert got[0, 0] == pytest.approx(SINR_D1, rel=1e-12)


def test_import_leaves_scipy_out():
    # nearest-BS assignment is plain NumPy; SciPy is a test-only dependency
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, cran_sched; print('scipy' in sys.modules)",
        ],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
