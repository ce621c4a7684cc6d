"""The batched kernels must write the scalar oracle's bits.

``batch`` is the one implementation of the per-trial algorithms: the
campaign runs ``batch.run_chunk`` (``kernels.run_chunk``) once per chunk of
trials, computing the channel a block at a time and each greedy scheduler
once, on the chunk's rows over budget; the public per-trial kernels of
``kernels`` run the same code on one row.  Both must produce the bits of the
scalar loops in ``tests/scalar_kernels.py``, the independent reference:

* the batched path is compared with the scalar chunk loop, exactly, on
  chunks of the benchmark workloads and on edge cases, split into blocks
  with the cell set's position-term table as the campaign runs it;
* each greedy scheduler runs once per chunk, on exactly the rows whose
  max-rate cost exceeds the budget, whichever blocks they come from;
* each public per-trial kernel is compared with its scalar counterpart,
  array by array, on the first evaluation trials of each benchmark workload;
* each row of that table holds the scalar kernels' power terms of its pool
  point, bit for bit; the table is built once per stream and only read;
* the campaign's per-block uniform draws are the one-shot draw of a chunk;
* ``batch._libm``, which runs libm in NumPy's scalar loop, must give the
  bits of one CPython call per element (``batch._map``) wherever its probe
  passes, and fall back to it, errors included, outside its domain.
"""

import dataclasses
import inspect
import math
import os
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scalar_kernels

from cran_sched import (
    Arena,
    CampaignConfig,
    ModelParams,
    PhyParams,
    batch,
    cli,
    complexity,
    default_table,
    generate_layout,
    harness,
    kernels,
)

BENCH_CONFIGS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "campaign_bench", "configs",
)
BENCH_WORKLOADS = ("reference", "interference", "tight-budget")
ALL_KINDS = [batch.mrs, batch.swf, batch.scc]
# the scalar oracle's scheduler id of each batched scheduler function
SCALAR_IDS = {
    batch.mrs: scalar_kernels.MRS,
    batch.swf: scalar_kernels.SWF,
    batch.scc: scalar_kernels.SCC,
}

PUBLIC_KERNELS = (
    "draw_arrays", "sinr_trial", "mrs_trial", "swf_trial", "scc_trial",
    "schedule",
)


def test_kernel_module_exposes_selection_flag():
    assert kernels.run_chunk is batch.run_chunk
    assert kernels.BACKEND == "numpy"
    assert kernels.NUMBA_ENABLED is False
    for name in PUBLIC_KERNELS:
        assert callable(getattr(kernels, name)), name
    # the scalar loops live in the test oracle only
    for name in ("_run_chunk", "seq_sum", "water_level_and_beta"):
        assert not hasattr(kernels, name), name


def test_importing_the_package_does_not_try_numba(tmp_path):
    # a stand-in numba that reports any import attempt
    (tmp_path / "numba.py").write_text("print('tried')\n")
    src = os.path.dirname(os.path.dirname(inspect.getfile(kernels)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), src]))
    out = subprocess.run(
        [sys.executable, "-c", "import cran_sched.cli"], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == ""


# ---------------------------------------------- batched path == scalar path


def kernel_args(cells, config, budget, kinds=ALL_KINDS):
    """Arguments of ``batch.run_chunk`` after the blocks, as the campaign
    passes them: those ``harness._run_stream`` passes on the cell set
    ``cells``, caught in a one-trial stream."""
    got = []

    def caught(blocks, *args):
        got.append(args)
        return np.zeros(1, np.int64), np.zeros((1, len(kinds), 2))

    with (
        mock.patch.object(harness, "campaign_cells", lambda *_: cells),
        mock.patch.object(kernels, "run_chunk", caught),
    ):
        harness._run_stream(
            config, None, harness.EVAL_STREAM, 1, budget, kinds
        )
    return got[0]


def scalar_args(cells, config, budget, kinds=ALL_KINDS):
    """Arguments of the scalar oracle's ``run_chunk`` between the uniforms
    and the outputs."""
    phy = config.phy
    return (
        cells.p_occ, cells.pool_xy, cells.pool_off, cells.bs_xy,
        harness.MIN_DISTANCE_KM, cells.nc,
        config.table.thresholds, config.table.rates,
        *config.model.kernel_constants(),
        phy.p0, phy.noise_w, phy.pathloss_exponent, phy.s,
        budget, np.array([SCALAR_IDS[k] for k in kinds], dtype=np.int64),
    )


def block_rows(cells):
    return harness.BLOCK_ELEMENTS // (cells.n_inst * cells.nc)


def split(u, n_inst):
    """The occupancy, position and fading uniforms of the rows ``u``."""
    return u[:, :n_inst], u[:, n_inst: 2 * n_inst], u[:, 2 * n_inst:]


def scalar_run(u, n_inst, args):
    """``(n_active, out)`` of the scalar chunk loop on the uniform rows
    ``u``, given its :func:`scalar_args`."""
    rows = u.shape[0]
    n_active = np.zeros(rows, np.int64)
    out = np.zeros((rows, len(args[-1]), 2))
    scalar_kernels.run_chunk(
        *map(np.ascontiguousarray, split(u, n_inst)), *args, n_active, out
    )
    return n_active, out


def assert_outputs_equal(got, ref):
    (got_n, got), (ref_n, ref) = got, ref
    np.testing.assert_array_equal(got_n, ref_n)
    bad = np.flatnonzero((got != ref).any(axis=(1, 2)))
    assert bad.size == 0, (
        f"{bad.size} of {got.shape[0]} trials differ, first {bad[0]}: "
        f"{got[bad[0]].tolist()} != {ref[bad[0]].tolist()}"
    )


def blocks(u, step):
    """The blocks of ``step`` rows of the chunk ``u``, as ``harness._chunk``
    draws them."""
    return (u[a: a + step] for a in range(0, u.shape[0], step))


def recording(kind, calls):
    """``kind``, appending ``(kind, args)`` to ``calls`` at each call;
    ``batch.mrs`` as it is, since ``run_chunk`` never calls it."""
    if kind is batch.mrs:
        return kind

    def run(*args):
        calls.append((kind, args))
        return kind(*args)

    return run


def assert_paths_equal(
    u, cells, config, budget, kinds=ALL_KINDS, step=None, calls=None,
):
    """Run the batched path on the uniform rows ``u`` as one chunk, in
    blocks of ``step`` rows (the campaign's by default), and the scalar
    chunk loop; their outputs must be equal, bit for bit.  With a list
    ``calls``, each greedy scheduler call is :func:`recording` there."""
    kinds_run = kinds
    if calls is not None:
        kinds_run = [recording(k, calls) for k in kinds]
    got = batch.run_chunk(
        blocks(u, step or block_rows(cells)),
        *kernel_args(cells, config, budget, kinds_run),
    )
    assert_outputs_equal(
        got,
        scalar_run(u, cells.n_inst, scalar_args(cells, config, budget, kinds)),
    )
    return got


def uniforms(seed, stream, chunk, rows, row_len):
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream, chunk]))
    return rng.random((rows, row_len))


def bench_campaign(workload):
    """``(config, cells, budget)`` of a benchmark workload, with the
    evaluation's budget: the pinned ``c_server`` or the calibrated one."""
    config = cli.build_campaign(
        cli.parse_config(os.path.join(BENCH_CONFIGS, f"{workload}.cfg"))
    )
    geometry = harness.campaign_geometry(config)
    cells = harness.campaign_cells(config, geometry)
    if config.c_server is None:
        budget = harness.calibrate_budget(config, geometry)
    else:
        budget = config.c_server
    return config, cells, budget


@pytest.mark.parametrize(
    "workload, rows",
    # interference costs ~10x per scalar trial; 128 rows still span 3 blocks
    [("reference", 700), ("tight-budget", 700), ("interference", 128)],
)
def test_batched_chunks_equal_scalar_on_benchmark_workloads(workload, rows):
    config, cells, budget = bench_campaign(workload)
    streams = (
        (harness.CALIBRATION_STREAM, math.inf, [batch.mrs]),
        (harness.EVAL_STREAM, budget, ALL_KINDS),
    )
    for stream, stream_budget, kinds in streams:
        for chunk in range(3):
            u = uniforms(config.seed, stream, chunk, rows, cells.row_len)
            assert_paths_equal(u, cells, config, stream_budget, kinds)


def small_cells(n_centralized=3, background=False, phy=PhyParams()):
    params = ModelParams()
    config = CampaignConfig(
        layout=generate_layout(
            "uniform-random", 12, Arena(0.0, 0.0, 8.0, 8.0), n_centralized,
            seed=7,
        ),
        table=default_table(), model=params, phy=phy,
        n_trials=1000, epsilon=0.1, seed=7, area_samples=10_000,
        background_interference=background,
    )
    return config, harness.campaign_cells(
        config, harness.campaign_geometry(config)
    )


def test_batched_single_scheduled_cell():
    for background in (False, True):
        config, cells = small_cells(n_centralized=1, background=background)
        assert cells.nc == 1
        u = uniforms(7, 1, 0, 300, cells.row_len)
        for budget in (0.0, 5.0, math.inf):
            assert_paths_equal(u, cells, config, budget)


def test_batched_edge_rows():
    config, cells = small_cells(background=True)
    n_inst, nc = cells.n_inst, cells.nc
    u = uniforms(7, 1, 0, 40, cells.row_len)
    u_occ, u_pos = u[:, :n_inst], u[:, n_inst: 2 * n_inst]
    u_fade = u[:, 2 * n_inst:]
    u_occ[0] = 1.0              # no occupied cell at all
    u_occ[1, :nc] = 1.0         # no active user, interferers only
    u_occ[2:5] = 0.0            # every cell occupied ...
    u_pos[2] = np.nextafter(1.0, 0.0)   # ... at the last pool point
    u[3] = u[2]
    u_pos[3] = 1.0              # ... clamped to the last pool point
    u_fade[4] = 0.0             # every gain floored at 1e-300
    n_active, out = assert_paths_equal(u, cells, config, 3.0)
    assert n_active[0] == n_active[1] == 0
    assert (out[:2] == 0.0).all()
    assert n_active[2] == nc
    assert (out[3] == out[2]).all()

    # u_pos just below 1 maps each cell to its last pool point, as any u_pos
    # inside that point's slot does
    npts = np.diff(cells.pool_off)
    u_last = u[2:3].copy()
    u_last[0, n_inst: 2 * n_inst] = (npts - 0.5) / npts
    _, out_last = assert_paths_equal(u_last, cells, config, 3.0)
    assert (out_last[0] == out[2]).all()


def test_batched_budget_zero_and_infinite():
    config, cells = small_cells()
    u = uniforms(7, 1, 1, 500, cells.row_len)
    _, out = assert_paths_equal(u, cells, config, 0.0)
    # swf and scc must drop every user with a positive cost
    assert (out[:, 1:, 1] == 0.0).all()
    _, out = assert_paths_equal(u, cells, config, math.inf)
    assert (out[:, 0] == out[:, 1]).all() and (out[:, 0] == out[:, 2]).all()


def scalar_sinr(config, cells, row):
    """Occupancy and SINR of one uniform row, by the scalar oracle."""
    n_inst, nc = cells.n_inst, cells.nc
    occ = np.empty(n_inst, np.bool_)
    pos = np.empty((n_inst, 2))
    d_serv = np.empty(n_inst)
    cross_d = np.empty((n_inst, nc))
    fading = np.empty((n_inst, nc))
    sinr = np.empty(nc)
    scalar_kernels.draw_arrays(
        row[:n_inst], row[n_inst: 2 * n_inst], row[2 * n_inst:],
        cells.p_occ, cells.pool_xy, cells.pool_off, cells.bs_xy,
        harness.MIN_DISTANCE_KM, nc, occ, pos, d_serv, cross_d, fading,
    )
    phy = config.phy
    scalar_kernels.sinr_trial(
        occ, d_serv, cross_d, fading, phy.p0, phy.noise_w,
        phy.pathloss_exponent, phy.s, nc, sinr,
    )
    return occ, sinr


def test_batched_sinr_equals_scalar_with_floored_gains():
    config, cells = small_cells(background=True)
    n_inst, nc = cells.n_inst, cells.nc
    u = uniforms(7, 1, 4, 20, cells.row_len)
    u[:, :nc] = 0.0                     # every scheduled cell occupied
    fade = u[:, 2 * n_inst:].reshape(20, n_inst, nc)
    fade[0] = 0.0                       # every gain 1e-300
    fade[1, 0, 0] = 0.0                 # cell 0's own gain 1e-300
    phy = config.phy
    occ, sinr = batch._channel(
        *split(u, n_inst), cells.p_occ, cells.pool_off, nc,
        phy.p0, phy.noise_w, harness._position_terms(cells, phy),
    )
    for t in range(u.shape[0]):
        ref_occ, ref_sinr = scalar_sinr(config, cells, u[t])
        np.testing.assert_array_equal(occ[t], ref_occ)
        np.testing.assert_array_equal(sinr[t], ref_sinr)
    # the floor keeps a zero-uniform gain positive, and so the SINR
    assert 0.0 < sinr[1, 0] < 1e-290 and (sinr[0] > 0.0).all()


def scalar_gains(cells, u):
    """The occupancy (rows x n_inst) and the fading gains (rows x n_inst x
    nc) of the uniform rows ``u`` by the scalar oracle, which gives every
    pair its floored gain."""
    n_inst, nc = cells.n_inst, cells.nc
    occ = np.empty((u.shape[0], n_inst), np.bool_)
    fading = np.empty((u.shape[0], n_inst, nc))
    for t, row in enumerate(u):
        _pos, d_serv, cross_d, _f, _s = trial_buffers(n_inst, nc)
        scalar_kernels.draw_arrays(
            row[:n_inst], row[n_inst: 2 * n_inst], row[2 * n_inst:],
            cells.p_occ, cells.pool_xy, cells.pool_off, cells.bs_xy,
            harness.MIN_DISTANCE_KM, nc, occ[t], _pos, d_serv, cross_d,
            fading[t],
        )
    return occ, fading


@pytest.mark.parametrize("rows", [1, 20])
def test_unoccupied_pairs_get_zero_gains_after_the_floor(rows):
    # the gains are floored, then masked: an unoccupied pair's gain is +0.0
    # even where its uniform would be floored to 1e-300, and a block with no
    # occupied cell has no nonzero gain.  One row (36 pairs) takes
    # batch._map, 20 rows batch._libm
    config, cells = small_cells(background=True)
    n_inst, nc = cells.n_inst, cells.nc
    u = uniforms(7, 1, 9, rows, cells.row_len)
    u_occ, u_fade = u[:, :n_inst], u[:, 2 * n_inst:]
    u_occ[:, ::2] = 1.0                 # every other cell unoccupied ...
    u_occ[:, 1::2] = 0.0                # ... the others occupied
    u_fade[:, ::5] = 0.0                # zero uniforms on both kinds of pair
    occ, want = scalar_gains(cells, u)
    pair = occ[:, :, None] & occ[:, None, :nc]
    assert pair.any() and (~pair).any()
    zero = u_fade.reshape(pair.shape) == 0.0
    assert (zero & pair).any() and (zero & ~pair).any()
    assert (want[zero] == 1e-300).all()
    got = batch.fading_gains(u_fade, pair)
    assert_bits_equal(got, np.where(pair, want, 0.0), "gains")
    assert (bits(got[~pair]) == 0).all() and (got[zero & pair] == 1e-300).all()

    u_occ[:] = 1.0                      # no occupied cell at all
    occ, _want = scalar_gains(cells, u)
    assert not occ.any()
    pair = occ[:, :, None] & occ[:, None, :nc]
    got = batch.fading_gains(u_fade, pair)
    assert got.shape == pair.shape
    assert_bits_equal(got, np.zeros(pair.shape), "no occupied cell")


def test_fading_gains_hold_two_arrays_of_the_block_shape():
    # one log1p pass over every pair: the negated uniforms, overwritten by
    # the gains, and libm's output, plus boolean masks; the zero-filled
    # array, gathered uniforms and scattered gains of the occupied pairs
    # are gone
    config, cells = small_cells(background=True)
    n_inst, nc = cells.n_inst, cells.nc
    u_fade = uniforms(7, 1, 11, 2000, cells.row_len)[:, 2 * n_inst:]
    pair = np.ones((2000, n_inst, nc), np.bool_)
    batch.fading_gains(u_fade, pair)     # the probe runs outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gains = batch.fading_gains(u_fade, pair)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert gains.shape == pair.shape and gains.flags.c_contiguous
    assert peak <= 2 * gains.nbytes + 2 * pair.size + 2**14, peak


def test_batched_equals_scalar_at_low_occupancy():
    # at 0.05 users per km^2 about a quarter of the cells are occupied, so
    # most of the gains computed on every pair are masked away
    config, cells = small_cells(
        background=True, phy=PhyParams(lambda_density=0.05)
    )
    assert (cells.p_occ < 0.35).all()
    u = uniforms(7, 1, 10, 600, cells.row_len)
    occ, _fading = scalar_gains(cells, u)
    pair = occ[:, :, None] & occ[:, None, : cells.nc]
    assert pair.mean() < 0.1
    for budget in (0.0, 1.0, math.inf):
        assert_paths_equal(u, cells, config, budget, step=block_rows(cells))


def test_batched_sinr_exactly_on_a_threshold():
    config, cells = small_cells()
    u = uniforms(7, 1, 2, 50, cells.row_len)
    occ, sinr = scalar_sinr(config, cells, u[0])
    k = int(np.argmax(occ[: cells.nc]))
    assert occ[k]
    # move the highest threshold at or below that SINR onto it
    thresholds = config.table.thresholds.copy()
    p = int(np.searchsorted(thresholds, sinr[k], "right")) - 1
    assert p >= 0, "pick a row whose user reaches the ladder"
    thresholds[p] = sinr[k]
    assert (np.diff(thresholds) > 0).all()
    config = dataclasses.replace(
        config, table=dataclasses.replace(config.table, thresholds=thresholds)
    )
    for budget in (0.0, 3.0, math.inf):
        assert_paths_equal(u, cells, config, budget)


def scalar_chunk(config, cells, chunk, rows, budget):
    """The scalar chunk loop on the evaluation stream's chunk ``chunk`` of
    ``rows`` trials, its uniforms drawn in one piece."""
    u = uniforms(config.seed, harness.EVAL_STREAM, chunk, rows, cells.row_len)
    return scalar_run(u, cells.n_inst, scalar_args(cells, config, budget))


def test_batched_one_row_and_one_past_a_block():
    config, cells = small_cells(background=True)
    geometry = harness.campaign_geometry(config)
    for rows in (1, block_rows(cells) + 1):
        assert_outputs_equal(
            harness._run_stream(
                config, geometry, harness.EVAL_STREAM, rows, 3.0, ALL_KINDS
            ),
            scalar_chunk(config, cells, 0, rows, 3.0),
        )


def test_uniform_blocks_equal_the_one_shot_draw(monkeypatch):
    config, cells = small_cells(background=True)
    step = block_rows(cells)
    assert step * cells.n_inst * cells.nc <= harness.BLOCK_ELEMENTS
    drawn = []

    def caught(blocks, *args):
        drawn.append([u.copy() for u in blocks])
        rows = sum(u.shape[0] for u in drawn[-1])
        return np.zeros(rows, np.int64), np.zeros((rows, len(args[-1]), 2))

    monkeypatch.setattr(kernels, "run_chunk", caught)
    # the second chunk is of three blocks, the last one partial
    rows = 2 * step + 7
    harness._run_stream(
        config, harness.campaign_geometry(config), harness.EVAL_STREAM,
        harness.CHUNK_TRIALS + rows, 3.0, ALL_KINDS,
    )
    assert [u.shape[0] for u in drawn[1]] == [step, step, 7]
    for chunk, size in enumerate((harness.CHUNK_TRIALS, rows)):
        np.testing.assert_array_equal(
            np.concatenate(drawn[chunk]),
            uniforms(7, harness.EVAL_STREAM, chunk, size, cells.row_len),
        )


def assert_bound_rows_only(calls, budget, n_bound):
    """Each greedy scheduler was called once, on ``n_bound`` rows, every
    one of them over budget at the max-rate allocation."""
    assert sorted(k.__name__ for k, _args in calls) == ["scc", "swf"]
    for _kind, (mf, cap, init_c, lg, *_rest) in calls:
        assert mf.shape == cap.shape == init_c.shape == lg.shape
        assert mf.shape[0] == n_bound
        assert (batch._seq_sum(init_c) > budget).all()


@pytest.mark.parametrize(
    "step",
    # the block sizes of tight-budget (10 x 10 cells) and interference
    # (129 x 10)
    [harness.BLOCK_ELEMENTS // n for n in (10 * 10, 129 * 10)],
)
def test_one_chunk_schedules_its_bound_rows_once(step):
    config, cells = small_cells(background=True)
    n_inst, budget = cells.n_inst, 3.0
    rows = 3 * step + 17
    u = uniforms(7, 1, 8, rows, cells.row_len)
    u[step: 2 * step, :n_inst] = 1.0    # a block of unoccupied trials
    _n, ref = scalar_run(u, n_inst, scalar_args(cells, config, budget))
    over = ref[:, 0, 1] > budget
    per_block = [int(over[a: a + step].sum()) for a in range(0, rows, step)]
    assert per_block[1] == 0 and min(per_block[:1] + per_block[2:]) > 0

    calls = []
    assert_paths_equal(u, cells, config, budget, step=step, calls=calls)
    assert_bound_rows_only(calls, budget, int(over.sum()))

    # no row over budget: no greedy scheduler runs
    calls = []
    assert_paths_equal(u, cells, config, math.inf, step=step, calls=calls)
    assert calls == []

    # a one-row tail chunk, over budget
    t = int(np.argmax(over))
    calls = []
    assert_paths_equal(
        u[t: t + 1], cells, config, budget, step=step, calls=calls
    )
    assert_bound_rows_only(calls, budget, 1)


def test_campaign_runs_each_scheduler_once_per_chunk(monkeypatch):
    # the benchmark times kernels.run_chunk per call, and a dead-worker test
    # replaces it: the harness calls it once per chunk, of several blocks
    config, cells = small_cells(background=True)
    assert block_rows(cells) < harness.CHUNK_TRIALS // 2
    config = dataclasses.replace(config, n_trials=5000, workers=1)
    chunks = []
    run_chunk = kernels.run_chunk

    def counted(blocks, *args):
        n_active, sums = run_chunk(blocks, *args)
        chunks.append(n_active.size)
        return n_active, sums

    monkeypatch.setattr(kernels, "run_chunk", counted)
    calls = []
    for name in ("swf", "scc"):
        kind, scoring = harness.SCHEDULERS[name]
        monkeypatch.setitem(
            harness.SCHEDULERS, name, (recording(kind, calls), scoring)
        )
    budget = 3.0
    result = harness.run_campaign(config, c_server=budget)
    assert chunks == [harness.CHUNK_TRIALS, 5000 - harness.CHUNK_TRIALS]
    assert [k.__name__ for k, _args in calls] == ["swf", "scc"] * 2
    over = result.series["unconstrained"].sum_complexity > budget
    for chunk, (a, b) in enumerate([(0, chunks[0]), (chunks[0], 5000)]):
        assert_bound_rows_only(
            calls[2 * chunk: 2 * chunk + 2], budget, int(over[a:b].sum())
        )


def scalar_terms(cells, phy):
    """Each pool point's power terms as the scalar ``sinr_trial`` computes
    them, one ``pow`` call each: the transmit term, then the loss to each
    scheduled cell, except that a scheduled cell's point holds its signal
    term in its own cell's slot."""
    apl, s, dmin = phy.pathloss_exponent, phy.s, harness.MIN_DISTANCE_KM
    rows = []
    for owner in range(cells.n_inst):
        for g in range(cells.pool_off[owner], cells.pool_off[owner + 1]):
            px, py = cells.pool_xy[g]

            def dist(k):
                dx, dy = px - cells.bs_xy[k, 0], py - cells.bs_xy[k, 1]
                d = math.sqrt(dx * dx + dy * dy)
                return d if d > dmin else dmin

            d_serv = dist(owner)
            rows.append([
                pow(d_serv, s * apl),
                *(
                    pow(d_serv, (s - 1.0) * apl) if k == owner
                    else pow(dist(k), -apl)
                    for k in range(cells.nc)
                ),
            ])
    return np.array(rows)


def test_position_terms_equal_the_scalar_power_terms(monkeypatch):
    # blocks of a few points, so that a block boundary falls inside a cell
    monkeypatch.setattr(batch, "TERMS_ELEMENTS", 7 * 3)
    config, cells = small_cells(background=True)
    assert cells.n_inst > cells.nc == 3
    phy = config.phy
    terms = batch.position_terms(
        cells.pool_xy, cells.pool_off, cells.bs_xy, harness.MIN_DISTANCE_KM,
        cells.nc, phy.pathloss_exponent, phy.s,
    )
    want = scalar_terms(cells, phy)
    assert terms.shape == want.shape == (cells.pool_xy.shape[0], 1 + cells.nc)
    np.testing.assert_array_equal(bits(terms), bits(want))


def test_pool_point_drawn_in_two_blocks_equals_scalar():
    config, cells = small_cells(background=True)
    n_inst = cells.n_inst
    u = uniforms(7, 1, 5, 40, cells.row_len)
    u[:, :n_inst] = 0.0                 # every cell occupied ...
    u[20:, n_inst: 2 * n_inst] = u[:20, n_inst: 2 * n_inst]
    u[20:, 2 * n_inst:] = u[:20, 2 * n_inst:][::-1]  # ... new gains
    table = harness._position_terms(cells, config.phy)
    terms = table.copy()
    assert_paths_equal(u[:20], cells, config, 3.0)
    # the second block reads the same points from the table, which the
    # blocks only read
    assert_paths_equal(u[20:], cells, config, 3.0)
    assert harness._position_terms(cells, config.phy) is table
    np.testing.assert_array_equal(bits(table), bits(terms))


def test_pool_point_terms_are_computed_once_per_stream(monkeypatch):
    built = []
    build = batch.position_terms

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(batch, "position_terms", counted)
    monkeypatch.setattr(harness, "_TERMS", None)
    config, cells = small_cells(background=True)
    # three chunks, the last one partial, each of several blocks
    n_trials = 2 * harness.CHUNK_TRIALS + 100
    n_active, out = harness._run_stream(
        config, harness.campaign_geometry(config), harness.EVAL_STREAM,
        n_trials, 3.0, ALL_KINDS,
    )
    assert len(built) == 1
    for chunk in (0, 2):
        a = chunk * harness.CHUNK_TRIALS
        rows = min(harness.CHUNK_TRIALS, n_trials - a)
        assert_outputs_equal(
            (n_active[a: a + rows], out[a: a + rows]),
            scalar_chunk(config, cells, chunk, rows, 3.0),
        )


def test_rows_within_budget_keep_the_max_rate_allocation():
    # a block where no row is over budget and one where every row is: the
    # greedy kernels run on the bound rows only, and every row equals the
    # scalar kernels
    config, cells = small_cells()
    u = uniforms(7, 1, 6, 300, cells.row_len)
    u[:, : cells.n_inst] = 0.0          # every cell occupied
    _n, ref = scalar_run(u, cells.n_inst, scalar_args(cells, config, 0.0))
    cost = ref[:, 0, 1]
    bound = u[cost > 0.0]
    assert bound.shape[0] > 100
    budget = float(cost.max())
    _n, out = assert_paths_equal(u, cells, config, budget)
    assert (out == out[:, :1]).all()
    _n, out = assert_paths_equal(bound, cells, config, 0.0)
    assert (out[:, 1:, 1] == 0.0).all() and (out[:, 0, 1] > 0.0).all()


TABLE = default_table()
RATES = TABLE.rates
KERNEL_CONSTANTS = ModelParams().kernel_constants()


def random_users(seed, rows, share):
    """``(sinr, act, mf, cap)`` of ``rows`` trials of 6 users, each active
    with probability ``share``: SINRs, activity, max-feasible entries
    (``-1`` where inactive) and capacities (``0.0`` where inactive)."""
    rng = np.random.default_rng(seed)
    sinr = 10.0 ** rng.uniform(-1.0, 3.0, (rows, 6))
    act = rng.random(sinr.shape) < share
    mf = np.where(act, batch.max_feasible(TABLE.thresholds, sinr), -1)
    cap = np.zeros(sinr.shape)
    cap[act] = [math.log2(1.0 + g) for g in sinr[act]]
    return sinr, act, mf, cap


def assert_block_equals_scalar(kind, sinr, act, cap, budget):
    """``batch.schedule_block`` of ``kind`` on the block equals the scalar
    scheduler row by row, on each row's active users; inactive users stay
    unserved at cost ``0.0``."""
    mf = np.where(act, batch.max_feasible(TABLE.thresholds, sinr), -1)
    idx, comp, sum_rate, sum_comp = batch.schedule_block(
        kind, mf, cap, RATES, *KERNEL_CONSTANTS, budget
    )
    for t in range(sinr.shape[0]):
        n = np.count_nonzero(act[t])
        want_idx, want_comp = np.full(n, -7, np.int64), np.full(n, 7.0)
        sums = scalar_kernels.schedule(
            SCALAR_IDS[kind], sinr[t, act[t]], cap[t, act[t]],
            TABLE.thresholds, RATES, *KERNEL_CONSTANTS, budget,
            want_idx, want_comp,
        )
        assert (sum_rate[t], sum_comp[t]) == sums, t
        np.testing.assert_array_equal(idx[t, act[t]], want_idx, str(t))
        assert_bits_equal(comp[t, act[t]], want_comp, f"row {t}")
        assert (idx[t, ~act[t]] == -1).all() and (comp[t, ~act[t]] == 0.0).all()


@pytest.mark.parametrize("name", list(harness.SCHEDULERS))
def test_schedulers_keep_rows_within_budget_at_max_rate(name):
    # every scheduler returns a row within budget at (mf, init_c), so
    # schedule_block runs it on a whole block; a block of rows within and
    # over budget equals the scalar kernels row by row
    kind = harness.SCHEDULERS[name][0]
    sinr, act, mf, cap = random_users(25, 300, 0.7)
    init_c, lg = batch._costs(mf, cap, RATES, *KERNEL_CONSTANTS)
    _r, sum_comp = batch._totals(mf, init_c, RATES)
    budget = float(np.median(sum_comp))
    within = sum_comp <= budget
    assert 100 < np.count_nonzero(within) < 200

    idx, comp = kind(mf, cap, init_c, lg, RATES, *KERNEL_CONSTANTS, budget)
    np.testing.assert_array_equal(idx[within], mf[within])
    assert_bits_equal(comp[within], init_c[within], name)
    assert_block_equals_scalar(kind, sinr, act, cap, budget)


def test_batched_source_keeps_to_the_bit_identity_rules():
    # NumPy's sums are pairwise and its log/exp/power loops may differ from
    # libm in the last bit: the batched path sums left to right, and only
    # batch._libm calls NumPy's log1p/power/log2, in the one stride pattern
    # whose exactness the tests below check directly.  The per-trial
    # kernels and the formulas they share with it keep to the same rules.
    source = "".join(
        inspect.getsource(m) for m in (batch, kernels, complexity)
    )
    helper = inspect.getsource(batch._libm)
    for banned in ("np.exp", "np.sum", ".sum("):
        assert banned not in source, banned
    assert re.search(r"np\.log(?!1p\b|2\b)", source) is None, "np.log"
    rest = source.replace(helper, "")
    for banned in ("np.log1p", "np.power", "np.log2"):
        assert banned in helper, banned
        assert banned not in rest, banned


@pytest.mark.parametrize(
    "rows", [batch.LEVEL_ROWS - 1, batch.LEVEL_ROWS, batch.LEVEL_ROWS + 1]
)
def test_swf_levels_built_in_row_slices_equal_the_scalar_oracle(rows):
    # swf builds its initial water levels LEVEL_ROWS rows at a time; on a
    # block of that many rows, one fewer and one more, all over budget,
    # every row equals the scalar swf
    sinr, act, mf, cap = random_users(rows, 3 * rows, 0.8)
    budget = 12.0
    init_c, _lg = batch._costs(mf, cap, RATES, *KERNEL_CONSTANTS)
    over = np.flatnonzero(batch._seq_sum(init_c) > budget)[:rows]
    assert over.size == rows
    assert_block_equals_scalar(
        batch.swf, sinr[over], act[over], cap[over], budget
    )


@pytest.mark.parametrize("rows", [1, 5, batch._ACCUMULATE_ROWS, 200])
def test_seq_sum_adds_left_to_right(rows):
    # both of _seq_sum's paths give the scalar loop's bits, a -0.0 row's
    # +0.0 included, on values whose pairwise sum would differ
    rng = np.random.default_rng(rows)
    a = rng.choice([1.0, 1e-16, -1.0, 3e-17, 0.1], (rows, 11))
    a[0] = -0.0
    want = [scalar_kernels.seq_sum(row, row.size) for row in a]
    assert_bits_equal(batch._seq_sum(a), want, "seq_sum")
    assert_bits_equal(batch._seq_sum(a[:, :0]), np.zeros(rows), "no columns")


def test_swf_trial_rejects_the_removed_pre_pass():
    table = default_table()
    c0, ilz = ModelParams().kernel_constants()
    sinr = np.array([3.0, 15.0])
    cap = np.log2(1.0 + sinr)
    idx, comp = np.empty(2, np.int64), np.empty(2)
    args = (sinr, cap, table.thresholds, table.rates, c0, ilz, 1.0)
    with pytest.raises(ValueError, match="drop_prep"):
        kernels.swf_trial(*args, True, idx, comp)
    assert kernels.swf_trial(*args, False, idx, comp) == (
        scalar_kernels.swf_trial(*args, False, idx.copy(), comp.copy())
    )


# ------------------------------------------ per-trial kernels == scalar ones


def trial_buffers(n_inst, nc):
    """Fresh output arrays of ``draw_arrays`` and ``sinr_trial``, filled
    with a sentinel so that an entry left unwritten shows."""
    return [
        np.full(shape, 7.0) for shape in
        ((n_inst, 2), (n_inst,), (n_inst, nc), (n_inst, nc), (nc,))
    ]


def assert_bits_equal(got, want, what):
    np.testing.assert_array_equal(bits(got), bits(want), err_msg=what)


@pytest.mark.parametrize("workload", BENCH_WORKLOADS)
def test_per_trial_kernels_equal_the_scalar_oracle(workload):
    # the first evaluation trials of the workload, as the benchmark's
    # traced replay takes them, through each public per-trial kernel and
    # its scalar counterpart
    config, cells, budget = bench_campaign(workload)
    n_inst, nc = cells.n_inst, cells.nc
    u = uniforms(config.seed, harness.EVAL_STREAM, 0, 512, cells.row_len)
    phy, table = config.phy, config.table
    c0, ilz = config.model.kernel_constants()
    draw = (cells.p_occ, cells.pool_xy, cells.pool_off, cells.bs_xy,
            harness.MIN_DISTANCE_KM, nc)
    power = (phy.p0, phy.noise_w, phy.pathloss_exponent, phy.s, nc)
    seen_bound = seen_empty = 0
    for t, row in enumerate(u):
        outs = {}
        for name, mod in (("got", kernels), ("want", scalar_kernels)):
            occ = np.empty(n_inst, np.bool_)
            pos, d_serv, cross_d, fading, sinr = trial_buffers(n_inst, nc)
            n_active = mod.draw_arrays(
                row[:n_inst], row[n_inst: 2 * n_inst], row[2 * n_inst:],
                *draw, occ, pos, d_serv, cross_d, fading,
            )
            mod.sinr_trial(occ, d_serv, cross_d, fading, *power, sinr)
            outs[name] = (n_active, occ, pos, d_serv, cross_d, fading, sinr)
        got, want = outs["got"], outs["want"]
        assert got[0] == want[0], t
        np.testing.assert_array_equal(got[1], want[1], err_msg=str(t))
        for name, g, w in zip(
            ("positions", "distances", "cross distances", "fading", "sinr"),
            got[2:], want[2:],
        ):
            assert_bits_equal(g, w, f"trial {t}: {name}")
        occ, pos, d_serv, cross_d, fading, sinr = got[1:]
        empty = ~occ
        seen_empty += int(empty.any())
        assert np.isnan(pos[empty]).all() and np.isnan(d_serv[empty]).all()
        assert np.isnan(cross_d[empty]).all()
        assert (fading > 0.0).all()
        assert (sinr[empty[:nc]] == -1.0).all()

        act = occ[:nc]
        a_sinr = sinr[act]
        a_cap = np.array([math.log2(1.0 + g) for g in a_sinr])
        na = a_sinr.size
        common = (a_sinr, a_cap, table.thresholds, table.rates, c0, ilz)
        results = {}
        for name, mod in (("got", kernels), ("want", scalar_kernels)):
            runs = []
            for kernel, extra in (
                (mod.mrs_trial, ()), (mod.swf_trial, (budget, False)),
                (mod.scc_trial, (budget,)),
            ):
                idx = np.full(nc, -7, np.int64)
                comp = np.full(nc, 7.0)
                sums = kernel(*common, *extra, idx, comp)
                runs.append((sums, idx[:na], comp[:na]))
            results[name] = runs
        for kind, g, w in zip(("mrs", "swf", "scc"), *results.values()):
            assert g[0] == w[0], f"trial {t}: {kind} sums"
            np.testing.assert_array_equal(g[1], w[1], f"trial {t}: {kind}")
            assert_bits_equal(g[2], w[2], f"trial {t}: {kind} costs")
        seen_bound += int(results["got"][0][0][1] > budget)
    # the sample covers unoccupied cells and trials over budget
    assert seen_empty > 0 and seen_bound > 0


# ------------------------------------------------ libm through NumPy's loop


def bits(a):
    return np.asarray(a, np.float64).view(np.uint64)


# each libm function on its campaign domains (``pow`` at the benchmark
# configs' exponents and at the three NumPy special-cases for a scalar
# exponent), a million values each
LIBM_DOMAINS = {
    "log1p(-u)": (math.log1p, (), lambda r, n: -r.random(n)),
    "log2(1+sinr)": (
        math.log2, (), lambda r, n: 1.0 + 10.0 ** r.uniform(-3.0, 7.0, n)
    ),
    "log2(cap-rate)": (
        math.log2, (), lambda r, n: 10.0 ** r.uniform(-8.0, 1.5, n)
    ),
    **{
        f"pow(d, {e})": (
            pow, (e,), lambda r, n: 10.0 ** r.uniform(-2.0, 1.7, n)
        )
        for e in (0.1 * 3.7, (0.1 - 1.0) * 3.7, -3.7, 0.5, -1.0, 2.0)
    },
}


def fast_path_or_skip(fn):
    """Skip where ``fn`` failed its probe: ``batch._each`` then never takes
    the NumPy loop."""
    if not batch._probe(fn):
        pytest.skip(f"{fn.__name__}: NumPy's loop failed the probe here")


@pytest.mark.parametrize("domain", LIBM_DOMAINS)
def test_libm_loop_equals_one_call_per_element(domain):
    fn, args, draw = LIBM_DOMAINS[domain]
    x = draw(np.random.default_rng(11), 1_000_000)
    want = bits(batch._map(fn, x, *args))
    np.testing.assert_array_equal(bits(batch._each(fn, x, *args)), want)
    fast_path_or_skip(fn)
    got = batch._libm(fn, x, args)
    assert got is not None
    assert np.count_nonzero(bits(got) != want) == 0


@pytest.mark.parametrize(
    "domain", ["log1p(-u)", "log2(1+sinr)", "pow(d, -3.7)"]
)
def test_libm_loop_on_every_small_size_and_layout(domain):
    fn, args, draw = LIBM_DOMAINS[domain]
    fast_path_or_skip(fn)
    rng = np.random.default_rng(12)
    for n in range(1, 130):
        for _ in range(20):
            x = draw(rng, n)
            got = batch._libm(fn, x, args)
            assert got is not None and got.shape == (n,)
            np.testing.assert_array_equal(
                bits(got), bits(batch._map(fn, x, *args)), err_msg=str(n)
            )
    # a masked 3-D block, a strided view and an empty array
    cube = draw(rng, 7 * 5 * 11).reshape(7, 5, 11)
    for x in (cube[rng.random(cube.shape) < 0.6], cube[:, 2, ::3].ravel(),
              cube[::2, 1, 3], cube[:0, 0, 0]):
        np.testing.assert_array_equal(
            bits(batch._libm(fn, x, args)), bits(batch._map(fn, x, *args))
        )


@pytest.mark.parametrize("fn, args, x", [
    (math.log1p, (), [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                      -(1.0 - 2.0 ** -53), 1.0 - 2.0 ** -53, -1e-300, 1e300]),
    (math.log2, (), [5e-324, 2.2250738585072014e-308, 1.0 - 2.0 ** -53,
                     1.0, 1.0 + 2.0 ** -52, 1.7976931348623157e308]),
    (pow, (0.37,), [5e-324, 2.2250738585072014e-308, 1.0 - 2.0 ** -53,
                    1.0, 1e300]),
    (pow, (-3.7,), [1.0 - 2.0 ** -53, 1.0, 1e80]),
])
def test_libm_loop_on_edge_values(fn, args, x):
    x = np.array(x)
    want = bits(batch._map(fn, x, *args))
    np.testing.assert_array_equal(bits(batch._each(fn, x, *args)), want)
    fast_path_or_skip(fn)
    np.testing.assert_array_equal(bits(batch._libm(fn, x, args)), want)


@pytest.mark.parametrize("fn, args, x, error", [
    (math.log2, (), [1.0, 0.0], ValueError),
    (math.log2, (), [2.0, -0.0], ValueError),
    (math.log1p, (), [-0.5, -1.0], ValueError),
    (math.log1p, (), [-2.0], ValueError),
    (pow, (3.52,), [2.0, 1e300], OverflowError),
    (pow, (-3.7,), [2.0, 0.0], ZeroDivisionError),
])
def test_libm_errors_are_raised_as_by_one_call_per_element(fn, args, x, error):
    x = np.array(x)
    assert batch._libm(fn, x, args) is None
    with pytest.raises(error) as want:
        batch._map(fn, x, *args)
    with pytest.raises(error) as got:
        batch._each(fn, x, *args)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("fn, args, x", [
    (math.log1p, (), [0.5, math.nan, math.inf]),
    (math.log2, (), [0.5, math.nan, math.inf]),
    (pow, (0.37,), [-0.0, 0.0, 2.0, math.inf]),
    (pow, (2.0,), [-3.0, 2.0]),
])
def test_libm_values_outside_the_domain_come_from_one_call_per_element(
    fn, args, x
):
    x = np.array(x)
    assert batch._libm(fn, x, args) is None
    np.testing.assert_array_equal(
        bits(batch._each(fn, x, *args)), bits(batch._map(fn, x, *args))
    )


@pytest.mark.parametrize("fn, every", [
    # NumPy's contiguous loops differ from libm on about 7% (log1p), 5%
    # (pow) and 0.09% (log2) of values on an AVX-512 machine
    (math.log1p, 20), (pow, 20), (math.log2, 1111),
])
def test_probe_rejects_a_loop_that_differs_rarely(
    monkeypatch, caplog, fn, every
):
    def off_by_one_bit(fn, x, args):
        # the last bit flipped on about one value in ``every``
        y = batch._map(fn, x, *args)
        flip = (x.view(np.uint64) % np.uint64(every)) == 0
        return (y.view(np.uint64) ^ flip.astype(np.uint64)).view(np.float64)

    monkeypatch.setattr(batch, "_libm", off_by_one_bit)
    caplog.set_level("INFO", logger="cran_sched.batch")
    assert batch._probe(fn) is False
    (record,) = caplog.records
    assert record.getMessage().startswith(
        f"{fn.__name__}: one CPython call per element; NumPy's scalar loop "
        "differed from libm on "
    )


def test_each_probes_once_per_function_and_logs_the_path(monkeypatch, caplog):
    monkeypatch.setattr(batch, "_FAST", {})
    caplog.set_level("INFO", logger="cran_sched.batch")
    # a few elements go to _map straight away, without a probe
    batch._each(math.log1p, np.array([-0.25, -0.5]))
    assert not caplog.records and not batch._FAST
    x = -np.linspace(0.25, 0.5, batch._LIBM_MIN)
    for _ in range(3):
        batch._each(math.log1p, x)
        batch._each(math.log2, -x)
    names = [r.getMessage().split(":")[0] for r in caplog.records]
    assert names == ["log1p", "log2"]
    assert set(batch._FAST) == {math.log1p, math.log2}
