"""The campaign's kernel implementations must be interchangeable.

``kernels.run_chunk`` is the numba-compiled scalar loop when numba is
enabled, and otherwise the trial-batched NumPy ``batch.run_chunk``.  Both must
produce the bits of the scalar kernels run interpreted
(``kernels._run_chunk``):

* the batched path is compared with the scalar loop, exactly, on chunks of
  the benchmark workloads and on edge cases;
* a full campaign under numba must match one with ``CRAN_SCHED_NUMBA=0``.
  Each runs in its own subprocess because the selection happens at import
  time.  That comparison needs numba; where it does not import, the test is
  reported as skipped.
"""

import dataclasses
import inspect
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cran_sched import (
    Arena,
    CampaignConfig,
    ModelParams,
    PhyParams,
    batch,
    cli,
    default_table,
    generate_layout,
    harness,
    kernels,
)

BENCH_CONFIGS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "campaign_bench", "configs",
)
ALL_KINDS = [kernels.MRS, kernels.SWF, kernels.SCC]

DIGEST_SCRIPT = r"""
import hashlib
import numpy as np
import cran_sched as cs
from cran_sched import kernels

params = cs.ModelParams()
phy = cs.PhyParams()
table = cs.default_table(params)
layout = cs.generate_layout(
    "uniform-random", 12, cs.Arena(0.0, 0.0, 8.0, 8.0), 3, seed=7
)
cfg = cs.CampaignConfig(
    layout=layout, table=table, model=params, phy=phy,
    n_trials=3000, epsilon=0.1, calibration_trials=1000,
    seed=7, area_samples=10000,
)
res = cs.run_campaign(cfg)
h = hashlib.sha256()
h.update(np.ascontiguousarray(res.n_active).tobytes())
for name in res.schedulers:
    s = res.series[name]
    for arr in (s.sum_rate, s.sum_complexity, s.outage):
        h.update(np.ascontiguousarray(arr).tobytes())
h.update(repr(res.c_server).encode())
print(int(kernels.NUMBA_ENABLED), h.hexdigest())
"""


def run_digest(numba_flag: str) -> tuple[bool, str]:
    env = dict(os.environ, CRAN_SCHED_NUMBA=numba_flag)
    out = subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    enabled, digest = out.stdout.split()
    return bool(int(enabled)), digest


def test_both_paths_produce_identical_campaigns():
    pytest.importorskip("numba")
    py_enabled, py_digest = run_digest("0")
    nb_enabled, nb_digest = run_digest("1")
    assert py_enabled is False
    assert nb_enabled is True, (
        "numba imports, but CRAN_SCHED_NUMBA=1 did not select the compiled "
        "kernels"
    )
    assert py_digest == nb_digest


def test_kernel_module_exposes_selection_flag():
    assert isinstance(kernels.NUMBA_ENABLED, bool)
    assert kernels.BACKEND == ("numba" if kernels.NUMBA_ENABLED else "numpy")
    if not kernels.NUMBA_ENABLED:
        assert kernels.run_chunk is batch.run_chunk
    for name in (
        "seq_sum", "max_feasible_idx", "complexity_value",
        "water_level_and_beta", "mrs_trial", "swf_trial", "scc_trial",
        "schedule", "draw_arrays", "sinr_trial", "run_chunk",
    ):
        assert callable(getattr(kernels, name))


# ---------------------------------------------- batched path == scalar path


def kernel_args(cells, config, budget, kinds=ALL_KINDS):
    """Arguments of ``run_chunk`` between the uniforms and the outputs."""
    return harness._payload(
        cells, config.table, config.model, config.phy, config.seed,
        harness.EVAL_STREAM, budget, kinds,
    )[-1]


def assert_paths_equal(u, cells, args):
    """Run the batched and the scalar chunk loops on the uniform rows
    ``u``; their outputs must be equal, bit for bit."""
    n_inst = cells.n_inst
    views = (u[:, :n_inst], u[:, n_inst: 2 * n_inst], u[:, 2 * n_inst:])
    rows, n_kinds = u.shape[0], len(args[-1])
    got_n, got = np.zeros(rows, np.int64), np.zeros((rows, n_kinds, 2))
    ref_n, ref = np.zeros(rows, np.int64), np.zeros((rows, n_kinds, 2))
    batch.run_chunk(*views, *args, got_n, got)
    kernels._run_chunk(
        *(np.ascontiguousarray(v) for v in views), *args, ref_n, ref
    )
    np.testing.assert_array_equal(got_n, ref_n)
    bad = np.flatnonzero((got != ref).any(axis=(1, 2)))
    assert bad.size == 0, (
        f"{bad.size} of {rows} trials differ, first {bad[0]}: "
        f"{got[bad[0]].tolist()} != {ref[bad[0]].tolist()}"
    )
    return got_n, got


def uniforms(seed, stream, chunk, rows, row_len):
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream, chunk]))
    return rng.random((rows, row_len))


@pytest.mark.parametrize(
    "workload, rows",
    # interference costs ~10x per scalar trial; 128 rows still span 3 blocks
    [("reference", 700), ("tight-budget", 700), ("interference", 128)],
)
def test_batched_chunks_equal_scalar_on_benchmark_workloads(workload, rows):
    config = cli.build_campaign(
        cli.parse_config(os.path.join(BENCH_CONFIGS, f"{workload}.cfg"))
    )
    geometry = harness.campaign_geometry(config)
    cells = harness.campaign_cells(config, geometry)
    if config.c_server is None:
        budget = harness.calibrate_budget(config, geometry)
    else:
        budget = config.c_server
    streams = (
        (harness.CALIBRATION_STREAM, kernel_args(
            cells, config, math.inf, [kernels.MRS])),
        (harness.EVAL_STREAM, kernel_args(cells, config, budget)),
    )
    for stream, args in streams:
        for chunk in range(3):
            u = uniforms(config.seed, stream, chunk, rows, cells.row_len)
            assert_paths_equal(u, cells, args)


def small_cells(n_centralized=3, background=False):
    params = ModelParams()
    config = CampaignConfig(
        layout=generate_layout(
            "uniform-random", 12, Arena(0.0, 0.0, 8.0, 8.0), n_centralized,
            seed=7,
        ),
        table=default_table(params), model=params, phy=PhyParams(),
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
            assert_paths_equal(u, cells, kernel_args(cells, config, budget))


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
    args = kernel_args(cells, config, 3.0)
    n_active, out = assert_paths_equal(u, cells, args)
    assert n_active[0] == n_active[1] == 0
    assert (out[:2] == 0.0).all()
    assert n_active[2] == nc
    assert (out[3] == out[2]).all()

    # u_pos just below 1 maps each cell to its last pool point, as any u_pos
    # inside that point's slot does
    npts = np.diff(cells.pool_off)
    u_last = u[2:3].copy()
    u_last[0, n_inst: 2 * n_inst] = (npts - 0.5) / npts
    _, out_last = assert_paths_equal(u_last, cells, args)
    assert (out_last[0] == out[2]).all()


def test_batched_budget_zero_and_infinite():
    config, cells = small_cells()
    u = uniforms(7, 1, 1, 500, cells.row_len)
    _, out = assert_paths_equal(u, cells, kernel_args(cells, config, 0.0))
    # swf and scc must drop every user with a positive cost
    assert (out[:, 1:, 1] == 0.0).all()
    _, out = assert_paths_equal(u, cells, kernel_args(cells, config, math.inf))
    assert (out[:, 0] == out[:, 1]).all() and (out[:, 0] == out[:, 2]).all()


def scalar_sinr(config, cells, row):
    """Occupancy and SINR of one uniform row, by the scalar kernels."""
    n_inst, nc = cells.n_inst, cells.nc
    occ = np.empty(n_inst, np.bool_)
    pos = np.empty((n_inst, 2))
    d_serv = np.empty(n_inst)
    cross_d = np.empty((n_inst, nc))
    fading = np.empty((n_inst, nc))
    sinr = np.empty(nc)
    kernels._draw_arrays(
        row[:n_inst], row[n_inst: 2 * n_inst], row[2 * n_inst:],
        cells.p_occ, cells.pool_xy, cells.pool_off, cells.bs_xy,
        harness.MIN_DISTANCE_KM, nc, occ, pos, d_serv, cross_d, fading,
    )
    phy = config.phy
    kernels._sinr_trial(
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
    args = kernel_args(cells, config, 3.0)
    occ, sinr = batch._channel(
        u[:, :n_inst], u[:, n_inst: 2 * n_inst], u[:, 2 * n_inst:],
        *args[:6], *args[10:14],  # the cell arrays, then p0, noise, apl, s
    )
    for t in range(u.shape[0]):
        ref_occ, ref_sinr = scalar_sinr(config, cells, u[t])
        np.testing.assert_array_equal(occ[t], ref_occ)
        np.testing.assert_array_equal(sinr[t], ref_sinr)
    # the floor keeps a zero-uniform gain positive, and so the SINR
    assert 0.0 < sinr[1, 0] < 1e-290 and (sinr[0] > 0.0).all()


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
        assert_paths_equal(u, cells, kernel_args(cells, config, budget))


def test_batched_one_row_and_one_past_a_block():
    config, cells = small_cells(background=True)
    step = batch.BLOCK_ELEMENTS // (cells.n_inst * cells.nc)
    args = kernel_args(cells, config, 3.0)
    for rows in (1, step + 1):
        assert_paths_equal(
            uniforms(7, 1, 3, rows, cells.row_len), cells, args
        )


def test_batched_source_keeps_to_the_bit_identity_rules():
    # NumPy's log/exp/power loops may differ from libm in the last bit, and
    # its sums are pairwise: the batched path uses neither
    source = inspect.getsource(batch)
    for banned in (
        "np.log1p", "np.power", "np.log2", "np.log", "np.exp", "np.sum",
        ".sum(",
    ):
        assert banned not in source, banned
