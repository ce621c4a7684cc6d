"""The compiled and pure-Python kernel paths must be interchangeable.

The package selects the numba path unless ``CRAN_SCHED_NUMBA=0``; both paths
run the same source, so a full campaign must produce byte-identical results
either way.  Each path runs in its own subprocess because the selection
happens at import time.  The comparison needs numba; where it does not
import, the test is reported as skipped.
"""

import os
import subprocess
import sys

import pytest

from cran_sched import kernels

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
    for name in (
        "seq_sum", "max_feasible_idx", "complexity_value",
        "water_level_and_beta", "mrs_trial", "swf_trial", "scc_trial",
        "schedule", "draw_arrays", "sinr_trial", "run_chunk",
    ):
        assert callable(getattr(kernels, name))
