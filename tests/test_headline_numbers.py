"""The headline numbers of the shipped and benchmark campaigns, pinned.

``default`` is ``configs/default.cfg``, the paper-scale campaign: 100,000
calibration and 100,000 evaluation trials.  ``reference`` is the same
campaign cut to one 4,096-trial chunk for the calibration and one for the
evaluation; ``tight-budget`` pins ``c_server = 20`` so that the budget
binds on nearly every trial.  All run at seed 12345.  The values of
``reference`` and ``tight-budget`` were frozen from the campaign as it
stood before the scheduler functions replaced the kernel ids, those of
``default`` as it stood before the one-trial draw layer was retired; any
change to them has to say why.  They are compared to a relative 1e-9, not
bit for bit; the byte-level contract is the determinism tests' and
``per_trial.csv``'s SHA-256, which is logged here for information only.
"""

import dataclasses
import hashlib
import logging
import os

import pytest

from cran_sched import cli, harness

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_CONFIGS = os.path.join(ROOT, "campaign_bench", "configs")
CONFIGS = {
    "default": os.path.join(ROOT, "configs", "default.cfg"),
    "reference": os.path.join(BENCH_CONFIGS, "reference.cfg"),
    "tight-budget": os.path.join(BENCH_CONFIGS, "tight-budget.cfg"),
}

log = logging.getLogger(__name__)

HEADLINE = {
    "default": {
        "n_trials": 100_000,
        "c_server": 67.85896982799167,
        "mean_sum_rate": {
            "mrs": 19.918803539,
            "swf": 22.673665069,
            "scc": 22.671748635,
            "unconstrained": 22.719033999,
        },
        "mrs_outage": 0.10029,
    },
    "reference": {
        "n_trials": 4096,
        "c_server": 67.74134907078651,
        "mean_sum_rate": {
            "mrs": 19.903852172851565,
            "swf": 22.692026831054687,
            "scc": 22.68910065917969,
            "unconstrained": 22.73667451171875,
        },
        "mrs_outage": 0.1025390625,
    },
    "tight-budget": {
        "n_trials": 4096,
        "c_server": 20.0,
        "mean_sum_rate": {
            "swf": 20.02375881347656,
            "scc": 19.932914184570315,
        },
        "mrs_outage": 0.99462890625,
    },
}


@pytest.mark.parametrize("workload", list(HEADLINE))
def test_headline_numbers(workload, tmp_path):
    want = HEADLINE[workload]
    rc = cli.parse_config(CONFIGS[workload])
    config = cli.build_campaign(dataclasses.replace(rc, seed=12345))
    assert config.n_trials == want["n_trials"]
    result = harness.run_campaign(config)

    path = tmp_path / "per_trial.csv"
    harness.write_per_trial_csv(result, path)
    log.info(
        "%s: per_trial.csv sha256 %s", workload,
        hashlib.sha256(path.read_bytes()).hexdigest(),
    )

    assert result.c_server == pytest.approx(want["c_server"], rel=1e-9)
    for name, rate in want["mean_sum_rate"].items():
        assert result.mean_sum_rate(name) == pytest.approx(rate, rel=1e-9), (
            name
        )
    assert result.outage_rate("mrs") == pytest.approx(
        want["mrs_outage"], rel=1e-9
    )
