"""The headline numbers of the benchmark campaigns, pinned.

``reference`` is the paper's headline campaign cut to one 4,096-trial chunk
for the calibration and one for the evaluation; ``tight-budget`` pins
``c_server = 20`` so that the budget binds on nearly every trial.  Both run
at seed 12345.  The values were frozen from the campaign as it stood before
the scheduler functions replaced the kernel ids, and any change to them has
to say why.  They are compared to a relative 1e-9, not bit for bit; the
byte-level contract is the determinism tests' and ``per_trial.csv``'s
SHA-256, which is logged here for information only.
"""

import dataclasses
import hashlib
import logging
import os

import pytest

from cran_sched import cli, harness

BENCH_CONFIGS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "campaign_bench", "configs",
)

log = logging.getLogger(__name__)

HEADLINE = {
    "reference": {
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
    rc = cli.parse_config(os.path.join(BENCH_CONFIGS, f"{workload}.cfg"))
    config = cli.build_campaign(dataclasses.replace(rc, seed=12345))
    assert config.n_trials == 4096
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
