"""The headline numbers of the shipped and benchmark campaigns, pinned.

``default`` is ``configs/default.cfg``, the paper-scale campaign: 100,000
calibration and 100,000 evaluation trials.  ``reference`` is the same
campaign cut to one 4,096-trial chunk for the calibration and one for the
evaluation; ``tight-budget`` pins ``c_server = 20`` so that the budget
binds on nearly every trial; ``interference`` instantiates every other cell
of the layout as background interference.  All run at seed 12345.  The
values of ``reference`` and ``tight-budget`` were frozen from the campaign
as it stood before the scheduler functions replaced the kernel ids, those
of ``default`` as it stood before the one-trial draw layer was retired,
those of ``interference`` as it stood before the cell set became the layout
plus one flag; any change to them has to say why.  They are compared to a
relative 1e-9, not bit for bit; the byte-level contract is the determinism
tests' and ``per_trial.csv``'s SHA-256, which is logged here for
information only.

The sweeps are pinned too: ``sweep_lambda`` and ``sweep_nc`` over
``reference``'s ``lambda_values`` and ``nc_values`` at seed 12345, each
point's budget and each scheduler's mean sum-rate, frozen from the sweeps
as they stood before they became generators.
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
    "interference": os.path.join(BENCH_CONFIGS, "interference.cfg"),
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
    "interference": {
        "n_trials": 1024,
        "c_server": 56.457094716700865,
        "mean_sum_rate": {
            "mrs": 14.1304529296875,
            "swf": 16.184719531250003,
            "scc": 16.182328515625002,
            "unconstrained": 16.228305566406252,
        },
        "mrs_outage": 0.0947265625,
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


SWEEP_SCHEDULERS = ("mrs", "swf", "scc", "unconstrained")

# swept value -> (c_server, mean sum-rate per SWEEP_SCHEDULERS entry)
SWEEPS = {
    "lambda": {
        0.5: (66.53820135063445, (
            19.57950895996094, 22.37271315917969,
            22.370415649414063, 22.418643334960937,
        )),
        1.0: (66.53820135063445, (
            19.540986157226563, 22.68348674316406,
            22.681472119140622, 22.73667451171875,
        )),
        2.0: (66.53820135063445, (
            19.49907336425781, 22.70401296386719,
            22.701943969726564, 22.758217822265628,
        )),
        4.0: (66.53820135063445, (
            19.498285668945314, 22.70322526855469,
            22.70115627441406, 22.757430126953125,
        )),
    },
    "nc": {
        2.0: (21.30274036787007, (
            5.153947436523438, 5.953569506835938,
            5.953063476562501, 5.988360302734375,
        )),
        4.0: (33.073604171592216, (
            9.330347924804688, 10.688599511718751,
            10.686939111328126, 10.727364038085938,
        )),
        6.0: (45.444606973489, (
            12.656812109375, 14.55271259765625,
            14.551459936523438, 14.596073071289064,
        )),
        8.0: (56.31628189334524, (
            16.281646484375003, 18.358024291992187,
            18.35604697265625, 18.397788256835938,
        )),
        10.0: (67.74134907078651, (
            19.903852172851565, 22.692026831054687,
            22.68910065917969, 22.73667451171875,
        )),
    },
}


@pytest.mark.parametrize("sweep", list(SWEEPS))
def test_sweep_numbers(sweep):
    rc = dataclasses.replace(
        cli.parse_config(CONFIGS["reference"]), seed=12345
    )
    config = cli.build_campaign(rc)
    assert config.schedulers == SWEEP_SCHEDULERS
    if sweep == "lambda":
        points = list(harness.sweep_lambda(config, rc.lambda_values))
    else:
        points = list(harness.sweep_nc(config, rc.nc_values))

    want = SWEEPS[sweep]
    assert [pt.value for pt in points] == list(want)
    for pt in points:
        c_server, rates = want[pt.value]
        assert pt.result.c_server == pytest.approx(c_server, rel=1e-9), (
            pt.value
        )
        for name, rate in zip(SWEEP_SCHEDULERS, rates):
            assert pt.result.mean_sum_rate(name) == pytest.approx(
                rate, rel=1e-9
            ), (pt.value, name)
