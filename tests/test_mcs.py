"""Unit tests for the MCS ladder and threshold lookups."""

import numpy as np
import pytest

from cran_sched import (
    DEFAULT_RATES,
    ModelParams,
    build_table,
    db_to_linear,
    default_table,
    load_rates,
    max_feasible_index,
)

NU_02DB = 1.0471285480508995          # 0.2 dB margin, linear
THR_R_HALF = 0.43373484615072973      # nu * (2**0.5 - 1) at that margin
THR_R_ONE = 1.0471285480508995        # nu * (2**1.0 - 1) = nu


def two_entry_table():
    return build_table([0.5, 1.0], nu=NU_02DB)


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
    assert db_to_linear(0.2) == pytest.approx(NU_02DB, rel=1e-12)


def test_build_table_unit_margin():
    t = build_table([1.0], nu=1.0)
    assert t.n == 1
    np.testing.assert_allclose(t.thresholds, [1.0], rtol=1e-12)


def test_build_table_frozen_thresholds():
    t = two_entry_table()
    np.testing.assert_allclose(
        t.thresholds, [THR_R_HALF, THR_R_ONE], rtol=1e-9
    )
    assert t.entries == [
        (0, 0.5, pytest.approx(THR_R_HALF, rel=1e-9)),
        (1, 1.0, pytest.approx(THR_R_ONE, rel=1e-9)),
    ]


def test_build_table_rejects_bad_ladders():
    with pytest.raises(ValueError, match="non-empty"):
        build_table([], nu=1.0)
    for rate in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            build_table([0.5, rate, 1.0], nu=1.0)
    with pytest.raises(ValueError, match="positive"):
        build_table([0.0, 1.0], nu=1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        build_table([1.0, 1.0], nu=1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        build_table([2.0, 1.0], nu=1.0)
    with pytest.raises(ValueError, match="nu"):
        build_table([1.0], nu=0.0)


def test_default_table_shape_and_endpoints():
    t = default_table(ModelParams())
    assert t.n == 27
    assert len(DEFAULT_RATES) == 27
    assert t.rates[0] == pytest.approx(0.1523)
    assert t.rates[-1] == pytest.approx(5.5547)
    assert np.all(np.diff(t.rates) > 0)
    assert np.all(np.diff(t.thresholds) > 0)
    assert t.nu == pytest.approx(NU_02DB, rel=1e-12)


def test_rate_threshold_round_trip():
    # r = log2(1 + thr / nu) must invert the threshold law to 1e-9
    t = default_table(ModelParams())
    back = np.log2(1.0 + t.thresholds / t.nu)
    np.testing.assert_allclose(back, t.rates, rtol=1e-9)


def test_max_feasible_index_inclusive_at_threshold():
    t = two_entry_table()
    # meeting a threshold exactly qualifies for that entry
    for i in range(t.n):
        assert max_feasible_index(t, float(t.thresholds[i])) == i
    assert max_feasible_index(t, 0.5) == 0
    assert max_feasible_index(t, 0.1) is None
    assert max_feasible_index(t, 100.0) == 1
    assert max_feasible_index(t, float("nan")) is None


def test_max_feasible_index_monotone_in_sinr():
    t = default_table(ModelParams())
    rng = np.random.default_rng(11)
    sinrs = np.sort(rng.uniform(0.05, 80.0, size=200))
    prev = -1
    for g in sinrs:
        idx = max_feasible_index(t, float(g))
        cur = -1 if idx is None else idx
        assert cur >= prev
        prev = cur


def test_load_rates(tmp_path):
    f = tmp_path / "ladder.txt"
    f.write_text("# ladder\n0.5\n1.0  # one bpcu\n\n2.0\n")
    assert load_rates(f) == [0.5, 1.0, 2.0]

    bad = tmp_path / "bad.txt"
    bad.write_text("0.5\nnope\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        load_rates(bad)

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no rates"):
        load_rates(empty)
