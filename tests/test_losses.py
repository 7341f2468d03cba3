import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqpa.losses import (
    as_label,
    as_prob,
    cumulative_loss,
    log_loss,
    log_sum_exp,
    pointwise_regret,
)


def test_log_loss_basic_values():
    assert log_loss(0.5, 1) == pytest.approx(math.log(2))
    assert log_loss(0.5, 0) == pytest.approx(math.log(2))
    assert log_loss(0.9, 1) == pytest.approx(-math.log(0.9))
    assert log_loss(0.9, 0) == pytest.approx(-math.log(0.1))


def test_log_loss_degenerate_cases():
    assert log_loss(1.0, 1) == 0.0
    assert log_loss(0.0, 0) == 0.0
    assert log_loss(0.0, 1) == math.inf
    assert log_loss(1.0, 0) == math.inf


def test_as_prob_rejects_out_of_range():
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            as_prob(bad)


def test_as_label_rejects_non_binary():
    with pytest.raises(ValueError):
        as_label(2)
    with pytest.raises(ValueError):
        as_label(0.5)


def test_as_label_names_nan_inf_and_non_numeric_input():
    for good, want in ((0, 0), (1, 1), (True, 1), (0.0, 0), (np.int64(1), 1), (np.float64(0.0), 0)):
        assert as_label(good) == want and type(as_label(good)) is int
    for bad, shown in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
                       ("a", "'a'"), ("1", "'1'"), (None, "None"), ([1], r"\[1\]")):
        with pytest.raises(ValueError, match=f"^label must be 0 or 1, got {shown}$"):
            as_label(bad)


@given(st.floats(min_value=1e-12, max_value=1 - 1e-12),
       st.integers(min_value=0, max_value=1))
def test_log_loss_nonnegative(p, y):
    assert log_loss(p, y) >= 0.0


def test_cumulative_loss_matches_sum():
    preds = [0.3, 0.7, 0.5]
    labels = [0, 1, 1]
    expected = sum(log_loss(p, y) for p, y in zip(preds, labels))
    assert cumulative_loss(preds, labels) == pytest.approx(expected)


def test_cumulative_loss_length_mismatch():
    with pytest.raises(ValueError):
        cumulative_loss([0.5], [1, 0])


def test_log_sum_exp_exact_small():
    v = np.log([0.2, 0.3, 0.5])
    assert log_sum_exp(v) == pytest.approx(0.0, abs=1e-12)


def test_log_sum_exp_all_neg_inf():
    assert log_sum_exp([-math.inf, -math.inf]) == -math.inf


def test_log_sum_exp_empty_raises():
    with pytest.raises(ValueError):
        log_sum_exp([])


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_log_sum_exp_dominates_max(v):
    out = log_sum_exp(v)
    assert out >= max(v) - 1e-12
    # permutation invariance
    assert log_sum_exp(v[::-1]) == pytest.approx(out, abs=1e-9)


def test_pointwise_regret_inf_minus_inf():
    # both sides infinite: regret defined as zero
    assert pointwise_regret(math.inf, math.inf) == 0.0
    assert pointwise_regret(3.0, 1.0) == pytest.approx(2.0)
    # elementwise over arrays, with the same rule
    regret = pointwise_regret(np.array([math.inf, 3.0, math.inf]), np.array([math.inf, 1.0, 2.0]))
    assert np.array_equal(regret, [0.0, 2.0, math.inf])
