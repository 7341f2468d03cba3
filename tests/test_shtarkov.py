import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqpa import shtarkov
from seqpa.bounds import lipschitz_lower
from seqpa.experts import (FiniteStaticFamily, best_in_hindsight, build_hard_lipschitz_class,
                           glm_family)
from seqpa.harness import _ball_features, worst_case_labels
from seqpa.losses import cumulative_loss
from seqpa.predictors import MixturePredictor, mixture_losses, nml_predict
from seqpa.shtarkov import (
    LEAF_BLOCK_BITS,
    ConstantBernoulliMLE,
    DsClosedForm,
    FiniteMaxOracle,
    IntervalBernoulli,
    block_design_features,
    block_shtarkov_lower,
    ds_lower_bound,
    ds_sup_verify,
    hard_class_certificate,
    identification_bound,
    leaf_log_sups,
    minimax_value,
    restricted_binomial_shtarkov,
    shtarkov_sum,
)
from seqpa.experts import LOGISTIC


def brute_force_log_shtarkov(oracle, T, features=None):
    """ln sum over all label sequences of sup likelihood, by direct enumeration."""
    from itertools import product
    vals = [oracle.log_sup(list(y)) for y in product((0, 1), repeat=T)]
    m = max(vals)
    return m + math.log(sum(math.exp(v - m) for v in vals))


def test_constant_bernoulli_log_sup():
    oracle = ConstantBernoulliMLE()
    assert oracle.log_sup_by_count(0, 4) == pytest.approx(0.0)
    assert oracle.log_sup_by_count(4, 4) == pytest.approx(0.0)
    k, n = 1, 4
    expected = k * math.log(k / n) + (n - k) * math.log(1 - k / n)
    assert oracle.log_sup_by_count(k, n) == pytest.approx(expected)


def test_shtarkov_sum_matches_brute_force():
    oracle = ConstantBernoulliMLE()
    for T in (1, 2, 5, 8):
        assert shtarkov_sum(oracle, T) == pytest.approx(
            brute_force_log_shtarkov(oracle, T), abs=1e-10)


def test_bernoulli_shtarkov_known_values():
    # ln S_1 = ln 2, ln S_2 = ln(1 + 2*(1/2)^2 + 1) = ln(5/2)
    assert shtarkov_sum(ConstantBernoulliMLE(), 1) == pytest.approx(math.log(2))
    assert shtarkov_sum(ConstantBernoulliMLE(), 2) == pytest.approx(math.log(2.5))


def test_minimax_value_root_equals_shtarkov():
    fam = FiniteStaticFamily(np.array([[0.25], [0.5], [0.9]]))
    T = 6
    oracle = FiniteMaxOracle(fam, np.zeros((T, 1)))
    table = minimax_value(oracle, T)
    assert table.root == pytest.approx(brute_force_log_shtarkov(oracle, T), abs=1e-10)


def test_game_table_recursion_invariant():
    fam = FiniteStaticFamily(np.array([[0.3], [0.6]]))
    T = 4
    oracle = FiniteMaxOracle(fam, np.zeros((T, 1)))
    table = minimax_value(oracle, T)
    from seqpa.losses import log_sum_exp
    for t in range(T):
        for idx in range(2 ** t):
            parent = table.levels[t][idx]
            kids = table.levels[t + 1][2 * idx: 2 * idx + 2]
            assert parent == pytest.approx(log_sum_exp(kids), abs=1e-10)


def _leaf_oracles(T):
    rng = np.random.default_rng(13)
    keys = [(float(j),) for j in range(3)]
    table = rng.uniform(0.05, 0.95, (5, 3))
    table[0, :] = 0.0  # 0/1 experts put zero mass on some sequences
    table[1, 1] = 1.0
    fam = FiniteStaticFamily(table, feature_keys=keys)
    finite = FiniteMaxOracle(fam, rng.integers(0, 3, (T, 1)).astype(float))
    return [finite, ConstantBernoulliMLE(), DsClosedForm(2.0)]


@pytest.mark.parametrize("which", range(3))
def test_leaves_match_per_sequence_log_sup(which):
    # T above the block exponent, so four prefix blocks of leaves run
    T = LEAF_BLOCK_BITS + 2
    oracle = _leaf_oracles(T)[which]
    leaves = minimax_value(oracle, T).levels[-1]
    rng = np.random.default_rng(which)
    for j in [0, 2 ** T - 1, *rng.integers(0, 2 ** T, 200)]:
        labels = [(int(j) >> (T - 1 - t)) & 1 for t in range(T)]
        assert leaves[j] == oracle.log_sup(labels)


@pytest.mark.parametrize("which", range(3))
def test_blocked_leaves_equal_single_block(which, monkeypatch):
    T = 7
    oracle = _leaf_oracles(T)[which]
    whole = minimax_value(oracle, T).levels[-1]
    monkeypatch.setattr(shtarkov, "LEAF_BLOCK_BITS", 2)
    np.testing.assert_array_equal(minimax_value(oracle, T).levels[-1], whole)


def test_finite_comparators_bit_identical():
    # the Shtarkov leaves, the batched and per-sequence best loss and the
    # worst-case regret all read one likelihood, so they agree to the bit
    rng = np.random.default_rng(31)
    for _ in range(60):
        n, K, T = rng.integers(2, 7), rng.integers(1, 4), rng.integers(2, 11)
        table = rng.uniform(0.02, 0.98, (n, K))
        table[rng.uniform(size=(n, K)) < 0.3] = 0.0  # 0/1 experts
        table[rng.uniform(size=(n, K)) < 0.2] = 1.0
        fam = FiniteStaticFamily(table, feature_keys=[(float(j),) for j in range(K)])
        features = rng.integers(0, K, (T, 1)).astype(float)
        oracle = FiniteMaxOracle(fam, features)
        leaves = leaf_log_sups(oracle, T)
        labels = (np.arange(2 ** T)[:, None] >> np.arange(T - 1, -1, -1)) & 1
        _, best = best_in_hindsight(fam, features, labels)
        assert np.array_equal(leaves, -best)
        assert all(leaves[j] == oracle.log_sup(y) for j, y in enumerate(labels))
        for alpha in (None, 0.05):
            worst, regret = worst_case_labels(
                lambda: MixturePredictor(fam, truncation=alpha), fam, features)
            j = int("".join(map(str, worst)), 2)
            assert regret == mixture_losses(fam, features, alpha)[j] + leaves[j]


@pytest.mark.parametrize("d", [1, 2])
def test_logistic_leaves_and_nml_equalizer(d):
    # the logistic family's leaves come from one batched solve: each is the
    # per-sequence log sup up to rounding, and its NML still equalizes
    T = 10
    features = _ball_features(np.random.default_rng(d), T, d)
    oracle = FiniteMaxOracle(glm_family(d=d, R=1.0), features)
    table = minimax_value(oracle, T)
    nml = nml_predict(oracle, T)
    assert shtarkov_sum(oracle, T) == table.root == nml.regret
    for j, leaf in enumerate(table.levels[-1]):
        y = [(j >> (T - 1 - t)) & 1 for t in range(T)]
        sup = oracle.log_sup(y)
        assert abs(leaf - sup) <= 1e-12
        assert abs(cumulative_loss(nml.run(y), y) + sup - table.root) <= 1e-9


@pytest.mark.parametrize("family", [FiniteStaticFamily(np.array([[0.25], [0.75]])),
                                    glm_family(d=1, R=1.0)])
def test_fewer_features_than_labels_is_an_error(family):
    oracle = FiniteMaxOracle(family, np.zeros((3, 1)))
    for call in (minimax_value, shtarkov_sum, nml_predict, leaf_log_sups):
        with pytest.raises(ValueError, match="T=5 labels but only 3 feature rows"):
            call(oracle, 5)
    with pytest.raises(ValueError, match="5 labels but only 3 feature rows"):
        oracle.log_sup([0, 1, 0, 1, 1])
    # more features than labels stays legal: callers pass prefixes
    prefix = FiniteMaxOracle(family, np.zeros((2, 1)))
    assert oracle.log_sup([0, 1]) == prefix.log_sup([0, 1])
    assert minimax_value(oracle, 2).root == shtarkov_sum(prefix, 2)


def test_interval_bernoulli_clamps_mle():
    oracle = IntervalBernoulli(0.3, 0.7)
    # k/n = 0 clamps to 0.3
    expected = 4 * math.log(0.7)
    assert oracle.log_sup_by_count(0, 4) == pytest.approx(expected)
    # interior MLE untouched
    assert oracle.log_sup_by_count(2, 4) == pytest.approx(
        ConstantBernoulliMLE().log_sup_by_count(2, 4))


def test_restricted_binomial_matches_brute_force():
    lo, hi = 0.3, 0.7
    oracle = IntervalBernoulli(lo, hi)
    for n in (1, 3, 6):
        assert restricted_binomial_shtarkov(n, lo, hi) == pytest.approx(
            brute_force_log_shtarkov(oracle, n), abs=1e-10)


def test_ds_closed_form_sup():
    oracle = DsClosedForm(2.0)
    assert oracle.log_sup_by_count(0, 5) == 0.0
    assert oracle.log_sup_by_count(1, 5) == 0.0
    assert oracle.log_sup_by_count(3, 5) == pytest.approx(-(3 / 2) * math.log(3))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.sampled_from([1.0, 2.0]))
def test_ds_sup_matches_grid_brute(T, s):
    rng = np.random.default_rng(T * 7 + int(s))
    labels = rng.integers(0, 2, T).tolist()
    closed, brute = ds_sup_verify(labels, s)
    assert closed >= brute - 1e-9
    assert closed == pytest.approx(brute, abs=1e-3)


def test_ds_lower_bound_formula():
    for s in (1.0, 2.0):
        exact, formula = ds_lower_bound(100, s)
        assert exact >= formula - 1e-9
        assert formula == pytest.approx(
            ((s + 1) / (s * math.e)) * 100 ** (s / (s + 1)))


def test_block_design_features_shape():
    T, X = block_design_features(3, 20)
    assert T == 18  # trimmed to a multiple of d
    assert X.shape == (18, 3)
    # each block uses a single basis vector
    np.testing.assert_allclose(X[:6], np.tile([1.0, 0, 0], (6, 1)))


def test_block_shtarkov_lower_monotone_in_T():
    vals = [block_shtarkov_lower(2, 2 * n, LOGISTIC, 2.0) for n in (64, 256, 1024)]
    assert vals[0] < vals[1] < vals[2]


def test_identification_bound_exhaustive():
    # two point masses on disjoint outcomes: perfectly identifiable
    P = np.array([[1.0, 0.0], [0.0, 1.0]])
    lower, exact = identification_bound(P)
    assert lower == pytest.approx(0.0)
    assert exact == pytest.approx(0.0)
    # identical distributions: S = 1, bound 1 - 1/2 is tight
    Q = np.array([[0.5, 0.5], [0.5, 0.5]])
    lower, exact = identification_bound(Q)
    assert lower == pytest.approx(0.5)
    assert exact == pytest.approx(0.5)


def test_identification_bound_random_lower_bound():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.integers(2, 4)
        k = rng.integers(2, 5)
        P = rng.dirichlet(np.ones(k), size=m)
        lower, exact = identification_bound(P)
        assert exact is not None
        assert exact >= lower - 1e-12


def test_hard_class_certificate_small():
    T = 512
    alpha = 16 * math.log(T) / T
    fam, cb = build_hard_lipschitz_class(d=1, T=T, R=1.0, L=1.0, alpha=alpha, seed=0)
    report = hard_class_certificate(fam, cb, trials=500, seed=0, d=1)
    M = cb.vectors.shape[0]
    assert report.n_sources == M
    assert report.analytic_error_bound == pytest.approx(
        M * M * math.exp(-alpha * T / 8))
    assert report.mc_error <= report.analytic_error_bound + 3 * report.mc_std_err + 1e-12
    assert report.implied_lower_bound == pytest.approx(math.log(M / 2))


def test_hard_class_certificate_uses_family_radius():
    # the closed-form comparison follows the family's own R and L
    T = 512
    alpha = 16 * math.log(T) / T
    fam, cb = build_hard_lipschitz_class(d=1, T=T, R=2.0, L=1.0, alpha=alpha, seed=0)
    report = hard_class_certificate(fam, cb, trials=500, seed=0, d=1)
    assert report.formula_lower_bound == pytest.approx(lipschitz_lower(T, 1, 2.0, 1.0))
    assert report.formula_lower_bound == pytest.approx(0.837, abs=5e-4)
    with pytest.raises(ValueError, match="dimension"):
        hard_class_certificate(fam, cb, trials=500, seed=0, d=2)
