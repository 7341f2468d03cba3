"""The count-grid engine: leaves and game values of all 2^T label sequences,
folded over a design's distinct prediction columns (a finite family) or
solved once per count tuple of its distinct feature rows (the logistic
family)."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from seqpa import shtarkov
from seqpa.experts import (CERTIFIED_GAP, LOGISTIC, DsFamily, FiniteParamFamily,
                           FiniteStaticFamily, _best_logistic, best_in_hindsight,
                           count_log_likelihoods, glm_family, log_likelihoods, prediction_matrix)
from seqpa.harness import _ball_features
from seqpa.losses import cumulative_loss
from seqpa.predictors import mixture_losses, nml_predict
from seqpa.shtarkov import (LEAF_BLOCK_BITS, ConstantBernoulliMLE, DsClosedForm, FiniteMaxOracle,
                            GameValueTable, IntervalBernoulli, block_design_features,
                            block_shtarkov_lower, leaf_log_sups, minimax_value, shtarkov_sum)


def _labels(T):
    return (np.arange(2 ** T)[:, None] >> np.arange(T - 1, -1, -1)) & 1


def _pairwise_levels(leaves, T):
    """Game values by one np.logaddexp of each prefix's two children."""
    levels = [leaves]
    for _ in range(T):
        levels.append(np.logaddexp(levels[-1][0::2], levels[-1][1::2]))
    return levels[::-1]


def per_step_fold(a0, a1, reduce):
    """The per-step label-tree fold the count grid replaced, the one such
    reference (test_shtarkov.py imports it): reduce over rows of each
    sequence's log likelihood, its terms summed left to right in t, one term
    per step (no count products), in leaf order."""
    n, T = a0.shape
    leaf = np.arange(2 ** T)
    total = np.zeros((n, 2 ** T))
    for t in range(T):
        y = (leaf >> (T - 1 - t)) & 1
        total += np.where(y == 1, a1[:, t, None], a0[:, t, None])
    return reduce(total, axis=0)


def _error(levels, reference):
    """Largest |difference| over all levels; inf unless the shapes and the
    infinite entries (zero-mass prefixes) agree."""
    worst = 0.0
    for got, want in zip(levels, reference, strict=True):
        finite = np.isfinite(want)
        if (got.shape != want.shape or not np.array_equal(np.isfinite(got), finite)
                or not np.array_equal(got[~finite], want[~finite])):
            return math.inf
        worst = max(worst, float(np.abs(got[finite] - want[finite]).max(initial=0.0)))
    return worst


def _repeated_column_oracle(rng, n, K, T):
    """A finite family over K feature keys on T steps: columns repeat.  Expert
    0 is step 0's and no expert predicts 1 on it, so every sequence that
    starts with a 1 has zero mass."""
    table = rng.uniform(0.02, 0.98, (n, K))
    table[rng.uniform(size=(n, K)) < 0.25] = 0.0
    table[rng.uniform(size=(n, K)) < 0.15] = 1.0
    table[:, 0] = 0.0
    fam = FiniteStaticFamily(table, feature_keys=[(float(j),) for j in range(K)])
    features = rng.integers(0, K, (T, 1)).astype(float)
    features[:1] = 0.0
    return FiniteMaxOracle(fam, features)


def _ds_oracle(rng, n, T):
    """A time-indexed DsFamily (s = 1) whose columns repeat: rows scaled to
    sum 1 keep copied columns equal."""
    V = rng.uniform(0.05, 1.0, (n, T))
    V[:, 1::3] = V[:, :1]
    V[0, 2] = 0.0
    return FiniteMaxOracle(DsFamily(V / V.sum(axis=1, keepdims=True), 1.0), np.zeros((T, 1)))


def _engine_error(oracle, T):
    P = prediction_matrix(oracle.family, oracle.features[:T])
    reference = _pairwise_levels(per_step_fold(*log_likelihoods(P), np.max), T)
    return _error(minimax_value(oracle, T).levels, reference)


@pytest.mark.parametrize("T", [0, 1, 7, 20])
def test_repeated_columns_match_brute_force(T):
    rng = np.random.default_rng(T)
    for _ in range(3 if T < 20 else 1):
        oracle = _repeated_column_oracle(rng, 3, 3, T)
        assert _engine_error(oracle, T) <= 1e-12
        leaves = leaf_log_sups(oracle, T)
        assert np.isneginf(leaves[2 ** T // 2:]).all() or T == 0
        # the mixture side folds the same count form
        P = prediction_matrix(oracle.family, oracle.features)
        want = math.log(len(P)) - per_step_fold(*log_likelihoods(P), logsumexp)
        assert _error([mixture_losses(oracle.family, oracle.features)], [want]) <= 1e-12


def test_time_indexed_family_matches_brute_force_and_its_hindsight():
    T = 12
    oracle = _ds_oracle(np.random.default_rng(4), 4, T)
    group, fill = shtarkov._count_grid(oracle, T)
    assert fill().ndim < T and len(group) == T
    assert _engine_error(oracle, T) <= 1e-12
    # one likelihood: the leaves are the hindsight comparator to the bit
    leaves = leaf_log_sups(oracle, T)
    assert np.array_equal(leaves, -best_in_hindsight(oracle.family, oracle.features, _labels(T))[1])
    for j in range(0, 2 ** T, 97):
        assert leaves[j] == oracle.log_sup(_labels(T)[j])


def _levels_equal(levels, reference):
    return len(levels) == len(reference) and all(
        np.array_equal(got, want) for got, want in zip(levels, reference))


@pytest.mark.parametrize("T", [0, 1, 9, LEAF_BLOCK_BITS + 2])
def test_all_distinct_designs_are_bit_identical_to_the_per_step_fold(T):
    rng = np.random.default_rng(100 + T)
    table = rng.uniform(0.02, 0.98, (5, T))
    table[rng.uniform(size=(5, T)) < 0.2] = 0.0
    table[0] = 1.0
    fam = FiniteStaticFamily(table, feature_keys=[(float(j),) for j in range(T)])
    features = np.arange(T, dtype=float)[:, None]
    oracle = FiniteMaxOracle(fam, features)
    a0, a1 = log_likelihoods(prediction_matrix(fam, features))
    assert shtarkov._count_grid(oracle, T)[1]().shape == (2,) * T
    leaves = per_step_fold(a0, a1, np.max)
    assert np.array_equal(leaf_log_sups(oracle, T), leaves)
    assert _levels_equal(minimax_value(oracle, T).levels, _pairwise_levels(leaves, T))
    for alpha in (None, 0.05):
        P = prediction_matrix(fam, features) if alpha is None else \
            (prediction_matrix(fam, features) + alpha) / (1 + 2 * alpha)
        want = math.log(len(P)) - per_step_fold(*log_likelihoods(P), logsumexp)
        assert np.array_equal(mixture_losses(fam, features, alpha), want)


def test_continuous_features_are_bit_identical_to_the_per_step_fold():
    # a logistic cover on ball features: every column distinct
    T = 10
    features = _ball_features(np.random.default_rng(5), T, 2)
    fam = FiniteParamFamily(np.random.default_rng(6).uniform(-1, 1, (40, 2)))
    a0, a1 = log_likelihoods(prediction_matrix(fam, features))
    leaves = per_step_fold(a0, a1, np.max)
    assert _levels_equal(minimax_value(FiniteMaxOracle(fam, features), T).levels,
                         _pairwise_levels(leaves, T))
    assert np.array_equal(mixture_losses(fam, features), math.log(40) - per_step_fold(a0, a1, logsumexp))
    # the logistic family keeps its per-sequence solves: one group per step
    oracle = FiniteMaxOracle(glm_family(d=2, R=1.0), features[:6])
    assert _levels_equal(minimax_value(oracle, 6).levels,
                         _pairwise_levels(leaf_log_sups(oracle, 6), 6))


@pytest.mark.parametrize("oracle", [ConstantBernoulliMLE(), IntervalBernoulli(0.2, 0.7),
                                    DsClosedForm(2.0)], ids=["mle", "interval", "ds"])
@pytest.mark.parametrize("T", [0, 1, 5, 16])
def test_exchangeable_oracles_are_bit_identical_to_per_leaf_counts(oracle, T):
    counts = np.bitwise_count(np.arange(2 ** T))
    leaves = np.asarray(oracle.log_sup_by_count(np.arange(T + 1), T), dtype=float)[counts]
    assert np.array_equal(leaf_log_sups(oracle, T), leaves)
    assert _levels_equal(minimax_value(oracle, T).levels, _pairwise_levels(leaves, T))


def _fortran_strides(grid, group):
    """Mutant: prefix cells read with the grid's strides in reverse group
    order (Fortran order), still inside the grid."""
    strides = np.empty(grid.shape, order="F").strides
    view = np.lib.stride_tricks.as_strided(grid, shape=(2,) * len(group),
                                           strides=[strides[a] for a in group])
    return view.reshape(-1)


def _ones_term_everywhere(a0, a1, N):
    """Mutant: N ln p at every count k, the all-ones term."""
    terms = count_log_likelihoods(a0, a1, N)
    return [np.repeat(term[:, -1:], term.shape[1], axis=1) for term in terms]


@pytest.mark.parametrize("name, mutant", [("prefix_cells", _fortran_strides),
                                          ("count_log_likelihoods", _ones_term_everywhere)])
def test_brute_force_comparison_catches_a_broken_engine(name, mutant, monkeypatch):
    oracle = _repeated_column_oracle(np.random.default_rng(8), 3, 3, 9)
    assert _engine_error(oracle, 9) <= 1e-12
    monkeypatch.setattr(shtarkov, name, mutant)
    assert _engine_error(oracle, 9) > 1e-6


def _sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


# The measured gaps of large-T roots to their closed forms: 8.0e-15, 3.8e-13
# and 2.9e-12 on the d = 1 block logistic design at T = 64, 1024 and 4096,
# and 3.8e-12 for ConstantBernoulliMLE at T = 4096; the rounding of 8.4M
# logaddexp cells grows with T.
LARGE_T_ROOT_TOL = 1e-11


@pytest.mark.parametrize("T", [16, 22, 64, 1024, 4096])
def test_logistic_block_design_d1_is_the_interval_bernoulli_grid(T):
    # x_t = 1: sigma(w) over |w| <= 1 is every p in [sigma(-1), sigma(1)],
    # so the grid is one group of T steps, a leaf per count of ones; the
    # table has (T + 1)(T + 2) / 2 cells, 8.4M at T = 4096
    oracle = FiniteMaxOracle(glm_family(d=1, R=1.0), np.ones((T, 1)))
    group, fill = shtarkov._count_grid(oracle, T)
    grid = fill()
    assert grid.shape == (T + 1,) and np.array_equal(group, np.zeros(T))
    interval = IntervalBernoulli(_sigmoid(-1.0), _sigmoid(1.0))
    want = interval.log_sup_by_count(np.arange(T + 1), T)
    assert np.abs(grid - want).max() <= CERTIFIED_GAP
    root = minimax_value(oracle, T).root
    assert abs(root - shtarkov_sum(interval, T)) <= LARGE_T_ROOT_TOL
    assert T != 16 or abs(root - 0.9330496) <= 1e-7


def _solve_rows(monkeypatch, solver=_best_logistic):
    """Patch the grid's solver with `solver`, counting the rows it solves."""
    rows = []

    def spy(X, N, K, R):
        rows.append(len(K))
        return solver(X, N, K, R)

    monkeypatch.setattr(shtarkov, "_best_logistic", spy)
    return rows


def _block_d2_leaf_error(T):
    """Largest |leaf - (-best_in_hindsight)| over the 2^T sequences of the
    d = 2 block design: one count-weighted solve per count tuple against
    one per-step solve per sequence."""
    oracle = FiniteMaxOracle(glm_family(d=2, R=1.0), block_design_features(2, T))
    want = -best_in_hindsight(oracle.family, oracle.features, _labels(T))[1]
    return float(np.abs(leaf_log_sups(oracle, T) - want).max())


@pytest.mark.parametrize("T", [2, 8, 16])
def test_logistic_block_design_d2_solves_one_row_per_count_tuple(T, monkeypatch):
    rows = _solve_rows(monkeypatch)
    assert _block_d2_leaf_error(T) <= 2 * CERTIFIED_GAP
    assert sum(rows) == (T // 2 + 1) ** 2


def test_logistic_block_design_d2_game_value_at_T20_solves_121_tuples(monkeypatch):
    rows = _solve_rows(monkeypatch)
    table = minimax_value(FiniteMaxOracle(glm_family(d=2, R=1.0), block_design_features(2, 20)), 20)
    assert rows == [121] and [grid.shape for grid in table.grids[-2:]] == [(11, 10), (11, 11)]


def test_block_design_check_catches_a_solver_that_ignores_multiplicities(monkeypatch):
    _solve_rows(monkeypatch, lambda X, N, K, R: _best_logistic(X, np.ones_like(N), K, R))
    assert _block_d2_leaf_error(8) > 2 * CERTIFIED_GAP


# ---------------------------------------------------------------------------
# Game values at large T: refused by the cells of their levels, not by T


def _block_oracle(d, T):
    return FiniteMaxOracle(glm_family(d=d, R=1.0), block_design_features(d, T))


@pytest.mark.parametrize("T", [64, 1024, 4096])
def test_bernoulli_game_value_at_large_T_matches_the_closed_form(T):
    oracle = ConstantBernoulliMLE()
    table = minimax_value(oracle, T)
    assert sum(grid.size for grid in table.grids) == (T + 1) * (T + 2) // 2
    assert abs(table.root - shtarkov_sum(oracle, T)) <= LARGE_T_ROOT_TOL


@pytest.mark.parametrize("T, root", [(64, 2.1055), (256, 3.1330), (512, 3.7099)])
def test_d2_block_game_value_lies_above_block_shtarkov_lower(T, root):
    # T = 512: 8,553,217 level cells, admitted under the 2^26 cap
    table = minimax_value(_block_oracle(2, T), T)
    assert table.grids[-1].shape == (T // 2 + 1,) * 2
    assert abs(table.root - root) <= 1e-4
    assert table.root >= block_shtarkov_lower(2, T, LOGISTIC, 2.0)


def test_d2_block_game_value_is_refused_by_its_cells_at_T1024(monkeypatch):
    # 67,765,761 level cells (542 MB) against the 2^26 cap, refused from the
    # step groups alone, before any of the 513^2 leaves is solved; a stub
    # solver stands in for the 263,169 solves should the rule come too late
    rows = _solve_rows(monkeypatch, lambda X, N, K, R: (None, np.zeros(len(K))))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^minimax_value at T=1024 needs 542126088 bytes "
                           r"for its levels, over the 536870912-byte cap$"):
            minimax_value(_block_oracle(2, 1024), 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == [] and peak < 2 ** 24


def test_all_distinct_game_value_is_refused_by_its_levels_before_any_fold(monkeypatch):
    # one expert's 6 distinct columns against a 64-element cap: its 2^6
    # leaves fit (as one fold block), its 2^7 - 1 level cells do not, and the
    # step groups say so before any fold
    T = 6
    table = np.random.default_rng(9).uniform(0.05, 0.95, (1, T))
    fam = FiniteStaticFamily(table, feature_keys=[(float(j),) for j in range(T)])
    oracle = FiniteMaxOracle(fam, np.arange(T, dtype=float)[:, None])
    monkeypatch.setattr(shtarkov, "FOLD_ELEMENT_CAP", 64)
    calls, fold = [], shtarkov.count_fold  # a spy on the fold
    monkeypatch.setattr(shtarkov, "count_fold", lambda *args: calls.append(args) or fold(*args))
    assert leaf_log_sups(oracle, T).shape == (2 ** T,) and len(calls) == 1
    for refused in (minimax_value, nml_predict):
        with pytest.raises(ValueError, match=r"^minimax_value at T=6 needs 1016 bytes for its "
                           r"levels, over the 512-byte cap$"):
            refused(oracle, T)
    assert len(calls) == 1


def test_count_grids_are_refused_before_any_solve(monkeypatch):
    # T = 2^40 is refused before its 2^40 + 1 leaves exist
    with pytest.raises(ValueError, match=f"^a count grid at T={2 ** 40} needs "):
        minimax_value(ConstantBernoulliMLE(), 2 ** 40)
    # a 64-element cap: the d = 2 block design at T = 14 has 8^2 leaves, at
    # T = 16 it has 9^2; an exchangeable grid of T + 1 leaves likewise
    monkeypatch.setattr(shtarkov, "FOLD_ELEMENT_CAP", 64)
    assert shtarkov._count_grid(_block_oracle(2, 14), 14)[1]().shape == (8, 8)
    monkeypatch.setattr(shtarkov, "_best_logistic", None)  # a solve would raise TypeError
    with pytest.raises(ValueError, match=r"^a count grid at T=16 needs 648 bytes, over the "
                       r"512-byte cap$"):
        shtarkov._count_grid(_block_oracle(2, 16), 16)
    assert shtarkov._count_grid(ConstantBernoulliMLE(), 63)[1]().shape == (64,)
    with pytest.raises(ValueError, match=r"^a count grid at T=64 needs 520 bytes"):
        shtarkov._count_grid(ConstantBernoulliMLE(), 64)


def test_game_value_cell_rule_boundary(monkeypatch):
    # one group of T steps has (T + 1)(T + 2) / 2 level cells: T = 9 is 55,
    # T = 10 is 66 against a 64-element cap; 2^T is no limit
    monkeypatch.setattr(shtarkov, "FOLD_ELEMENT_CAP", 64)
    root = minimax_value(ConstantBernoulliMLE(), 9).root
    assert abs(root - shtarkov_sum(ConstantBernoulliMLE(), 9)) <= 1e-12
    with pytest.raises(ValueError, match=r"^minimax_value at T=10 needs 528 bytes for its "
                       r"levels, over the 512-byte cap$"):
        minimax_value(ConstantBernoulliMLE(), 10)


def _nml_equalizer_error(nml, ks):
    """Largest |NML regret - ln S_T| over the count classes y = 1^k 0^(T - k),
    k in `ks`, each run adding at most T memo entries to the table."""
    T, worst = nml.table.horizon, 0.0
    for k in ks:
        y = [1] * k + [0] * (T - k)
        before = _memo_entries(nml.table)
        regret = cumulative_loss(nml.run(y), y) + nml.table.value(y)
        assert _memo_entries(nml.table) - before <= T
        worst = max(worst, abs(regret - nml.regret))
    return worst


def _memo_entries(table):
    """How many cells `conditionals` has memoized on `table`."""
    return sum(len(memo) for memo, *_ in table._walk)


# 17 evenly spaced count classes at T = 4096: max error 1.35e-10 measured
NML_EQUALIZER_TOL = 1e-9
NML_KS = range(0, 4097, 256)


def test_nml_equalizes_at_T4096_within_a_memo_budget():
    # the 1^k 0^(T - k) runs share the all-ones path: 4096 cells, plus
    # 4096 - k cells off it per run, less the 16 branch cells on it
    T = 4096
    nml = nml_predict(_block_oracle(1, T), T)
    assert _nml_equalizer_error(nml, NML_KS) <= NML_EQUALIZER_TOL
    assert _memo_entries(nml.table) == 38_896 <= len(NML_KS) * T


def test_nml_equalizer_gate_catches_a_conditional_that_reads_the_label_0_child(monkeypatch):
    conditionals = GameValueTable.conditionals
    monkeypatch.setattr(GameValueTable, "conditionals",
                        lambda self, labels: [1.0 - p for p in conditionals(self, labels)])
    nml = nml_predict(_block_oracle(1, 4096), 4096)
    assert _nml_equalizer_error(nml, NML_KS) > 1.0
