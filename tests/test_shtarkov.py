import copy
import dataclasses
import hashlib
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from seqpa import shtarkov
from seqpa.bounds import lipschitz_lower
from seqpa import experts
from seqpa.experts import (CodeBook, FiniteStaticFamily, HardLipschitzFamily, ParamBall,
                           ball_lattice, best_in_hindsight, build_hard_lipschitz_class,
                           ds_project, glm_family, log_likelihoods, prediction_matrix)
from seqpa.harness import _ball_features, worst_case_labels
from seqpa.losses import cumulative_loss
from seqpa.predictors import MixturePredictor, NmlPredictor, mixture_losses, nml_predict
from seqpa.shtarkov import (
    LEAF_BLOCK_BITS,
    ConstantBernoulliMLE,
    DsClosedForm,
    FiniteMaxOracle,
    HardClassReport,
    IntervalBernoulli,
    block_design_features,
    block_shtarkov_lower,
    ds_lower_bound,
    ds_sup_verify,
    hard_class_certificate,
    identification_bound,
    leaf_log_sups,
    minimax_value,
    shtarkov_sum,
)
from seqpa.experts import LOGISTIC
from test_count_grid import _memo_entries, per_step_fold


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


def test_bernoulli_horizon_zero_is_silent():
    # the empty sequence: one leaf of sup probability 1, and no 0 / 0 warning
    oracle = ConstantBernoulliMLE()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert shtarkov_sum(oracle, 0) == 0.0
        assert np.array_equal(leaf_log_sups(oracle, 0), [0.0])
        assert minimax_value(oracle, 0).root == 0.0


def test_minimax_value_root_equals_shtarkov():
    fam = FiniteStaticFamily(np.array([[0.25], [0.5], [0.9]]))
    T = 6
    oracle = FiniteMaxOracle(fam, np.zeros((T, 1)))
    table = minimax_value(oracle, T)
    assert table.root == pytest.approx(brute_force_log_shtarkov(oracle, T), abs=1e-10)


def test_game_value_rejects_bad_labels_and_prefixes_past_the_horizon():
    table = minimax_value(ConstantBernoulliMLE(), 3)
    assert table.value([]) == table.root
    assert table.value([1, 0]) == table.levels[2][2] == table.value(np.array([True, False]))
    for prefix, bad in (([0, 2], "2"), ([0.5], "0.5"), ([-1], "-1")):
        with pytest.raises(ValueError, match=f"^label must be 0 or 1, got {bad}$"):
            table.value(prefix)
    with pytest.raises(ValueError, match="^prefix of 4 labels is past the horizon 3$"):
        table.value([0, 1, 0, 1])


def test_game_value_and_nml_run_name_a_nan_or_infinite_label():
    # and a rejected call memoizes nothing
    table = minimax_value(ConstantBernoulliMLE(), 3)
    nml = nml_predict(ConstantBernoulliMLE(), 3)
    for bad in (math.nan, math.inf, -math.inf, "x", "1", None, 2, 0.5):
        for call in (table.value, nml.run):
            with pytest.raises(ValueError, match=f"^label must be 0 or 1, got {bad!r}$"):
                call([0, bad])
    with pytest.raises(ValueError, match="^prefix of 4 labels is past the horizon 3$"):
        nml.run([0, 1, 0, 1])
    assert _memo_entries(table) == _memo_entries(nml.table) == 0


def test_game_values_on_four_columns_at_the_cap_stay_under_1_mib():
    # a 4-column design at T = 22: the grids hold a few thousand cells, where
    # 2^t prefix layouts of every level would take 64 MiB
    T = 22
    rng = np.random.default_rng(29)
    fam = FiniteStaticFamily(rng.uniform(0.02, 0.98, (8, 4)),
                             feature_keys=[(float(j),) for j in range(4)])
    oracle = FiniteMaxOracle(fam, (np.arange(T) % 4)[:, None].astype(float))
    labels = rng.integers(0, 2, T).tolist()
    tracemalloc.start()
    try:
        table = minimax_value(oracle, T)
        nml = nml_predict(oracle, T)
        preds = nml.run(labels)
        leaf = table.value(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    sup = oracle.log_sup(labels)
    assert leaf == sup and abs(cumulative_loss(preds, labels) + sup - nml.regret) <= 1e-9


def _zero_one_oracle(T):
    # three experts over three feature columns, most predictions 0 or 1: many
    # prefixes have zero mass and many label-1 children have none
    fam = FiniteStaticFamily([[0.0, 1.0, 0.4], [1.0, 1.0, 0.0], [0.7, 0.0, 1.0]],
                             feature_keys=[(float(j),) for j in range(3)])
    return FiniteMaxOracle(fam, (np.arange(T) % 3)[:, None].astype(float))


def _all_sequences(T):
    return [[(j >> (T - 1 - t)) & 1 for t in range(T)] for j in range(2 ** T)]


def test_nml_memo_runs_equal_fresh_table_runs():
    T = 8
    oracle = _zero_one_oracle(T)
    sequences = _all_sequences(T)
    fresh = [nml_predict(oracle, T).run(y) for y in sequences]
    assert any(0.0 in preds for preds in fresh) and any(0.5 in preds for preds in fresh)
    warm = nml_predict(oracle, T)
    table = warm.table
    cells = sum(grid.size for grid in table.grids[:-1])
    for j in np.random.default_rng(30).permutation(2 ** T):
        assert warm.run(sequences[j]) == fresh[j]
        assert _memo_entries(table) <= cells
    # every cell of grids[:T] is visited once all sequences have run
    assert _memo_entries(table) == cells
    for j in range(16):  # repeating a run adds no entry
        assert warm.run(sequences[j]) == fresh[j] and _memo_entries(table) == cells
    # tables built from one oracle share no memo
    other = minimax_value(oracle, T)
    assert _memo_entries(other) == 0 and _memo_entries(table) == cells
    assert other.conditionals(sequences[5]) == fresh[5]
    assert _memo_entries(other) == T and _memo_entries(table) == cells


def test_game_value_table_label_forms():
    T = 6
    oracle = _zero_one_oracle(T)
    table = minimax_value(oracle, T)
    plain = [1, 0, 1, 1, 0, 0]
    expected = minimax_value(oracle, T).conditionals(plain)
    value = table.value(plain)
    forms = ([True, False, True, True, False, False],
             [np.int64(1), 0, 1, 1, 0, np.int64(0)],
             [1.0, np.float64(0.0), 1, 1, 0, 0],
             [np.array(1), np.array(0.0), 1, 1, 0, 0],
             np.array(plain), np.array(plain, dtype=bool), np.array(plain, dtype=float))
    for labels in forms:
        assert table.conditionals(labels) == expected and table.value(labels) == value
    assert table.conditionals(iter(plain)) == expected and table.value(iter(plain)) == value


def test_game_value_table_pickles_and_copies_after_runs():
    T = 8
    oracle = _zero_one_oracle(T)
    nml = nml_predict(oracle, T)
    sequences = _all_sequences(T)[::7]
    runs = [nml.run(y) for y in sequences]
    values = [nml.table.value(y[:t]) for y in sequences for t in range(T + 1)]
    for copied in (pickle.loads(pickle.dumps(nml)), copy.deepcopy(nml),
                   NmlPredictor(pickle.loads(pickle.dumps(nml.table)))):
        assert _memo_entries(copied.table) == 0
        assert [copied.run(y) for y in sequences] == runs
        assert [copied.table.value(y[:t]) for y in sequences for t in range(T + 1)] == values
        assert copied.regret == nml.regret == copied.table.root


def test_game_value_tables_compare_and_hash_by_identity():
    # a generated field-wise __eq__ compared the grids lists element-wise and
    # raised numpy's "truth value ... is ambiguous"; tables are not hashable then
    oracle = ConstantBernoulliMLE()
    a, b = minimax_value(oracle, 4), minimax_value(oracle, 4)
    assert (a == b) is False and a != b
    assert a == a and len({a, a, b}) == 2
    assert hash(a) == hash(a)


def test_one_nml_run_on_an_all_distinct_table_stays_under_64_kib():
    # T = 18 distinct columns: a 2^18-leaf grid, of which one run reads T + 1 cells
    T = 18
    rng = np.random.default_rng(18)
    fam = FiniteStaticFamily(rng.uniform(0.02, 0.98, (4, T)),
                             feature_keys=[(float(j),) for j in range(T)])
    oracle = FiniteMaxOracle(fam, np.arange(T)[:, None].astype(float))
    nml = nml_predict(oracle, T)
    labels = rng.integers(0, 2, T).tolist()
    tracemalloc.start()
    try:
        preds = nml.run(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 10
    assert _memo_entries(nml.table) == T
    assert abs(cumulative_loss(preds, labels) + oracle.log_sup(labels) - nml.regret) <= 1e-9


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


def _fold_predictions(n, T, seed):
    # exact 0 and 1 probabilities, so both logs hold -inf entries (and one
    # row's columns repeat)
    rng = np.random.default_rng(seed)
    P = rng.uniform(size=(n, T))
    P[rng.uniform(size=(n, T)) < 0.2] = 0.0
    P[rng.uniform(size=(n, T)) < 0.2] = 1.0
    P.flat[::5], P.flat[2::5] = 0.0, 1.0
    return P


def _leaves(P, reduce):
    """Every sequence's fold as the library reads it: P's distinct columns
    (`distinct_columns`) folded over their counts by `count_fold` and read by
    the public leaf reader."""
    columns, group = experts.distinct_columns(P.T, len(P))
    grid = shtarkov.count_fold(*log_likelihoods(columns), np.bincount(group), reduce)
    return shtarkov.prefix_cells(grid, group)


@pytest.mark.parametrize("reduce", [np.max, logsumexp])
@pytest.mark.parametrize("T", [0, 1, 5, LEAF_BLOCK_BITS + 2])
@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_fold_bit_identical_to_broadcast_reference(n, T, reduce):
    P = _fold_predictions(n, T, seed=n * 100 + T)
    with np.errstate(invalid="ignore"):
        got, want = _leaves(P, reduce), per_step_fold(*log_likelihoods(P), reduce)
    assert got.shape == (2 ** T,)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("reduce", [np.max, logsumexp])
def test_fold_bit_identical_over_prefix_blocks(reduce, monkeypatch):
    # T = 7 with 2-bit blocks: 32 prefix blocks, all but the first with head > 0
    monkeypatch.setattr(shtarkov, "LEAF_BLOCK_BITS", 2)
    for n in (1, 3, 8):
        P = _fold_predictions(n, 7, seed=n)
        with np.errstate(invalid="ignore"):
            assert np.array_equal(_leaves(P, reduce), per_step_fold(*log_likelihoods(P), reduce))


def _distinct_terms(n, T):
    """(a0, a1, N) of T distinct columns, one step each: the count grid is the
    2^T leaves."""
    return (np.zeros((n, T)), np.tile(-np.arange(T, dtype=float), (n, 1)),
            np.ones(T, dtype=np.intp))


def test_fold_size_check_boundary(monkeypatch):
    # count_fold bounds its (n, block) array, its (n, heads) head array and
    # its grid, each at the cap: 3-bit blocks and a 64-element cap
    monkeypatch.setattr(shtarkov, "LEAF_BLOCK_BITS", 3)
    monkeypatch.setattr(shtarkov, "FOLD_ELEMENT_CAP", 64)
    fold = shtarkov.count_fold
    assert fold(*_distinct_terms(8, 5), np.max).shape == (2,) * 5  # block 8 * 2^3
    with pytest.raises(ValueError, match=r"^count_fold of n=9 rows at T=5 needs 576 bytes "
                       r"for its block, over the 512-byte cap$"):
        fold(*_distinct_terms(9, 5), np.max)
    assert fold(*_distinct_terms(8, 6), np.max).size == 64  # head array 8 * 2^3, grid 2^6
    with pytest.raises(ValueError, match=r"n=8 rows at T=7 needs 1024 bytes for its head array"):
        fold(*_distinct_terms(8, 7), np.max)
    with pytest.raises(ValueError, match=r"n=1 rows at T=7 needs 1024 bytes for its grid"):
        fold(*_distinct_terms(1, 7), np.max)
    # one column predicting at T = 63 steps: a 64-cell grid for 2^63 sequences
    assert fold(np.zeros((1, 1)), np.ones((1, 1)), [63], np.max).shape == (64,)
    with pytest.raises(ValueError, match=r"n=1 rows at T=64 needs 520 bytes for its block"):
        fold(np.zeros((1, 1)), np.ones((1, 1)), [64], np.max)


def test_oversize_fold_fails_before_allocating():
    # 14 distinct columns: one block of 2^14 cells a row, 4,097 rows just over the cap
    n, T = 4_097, 14
    terms = _distinct_terms(n, T)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^count_fold of n={n} rows at T={T} needs "
                           f"{8 * n * 2 ** 14} bytes for its block"):
            shtarkov.count_fold(*terms, logsumexp)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()
    keys = [(float(t),) for t in range(T)]
    fam = FiniteStaticFamily(np.random.default_rng(0).uniform(size=(n, T)), feature_keys=keys)
    features = np.arange(T, dtype=float)[:, None]
    with pytest.raises(ValueError, match=f"^count_fold of n={n} rows at T={T}"):
        mixture_losses(fam, features)
    with pytest.raises(ValueError, match=f"^count_fold of n={n} rows at T={T}"):
        worst_case_labels(lambda: MixturePredictor(fam), fam, features)


def test_refused_fold_holds_only_its_distinct_columns():
    # 4,097 experts over 14 feature keys, each read 64 times: an (n, T)
    # prediction matrix would take 29 MiB, the 14 distinct columns take 0.44
    # MiB, and a refused mixture_losses holds a few copies of those alone
    n, K, T = 4_097, 14, 14 * 64
    table = np.random.default_rng(0).uniform(0.05, 0.95, (n, K))
    fam = FiniteStaticFamily(table, feature_keys=[(float(j),) for j in range(K)])
    features = (np.arange(T) % K).astype(float)[:, None]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^count_fold of n={n} rows at T={T} needs "):
            mixture_losses(fam, features)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * n * K


def test_distinct_columns_verify_bit_for_bit_behind_the_hash(monkeypatch):
    # groups in order of first appearance; -0.0 and 0.0 differ, NaN equals
    # itself bit for bit; every step is read from one reused buffer, so a
    # kept column must be a copy; then again with every hash colliding
    col = {"a": [0.0, -1.0], "b": [-0.0, -1.0], "c": [math.nan, -2.0], "d": [0.0, -3.0],
           "e": [0.0, 5.0]}

    def read(steps):
        buf = np.empty(2)
        for k in steps:
            buf[:] = col[k]
            yield buf

    want = [0, 1, 2, 2, 1, 3, 0, 3]
    for _ in range(2):
        columns, group = experts.distinct_columns(read("baccadbd"), 2)
        assert group.tolist() == want
        assert columns.tobytes() == np.array([col[k] for k in "bacd"]).T.tobytes()
        assert experts.distinct_columns(read("baccadbe"), 2)[1].tolist() == want[:-1] + [4]
        monkeypatch.setattr(experts, "hash", lambda key: 0, raising=False)
    columns, group = experts.distinct_columns(read(""), 3)
    assert columns.shape == (3, 0) and group.shape == (0,)


def test_constant_column_family_is_scored_on_its_count_grid():
    # the tuned T = 16 M-SOA cover's size, every column 1/2: 17 grid cells a
    # member, where a per-step layout of 69,505 * 2^14 cells would be 8.5 GiB
    n, T = 69_505, 16
    fam = FiniteStaticFamily(np.full((n, 1), 0.5))
    features = np.zeros((T, 1))
    np.testing.assert_allclose(mixture_losses(fam, features), T * math.log(2), rtol=0, atol=1e-12)
    labels, regret = worst_case_labels(lambda: MixturePredictor(fam), fam, features)
    assert len(labels) == T and abs(regret) <= 1e-12


def test_leaf_check_boundary(monkeypatch):
    # 2^T leaves against a 64-element cap: T = 6 is read, T = 7 is refused
    # before anything of size 2^T is built, the logistic solves included
    monkeypatch.setattr(shtarkov, "FOLD_ELEMENT_CAP", 64)
    fam = FiniteStaticFamily([[0.25], [0.75]])
    logistic = FiniteMaxOracle(glm_family(d=1, R=1.0), np.full((7, 1), 0.5))
    calls = [lambda T: mixture_losses(fam, np.zeros((T, 1))),
             lambda T: leaf_log_sups(FiniteMaxOracle(fam, np.zeros((T, 1))), T),
             lambda T: leaf_log_sups(ConstantBernoulliMLE(), T),
             lambda T: minimax_value(ConstantBernoulliMLE(), T).levels[-1],
             lambda T: leaf_log_sups(logistic, T)]
    for call in calls:
        assert call(6).shape == (64,)
    monkeypatch.setattr(shtarkov, "_best_logistic", None)  # a solve would raise TypeError
    for call in calls:
        with pytest.raises(ValueError, match=r"^2\^7 leaves need 1024 bytes, over the 512-byte cap$"):
            call(7)


def test_refused_levels_read_allocates_under_the_cap(monkeypatch):
    # a one-group T = 40 table has 861 level cells; its 2^40 prefix layout
    # is refused before any level is laid out: levels 0..16 alone would take
    # twice a 2^16-element cap
    monkeypatch.setattr(shtarkov, "FOLD_ELEMENT_CAP", 2 ** 16)
    table = minimax_value(ConstantBernoulliMLE(), 40)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^2\^40 leaves need 8796093022208 bytes, over "
                           r"the 524288-byte cap$"):
            table.levels
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 16


@pytest.mark.parametrize("n, T, groups", [(200, 16, 16), (69_505, 16, 1)])
def test_logsumexp_fold_peak_is_within_8x_its_largest_checked_array(n, T, groups):
    # the largest checked array: 16 distinct columns give (n, 2^14) blocks,
    # one group of 16 steps an (n, 17) block
    largest = n * (2 ** 14 if groups == T else T + 1)
    P = np.random.default_rng(n).uniform(0.05, 0.95, (n, groups))
    a0, a1 = np.log1p(-P), np.log(P)
    tracemalloc.start()
    try:
        shtarkov.count_fold(a0, a1, np.full(groups, T // groups), logsumexp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 * largest


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


def _dense_logistic_leaves(oracle, T):
    """The logistic leaves from one solve over all 2^T label rows at once."""
    labels = (np.arange(2 ** T)[:, None] >> np.arange(T - 1, -1, -1)) & 1
    return -best_in_hindsight(oracle.family, oracle.features[:T], labels.astype(np.uint8))[1]


@pytest.mark.parametrize("T", [0, 1, 5, 15])
def test_logistic_leaves_in_row_blocks_equal_the_dense_form(T, monkeypatch):
    features = _ball_features(np.random.default_rng(T), T, 2)
    oracle = FiniteMaxOracle(glm_family(d=2, R=1.0), features)
    # three blocks, the last one ragged from T = 5 on, and the solver's own
    # blocks the same size
    for module in (shtarkov, experts):
        monkeypatch.setattr(module, "ROW_BLOCK", 2 ** T // 3 + 1)
    assert np.array_equal(leaf_log_sups(oracle, T), _dense_logistic_leaves(oracle, T))


def test_logistic_leaves_memory_is_one_row_block():
    # all 2^16 label rows at once took 21 MiB here (two int64 copies of the
    # rows beside the solve); one ROW_BLOCK of rows at a time takes 12 MiB
    T = 16
    features = _ball_features(np.random.default_rng(0), T, 1)
    oracle = FiniteMaxOracle(glm_family(d=1, R=1.0), features)
    tracemalloc.start()
    try:
        leaf_log_sups(oracle, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


_FINITE = FiniteStaticFamily([[0.3], [0.9]])


@pytest.mark.parametrize("log_sup", [
    lambda y: -best_in_hindsight(_FINITE, np.zeros((2, 1)), y)[1],
    lambda y: -best_in_hindsight(glm_family(), np.full((2, 1), 0.5), y)[1],
    lambda y: FiniteMaxOracle(_FINITE, np.zeros((2, 1))).log_sup(y),
    lambda y: IntervalBernoulli(0.2, 0.8).log_sup(y),
    lambda y: ConstantBernoulliMLE().log_sup(y),
], ids=["finite", "logistic", "finite-oracle", "interval", "constant-mle"])
def test_labels_other_than_0_or_1_are_rejected(log_sup):
    for labels, bad in (([2, 0], "2"), ([0.5, 0], "0.5"), ([0, -1], "-1"),
                        ([math.nan, 1], "nan"), ([[1, 0], [0, 3]], "3")):
        with pytest.raises(ValueError, match=f"^label must be 0 or 1, got {bad}$"):
            log_sup(labels)
    # 0 and 1 of any numeric type are labels
    assert log_sup([1, 0]) == log_sup([1.0, 0.0]) == log_sup(np.array([True, False]))


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


@pytest.mark.parametrize("family", [FiniteStaticFamily([[0.3], [0.6]]), glm_family(d=1, R=1.0)])
def test_empty_horizon(family):
    # T = 0: the empty label sequence has probability 1 under every expert
    oracle = FiniteMaxOracle(family, np.zeros((2, 1)))
    assert minimax_value(oracle, 0).root == 0.0
    assert shtarkov_sum(oracle, 0) == 0.0
    if hasattr(family, "n_experts"):
        assert prediction_matrix(family, np.zeros((0, 1))).shape == (2, 0)
        assert mixture_losses(family, np.zeros((0, 1))).tolist() == [0.0]


def test_interval_bernoulli_clamps_mle():
    oracle = IntervalBernoulli(0.3, 0.7)
    # k/n = 0 clamps to 0.3
    expected = 4 * math.log(0.7)
    assert oracle.log_sup_by_count(0, 4) == pytest.approx(expected)
    # interior MLE untouched
    assert oracle.log_sup_by_count(2, 4) == pytest.approx(
        ConstantBernoulliMLE().log_sup_by_count(2, 4))


def test_interval_bernoulli_names_the_fault():
    with pytest.raises(ValueError, match="interval lo=0.7 is above hi=0.2"):
        IntervalBernoulli(0.7, 0.2)
    for lo, hi in ((-0.1, 0.5), (0.2, 1.5), (1.2, 0.3), (0.5, -0.1)):
        with pytest.raises(ValueError, match=r"interval must sit inside \[0, 1\]"):
            IntervalBernoulli(lo, hi)
    assert IntervalBernoulli(0.4, 0.4).log_sup_by_count(1, 2) == pytest.approx(math.log(0.24))


def test_restricted_binomial_matches_brute_force():
    oracle = IntervalBernoulli(0.3, 0.7)
    for n in (1, 3, 6):
        assert shtarkov_sum(oracle, n) == pytest.approx(
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


def _dense_ds_brute(labels, s, grid_cap):
    """ds_sup_verify's brute value from the whole grid at once, as computed
    before the grid was walked in blocks."""
    k = sum(labels)
    m = max(2, int(grid_cap ** (1.0 / k)))
    grid = ball_lattice(np.linspace(1.0 / m, 1.0, m), k, math.inf, 1.0)
    with np.errstate(divide="ignore"):
        return float(np.log(ds_project(grid, s)).sum(axis=1).max())


@pytest.mark.parametrize("grid_cap", [1_000, 200_000])
def test_ds_sup_verify_blocks_equal_the_dense_grid(grid_cap):
    # at the default cap k = 1, 2 and 6 end in a ragged block and k = 6's
    # slowest-coordinate slice alone is over the block size
    rng = np.random.default_rng(grid_cap)
    for k in range(1, 7):
        labels = [0] * int(rng.integers(k, 9))
        for t in rng.choice(len(labels), size=k, replace=False):
            labels[t] = 1
        for s in (1.0, 2.0, 3.5, math.inf):
            closed, brute = ds_sup_verify(labels, s, grid_cap=grid_cap)
            assert brute == _dense_ds_brute(labels, s, grid_cap), (labels, s)
            assert closed == float(DsClosedForm(s).log_sup_by_count(k, len(labels)))


@pytest.mark.parametrize("k", [3, 4])
def test_ds_sup_verify_memory_is_one_block(k):
    labels = [1] * k + [0] * (8 - k)
    tracemalloc.start()
    try:
        closed, brute = ds_sup_verify(labels, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"ds_sup_verify k={k}: peak {peak / 2 ** 20:.2f} MiB")
    assert peak < 4 * 2 ** 20
    assert closed == pytest.approx(brute, abs=1e-3)


def test_ds_lower_bound_formula():
    for s in (1.0, 2.0):
        exact, formula = ds_lower_bound(100, s)
        assert exact >= formula - 1e-9
        assert formula == pytest.approx(
            ((s + 1) / (s * math.e)) * 100 ** (s / (s + 1)))


@pytest.mark.parametrize("labels", [[2, 0, 0], [0, -1], [0.5, 1]])
def test_ds_sup_verify_rejects_non_binary_labels(labels):
    with pytest.raises(ValueError, match="label must be 0 or 1"):
        ds_sup_verify(labels, 2.0)


def test_block_design_features_shape():
    X = block_design_features(3, 18)
    assert X.shape == (18, 3)
    # each block of T / d steps uses a single basis vector
    np.testing.assert_array_equal(X, np.repeat(np.eye(3), 6, axis=0))
    for d, T in ((3, 20), (3, 2), (2, 0)):  # d not dividing T, d > T, T = 0
        with pytest.raises(ValueError,
                           match=rf"^block design needs d \| T \(got T={T}, d={d}\)$"):
            block_design_features(d, T)


def test_block_shtarkov_lower_monotone_in_T():
    vals = [block_shtarkov_lower(2, 2 * n, LOGISTIC, 2.0) for n in (64, 256, 1024)]
    assert vals[0] < vals[1] < vals[2]


# sha256 of `python scripts/minimax_tables.py` stdout (Bernoulli sums,
# ds_lower_bound, block_shtarkov_lower); a change that moves a digit updates
# this pin and explains the move in CHANGES.md.
MINIMAX_TABLES_SHA256 = "3502db2e1b3381c30354e71e7c04c0e487b51f8674a5c15617bd4edfa94a13e3"
# sha256 of `python scripts/hard_class_report.py` stdout at its default arguments
HARD_CLASS_REPORT_SHA256 = "23576f0e0172b28f01fd82628366a3a253829973a2db47efd059e0efc2ebc4f0"


def _run_script(name, *args):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, str(root / "scripts" / name), *args],
                          env=env, capture_output=True, timeout=120)


def test_minimax_tables_stdout_pinned():
    run = _run_script("minimax_tables.py")
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout).hexdigest() == MINIMAX_TABLES_SHA256


def test_hard_class_report_stdout_pinned():
    run = _run_script("hard_class_report.py")
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout).hexdigest() == HARD_CLASS_REPORT_SHA256


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


def test_identification_bound_rejects_entries_off_the_unit_interval():
    # rows sum to 1, but the first is not a distribution
    with pytest.raises(ValueError, match="probability distributions"):
        identification_bound([[1.5, -0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match=r"distributions is empty \(shape \(0, 2\)\)"):
        identification_bound(np.zeros((0, 2)))


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


def _reference_min_hamming(vectors):
    """The per-pair Hamming loop the pairwise count matrix replaced."""
    best = vectors.shape[1]
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            best = min(best, int((vectors[i] != vectors[j]).sum()))
    return best


def _reference_certificate(family, codebook, trials, seed):
    """The per-pair loss loop the pairwise count matrix replaced, with both
    sides of each test read from its index sets."""
    table, ball = family.table, family.ball
    M, T = table.shape
    rng = np.random.default_rng(seed)
    worst, per_source = 0.0, max(1, trials // M)
    for src in range(M):
        samples = rng.uniform(size=(per_source, T)) < table[src]
        lost = np.zeros(per_source, dtype=bool)
        for other in range(M):
            if other != src:
                J = np.where((table[src] == 0) & (table[other] > 0))[0]
                K = np.where((table[other] == 0) & (table[src] > 0))[0]
                if len(J) >= len(K):
                    lost |= samples[:, J].any(axis=1)
                else:
                    lost |= ~samples[:, K].any(axis=1)
        worst = max(worst, int(lost.sum()) / per_source)
    std_err = math.sqrt(max(worst * (1 - worst), 1.0 / per_source) / per_source)
    analytic = M ** 2 * math.exp(-float(table.max()) * T / 8.0)
    formula = lipschitz_lower(T, ball.dimension, ball.radius, family.lipschitz)
    return HardClassReport(M, codebook.min_hamming, T / 4.0, worst, std_err, analytic,
                           math.log(M / 2.0), formula, M > 2 and min(worst, analytic) <= 0.5)


def _codebook_family(vectors, alpha):
    M, T = vectors.shape
    return HardLipschitzFamily(np.arange(M)[:, None], vectors * alpha, np.zeros((T, 1)),
                               1.0, ParamBall(1, 1.0))


def test_hard_class_certificate_matches_per_pair_reference():
    rng = np.random.default_rng(2205)
    reports = []
    while len(reports) < 240:
        M, T = int(rng.integers(2, 7)), int(rng.integers(4, 24))
        vectors = rng.integers(0, 2, size=(M, T)).astype(np.uint8)
        min_h = _reference_min_hamming(vectors)
        assert experts._min_pairwise_hamming(vectors) == min_h
        if min_h < T / 4:
            continue
        fam = _codebook_family(vectors, float(rng.uniform(0.05, 0.9)))
        cb = CodeBook(vectors)
        trials, seed = int(rng.integers(50, 400)), int(rng.integers(1000))
        report = hard_class_certificate(fam, cb, trials=trials, seed=seed)
        reference = _reference_certificate(fam, cb, trials, seed)
        assert dataclasses.astuple(report) == dataclasses.astuple(reference)
        reports.append(report)
    assert sum(r.mc_error > 0 for r in reports) > len(reports) / 2


def _random_codebook(rng, M, T):
    while True:
        vectors = rng.integers(0, 2, size=(M, T)).astype(np.uint8)
        min_h = _reference_min_hamming(vectors)
        if min_h >= T / 4:
            return CodeBook(vectors)


def test_hard_class_certificate_blocks_equal_one_dense_draw(monkeypatch):
    # every source's draws span at least three row blocks, the last one
    # ragged: three cases at the module's block size, then 64-value blocks
    rng = np.random.default_rng(2020)

    def certify(M, T, alpha, max_blocks):
        rows = shtarkov._DRAW_BLOCK_ELEMENTS // T
        assert rows >= 2
        per_source = rows * int(rng.integers(3, max_blocks)) + int(rng.integers(1, rows))
        cb = _random_codebook(rng, M, T)
        fam = _codebook_family(cb.vectors, alpha)
        trials, seed = per_source * M + int(rng.integers(M)), int(rng.integers(1000))
        report = hard_class_certificate(fam, cb, trials=trials, seed=seed)
        assert dataclasses.astuple(report) == dataclasses.astuple(
            _reference_certificate(fam, cb, trials, seed))
        return report

    for M, T, alpha in ((3, 2048, 0.002), (2, 1000, 0.004), (4, 700, 0.008)):
        assert certify(M, T, alpha, 6).mc_error > 0
    monkeypatch.setattr(shtarkov, "_DRAW_BLOCK_ELEMENTS", 64)
    reports = [certify(int(rng.integers(2, 6)), int(rng.integers(4, 25)),
                       float(rng.uniform(0.05, 0.9)), 20) for _ in range(60)]
    assert sum(r.mc_error > 0 for r in reports) > len(reports) / 2


def test_hard_class_certificate_memory_does_not_grow_with_trials():
    pinned = {
        2048: (8, 964, 512.0, 0.0, 0.0008, 1.5258789062499998e-05, math.log(4),
               1.4343535505830207, True),
        512: (2, 234, 128.0, 0.0, 2e-05, 1.5258789062500003e-05, 0.0,
              0.24872988492528125, False),
    }
    for T, trials in ((2048, 10 ** 4), (512, 10 ** 5)):
        fam, cb = build_hard_lipschitz_class(d=1, T=T, R=1.0, L=1.0,
                                             alpha=16 * math.log(T) / T, seed=0)
        tracemalloc.start()
        try:
            report = hard_class_certificate(fam, cb, trials=trials, seed=0, d=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one dense draw per source would hold trials / M * T * 8 bytes
        print(f"T={T} trials={trials}: peak {peak / 2 ** 20:.2f} MiB against "
              f"{trials // report.n_sources * T * 8 / 2 ** 20:.1f} MiB of dense draws")
        assert peak < 4 * 2 ** 20
        assert dataclasses.astuple(report) == pinned[T]


def test_bad_trials_and_grid_cap_are_rejected():
    cb = _random_codebook(np.random.default_rng(0), 2, 8)
    fam = _codebook_family(cb.vectors, 0.5)
    for trials in (0, -3):
        with pytest.raises(ValueError, match=f"trials must be a positive integer, got {trials}"):
            hard_class_certificate(fam, cb, trials=trials)
    for grid_cap in (0, -5):
        for labels in ([1, 0, 1], [0, 0]):
            with pytest.raises(ValueError, match=f"grid_cap must be at least 1, got {grid_cap}"):
                ds_sup_verify(labels, 2.0, grid_cap=grid_cap)


def test_hard_class_report_rejects_zero_trials():
    run = _run_script("hard_class_report.py", "--trials", "0")
    assert run.returncode == 2
    assert run.stdout == b""
    assert run.stderr.decode().strip().split("\n")[-1] == (
        "hard_class_report.py: error: trials must be a positive integer, got 0")


def test_hard_class_certificate_marks_the_exposed_source():
    # ones on {0, 1} and on {2, 3, 4}: the pair's test reads {2, 3, 4}, where
    # source 0 is 0, so only source 1 can lose, when it draws no 1 there
    T, alpha, trials = 8, 0.5, 20_000
    vectors = np.zeros((2, T), dtype=np.uint8)
    vectors[0, :2] = vectors[1, 2:5] = 1
    report = hard_class_certificate(_codebook_family(vectors, alpha), CodeBook(vectors),
                                    trials=trials, seed=0)
    exact = (1 - alpha) ** 3
    assert abs(report.mc_error - exact) <= 4 * math.sqrt(exact * (1 - exact) / (trials // 2))


def test_hard_class_certificate_at_d2():
    T = 2048
    alpha = 16 * math.log(T) / T
    fam, cb = build_hard_lipschitz_class(d=2, T=T, R=2.0, L=1.0, alpha=alpha, seed=0)
    tracemalloc.start()
    try:
        report = hard_class_certificate(fam, cb, trials=10_000, seed=0, d=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert cb.min_hamming == _reference_min_hamming(cb.vectors) == 924 >= T / 4
    assert dataclasses.astuple(report) == (281, 924, 512.0, 0.0, 1 / 35, 0.018825769424438473,
                                           math.log(281 / 2), 2.694684347186782, True)
    formula = lipschitz_lower(T, 2, 2.0, 1.0)
    assert report.implied_lower_bound > formula == report.formula_lower_bound


def test_negative_horizon_and_empty_block_design_are_rejected():
    # one horizon rule for every entry point of the label tree, on a finite
    # and on an exchangeable oracle
    finite = FiniteMaxOracle(FiniteStaticFamily([[0.3], [0.6]]), np.zeros((3, 1)))
    for oracle in (ConstantBernoulliMLE(), finite):
        for call in (shtarkov_sum, minimax_value, leaf_log_sups, nml_predict):
            for T in (-1, 2.5, math.nan):
                with pytest.raises(ValueError, match=f"^T must be a nonnegative integer, got {T}$"):
                    call(oracle, T)
        table = minimax_value(oracle, 3)
        for T in (3.0, np.int64(3)):  # the table of T = 3, level for level
            for same in (minimax_value(oracle, T), nml_predict(oracle, T).table):
                assert same.horizon == 3 and type(same.horizon) is int
                assert all(np.array_equal(a, b) for a, b in zip(same.levels, table.levels, strict=True))
            assert np.array_equal(leaf_log_sups(oracle, T), table.levels[-1])
    with pytest.raises(ValueError, match="T must be a nonnegative integer, got -1"):
        ds_lower_bound(-1, 1.0)
    for T in (10, np.int64(10), 10.0):  # an integral T of any type keeps its value
        assert shtarkov_sum(ConstantBernoulliMLE(), T) == 1.5390617303283205
        assert shtarkov_sum(finite, T // 5) == shtarkov_sum(finite, 2)
    with pytest.raises(ValueError, match="d must be a positive integer, got 0"):
        block_shtarkov_lower(0, 8, LOGISTIC, 1.0)


def test_block_shtarkov_lower_rejects_a_horizon_d_does_not_divide():
    # the block_design_features error, not a silent trim to d * floor(T / d)
    for T in (41, 1, 0):
        with pytest.raises(ValueError, match=rf"^block design needs d \| T \(got T={T}, d=2\)$"):
            block_shtarkov_lower(2, T, LOGISTIC, 2.0)
