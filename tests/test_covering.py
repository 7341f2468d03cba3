import gc
import itertools
import math
import re
import time
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from seqpa.bounds import cover_upper
from seqpa.covering import (
    DiscretizedFamily,
    MsoaCoverFamily,
    cover_size_bound,
    discretization_levels,
    discretize,
    fat1_number,
    fat_shattering_number,
    grid_cover,
    msoa_cover,
    msoa_run,
)
from seqpa.experts import (DsFamily, FiniteStaticFamily, best_in_hindsight,
                           build_hard_lipschitz_class, glm_family, prediction_matrix)
from seqpa.harness import greedy_label_fn, run_protocol, worst_case_labels
from seqpa.predictors import MixturePredictor, continuous_bayes
from seqpa.shtarkov import block_design_features


def test_discretization_levels_cover_unit_interval():
    for alpha in (0.05, 0.1, 0.15, 0.25, 0.3, 0.4):
        levels = discretization_levels(alpha)
        assert len(levels) <= math.ceil(1 / (2 * alpha)) + 1
        assert levels.max() <= 1
        grid = np.linspace(0, 1, 2001)
        dist = np.abs(grid[:, None] - levels[None, :]).min(axis=1)
        assert dist.max() <= alpha + 1e-12


def test_discretize_snaps_to_nearest_lower_on_ties():
    alpha = 0.25  # levels 0.25, 0.75; tie at 0.5
    dfam = discretize([[0.5, 0.1, 0.9]], alpha)
    np.testing.assert_array_equal(dfam.table, [[0, 0, 1]])
    assert dfam.K == 2


def test_discretize_rejects_values_off_the_unit_interval():
    for bad in (1.7, -0.3, math.nan):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            discretize([[0.5, bad]], 0.25)


@pytest.mark.parametrize("fn, args, message", [
    (discretization_levels, (0.0,), "alpha must be a positive finite number, got 0.0"),
    (discretization_levels, (-0.1,), "alpha must be a positive finite number, got -0.1"),
    (discretize, ([[0.5]], 0.0), "alpha must be a positive finite number, got 0.0"),
    (discretize, ([[0.5]], -0.1), "alpha must be a positive finite number, got -0.1"),
    (block_design_features, (0, 8), "d must be a positive integer, got 0"),
    (block_design_features, (-1, 8), "d must be a positive integer, got -1"),
    (discretize, ([[0.5, 0.5]], 0.25, [(0.0,)]), "1 feature_keys for 2 table columns"),
    (msoa_cover, ([[0.1, 0.9]], 0.25, 3, [(0.0,), (0.5,), (1.0,)]),
     "3 feature_keys for 2 table columns"),
    (msoa_cover, ([[0.1, 0.9]], 0.25, -1, [(0.0,), (1.0,)]),
     "T must be a nonnegative integer, got -1"),
    # an l2 grid misses an l_inf ball's corners (it reaches l2 norm 1.354 of sqrt(2) here)
    (continuous_bayes, (glm_family(d=2, s=math.inf), 64, 0.25),
     "continuous_bayes needs an l2 ball, got norm order inf"),
    (continuous_bayes, (glm_family(d=1), 0, 0.25), "T must be a positive integer, got 0"),
])
def test_bad_scale_or_dimension_raises_value_error(fn, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(*args)


def test_grid_cover_covers_family():
    fam = glm_family(d=1, R=1.0)
    alpha = 0.1
    cover = grid_cover(fam, alpha)
    assert len(cover) <= (2 * 1 * 1 / alpha + 1) ** 1
    rng = np.random.default_rng(0)
    features = rng.uniform(-1, 1, (5, 1))
    # (members, T) predictions of every lattice point along the features
    preds = np.stack([cover.family.all_predictions(t, x) for t, x in enumerate(features)],
                     axis=1)
    for _ in range(50):
        w = rng.uniform(-1, 1, 1)
        target = 1.0 / (1.0 + np.exp(-(features @ w)))
        assert (np.abs(preds - target).max(axis=1) <= alpha + 1e-12).any()


def test_grid_cover_d2_within_bound():
    fam = glm_family(d=2, R=1.0)
    alpha = 0.25
    cover = grid_cover(fam, alpha)
    assert len(cover) <= (2 / alpha + 1) ** 2
    assert cover.family.n_experts == len(cover)


def test_grid_cover_lattice_memory_is_the_cover():
    # the 103,733-member cover takes 1.58 MiB; the dense meshgrid with its
    # abs and power copies peaked at 9.05 MiB
    tracemalloc.start()
    try:
        cover = grid_cover(glm_family(d=2), 2 / 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"grid_cover d=2, alpha=2/512: peak {peak / 2 ** 20:.2f} MiB")
    assert len(cover) == 103_733
    assert peak < 5 * 2 ** 20


def test_grid_cover_rejects_bad_alpha():
    fam = glm_family(d=1, R=1.0)
    with pytest.raises(ValueError):
        grid_cover(fam, 0.0)
    # a family with a ball and a Lipschitz constant is not yet the logistic one
    hard, _ = build_hard_lipschitz_class(d=1, T=64, R=1.0, L=1.0, alpha=0.1, seed=0)
    look_alike = types.SimpleNamespace(ball=fam.ball, lipschitz=fam.lipschitz)
    for other, name in ((hard, "HardLipschitzFamily"), (look_alike, "SimpleNamespace")):
        with pytest.raises(TypeError, match=f"needs a ParametricFamily, got {name}$"):
            grid_cover(other, 0.1)


def test_fat_shattering_threshold_family():
    # thresholds on 4 points: value 0 or 1 per feature, classic shattering
    values = np.array([[(0.0 if i < j else 1.0) for j in range(4)]
                       for i in range(4)])
    depth, exact = fat_shattering_number(values, alpha=0.4)
    assert exact
    assert depth == 2  # 4 members can shatter a depth-2 tree at margin 0.4


def test_fat_shattering_constant_family_is_zero():
    values = np.full((3, 4), 0.5)
    depth, exact = fat_shattering_number(values, alpha=0.1)
    assert depth == 0 and exact


def test_fat_shattering_empty_family():
    depth, exact = fat_shattering_number(np.empty((0, 2)), alpha=0.1)
    assert depth == -1 and exact


def test_fat1_matches_fat_on_snapped_values():
    rng = np.random.default_rng(2)
    alpha = 0.2
    levels = discretization_levels(alpha)
    for _ in range(20):
        table = rng.integers(0, len(levels), (4, 3))
        d1, e1 = fat1_number(table, len(levels))
        assert e1
        # a level gap of >= 2 indices means a value gap >= 4*alpha > 2*alpha
        values = levels[table]
        d2, e2 = fat_shattering_number(values, alpha)
        assert e2
        assert d1 <= d2  # 1-level shattering implies alpha-shattering


def test_msoa_realizable_errors_bounded_by_fat1():
    alpha = 0.25
    values = np.array([[0.1, 0.9, 0.1], [0.9, 0.1, 0.9], [0.1, 0.1, 0.9]])
    dfam = discretize(values, alpha)
    d, _ = fat1_number(dfam.table, dfam.K)
    T = 5
    for target in range(dfam.n_experts):
        for x_cols in itertools.product(range(3), repeat=T):
            y = [int(dfam.table[target, j]) for j in x_cols]
            _, errors = msoa_run(dfam, x_cols, y)
            assert errors <= d


def test_msoa_unrealizable_raises():
    dfam = discretize([[0.1, 0.1]], 1 / 6)  # K=3, single expert at level 0
    with pytest.raises(RuntimeError):
        # label level 2 is >= 2 levels off: an error with no consistent expert
        msoa_run(dfam, [0, 0], [2, 2])


def test_msoa_rejects_label_off_the_levels():
    dfam = discretize([[0.1, 0.9]], 1 / 6)  # K=3
    for y in (-2, 3):
        with pytest.raises(ValueError, match="not in range"):
            msoa_run(dfam, [0], [y])


def test_msoa_rejects_column_off_the_features():
    dfam = discretize([[0.1, 0.9]], 1 / 6)  # two feature columns
    for j in (-1, 2):
        with pytest.raises(ValueError, match=f"feature column {j} at step 0"):
            msoa_run(dfam, [j], [0])


def test_msoa_rejects_label_count_off_the_columns():
    dfam = discretize([[0.1, 0.9]], 1 / 6)
    for y_levels in ([0], [0, 2, 2]):
        with pytest.raises(ValueError, match="labels for 2 feature columns"):
            msoa_run(dfam, [0, 1], y_levels)


class _RecordingCache:
    """Passes `value` through to `inner` and records every subfamily asked for."""

    def __init__(self, inner):
        self.inner, self.asked = inner, []

    def value(self, members):
        self.asked.append(frozenset(members))
        return self.inner.value(members)


def _scan_msoa_run(dfam, x_cols, y_levels, cache, visited):
    """The learner with its subclasses rebuilt by a generator scan over the
    members at every step, scoring every step afresh: the reference for the
    level-index step.  Appends each step's (members, j) to `visited`."""
    columns = dfam.table.T.tolist()
    members = frozenset(range(dfam.n_experts))
    preds, errors = [], 0
    for j, y in zip(x_cols, y_levels):
        visited.append((members, j))
        subclasses = [frozenset(i for i in members if columns[j][i] == k) for k in range(dfam.K)]
        scores = [cache.value(sub) for sub in subclasses]
        khat = scores.index(max(scores))
        preds.append(khat)
        if abs(khat - y) >= 2:
            errors += 1
            members = subclasses[y]
            if not members:
                raise RuntimeError("consistent class became empty")
    return preds, errors


def _outcome(run, cache):
    try:
        return run(cache), cache.asked
    except RuntimeError:
        return RuntimeError, cache.asked


def _memoized_queries(asked, visited, K, seen):
    """The scan's queries `asked` minus the K of each step whose (members, j)
    is in `seen`, the steps of this family already scored (updated in place):
    what a learner scoring each step once per family asks."""
    out = []
    for i, step in enumerate(visited):
        if step not in seen:
            seen.add(step)
            out += asked[i * K:(i + 1) * K]
    return out


def test_msoa_level_index_matches_scan_reference():
    # same predictions and errors as the scan, and the scan's cache queries in
    # the same order, minus those of each (members, j) step the family has
    # already scored, in this run or an earlier one
    rng = np.random.default_rng(11)
    empty_levels = ties = runs = repeats = 0
    for _ in range(120):
        K = int(rng.choice([2, 3, 4]))
        n, m = int(rng.integers(1, 13)), int(rng.integers(1, 5))
        # some tables use only the low levels, so whole levels stay empty
        table = rng.integers(0, int(rng.integers(1, K + 1)), (n, m))
        levels = discretization_levels(1.0 / (2.0 * K))[:K]
        dfam = DiscretizedFamily(alpha=1.0 / (2.0 * K), levels=levels, table=table)
        for j, column_sets in enumerate(dfam.level_sets):
            assert len(column_sets) == K
            assert sum(len(s) for s in column_sets) == n
            assert frozenset().union(*column_sets) == frozenset(range(n))
            for k, s in enumerate(column_sets):
                assert s == frozenset(np.flatnonzero(table[:, j] == k).tolist())
        memo, seen = dfam.shattering, set()
        for _ in range(6):
            x_cols = rng.integers(0, m, int(rng.integers(0, 7))).tolist()
            target = int(rng.integers(0, n))
            for y in ([int(table[target, j]) for j in x_cols],
                      rng.integers(0, K, len(x_cols)).tolist()):
                got = _outcome(lambda c: msoa_run(dfam, x_cols, y, cache=c),
                               _RecordingCache(memo))
                visited = []
                want = _outcome(lambda c: _scan_msoa_run(dfam, x_cols, y, c, visited),
                                _RecordingCache(memo))
                assert got[0] == want[0], (table.tolist(), x_cols, y)
                asked = want[1]
                assert got[1] == _memoized_queries(asked, visited, K, seen), (
                    table.tolist(), x_cols, y)
                runs += 1
                repeats += len(visited) - len(set(visited))
                empty_levels += any(not s for s in asked)
                scores = [memo.value(s) for s in asked]
                ties += any(scores[i:i + K].count(max(scores[i:i + K])) > 1
                            for i in range(0, len(scores), K))
    assert runs == 1440 and empty_levels > 500 and ties > 300 and repeats > 500


def _grid_family(n_features, K):
    """Every point of the K-level grid over `n_features` columns as one family."""
    table = np.array(list(itertools.product(range(K), repeat=n_features)))
    return DiscretizedFamily(alpha=1.0 / (2.0 * K),
                             levels=discretization_levels(1.0 / (2.0 * K))[:K], table=table)


def test_msoa_shared_cache_scores_each_step_once():
    # one recording cache shared over every target and sequence of a family
    # scores each distinct (members, j) once, with the outcomes of a second
    # family holding the same table
    dfam, twin = _grid_family(3, 3), _grid_family(3, 3)
    K = dfam.K
    shared = _RecordingCache(dfam.shattering)
    visited = set()
    for target in range(dfam.n_experts):
        for x_cols in itertools.product(range(3), repeat=3):
            y = [int(dfam.table[target, j]) for j in x_cols]
            got = msoa_run(dfam, x_cols, y, cache=shared)
            assert got == msoa_run(twin, x_cols, y)
            steps = []
            assert _scan_msoa_run(dfam, x_cols, y, shared.inner, steps) == got
            visited.update(steps)

    def canonical(subclasses):
        return tuple(tuple(sorted(sub)) for sub in subclasses)

    blocks = [canonical(shared.asked[i:i + K]) for i in range(0, len(shared.asked), K)]
    assert sorted(blocks) == sorted(
        canonical(members & s for s in dfam.level_sets[j]) for members, j in visited)
    assert len(blocks) == len(visited)


def test_msoa_step_memo_dies_with_its_family():
    # a fresh family gets a fresh memo, and no memo outlives its family
    first, second = _grid_family(2, 2), _grid_family(2, 2)
    caches = [_RecordingCache(fam.shattering) for fam in (first, second)]
    assert (msoa_run(first, [0, 1], [1, 1], cache=caches[0])
            == msoa_run(second, [0, 1], [1, 1], cache=caches[1]))
    assert caches[0].asked == caches[1].asked != []
    assert first.step_memo.keys() == second.step_memo.keys() != set()
    refs = [weakref.ref(first), weakref.ref(second)]
    del first, second
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    rng = np.random.default_rng(2)
    tracemalloc.start()
    try:
        for i in range(200):
            table = rng.integers(0, 3, (int(rng.integers(1, 9)), 2))
            fam = DiscretizedFamily(alpha=1 / 6, levels=discretization_levels(1 / 6),
                                    table=table)
            for target in range(fam.n_experts):
                msoa_run(fam, [0, 1, 0], [int(table[target, j]) for j in (0, 1, 0)])
            assert fam.step_memo
            if i == 0:
                gc.collect()
                start = tracemalloc.get_traced_memory()[0]
        del fam
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    print(f"200 families: {growth} bytes traced growth")
    assert growth < 64 * 1024, growth


class _RaisingCache:
    """A cache whose value raises, so a test sees whether a learner step ran."""

    def value(self, members):
        raise AssertionError("a learner step ran")


def test_msoa_checks_input_before_any_step():
    dfam = discretize([[0.1, 0.9], [0.9, 0.1]], 1 / 6, feature_keys=[(0.0,), (1.0,)])
    with pytest.raises(ValueError, match="feature column 2 at step 1"):
        msoa_run(dfam, [0, 2], [0, 2], cache=_RaisingCache())
    with pytest.raises(ValueError, match="label level 3 at step 1"):
        msoa_run(dfam, [0, 1], [0, 3], cache=_RaisingCache())
    with pytest.raises(ValueError, match="1 labels for 2 feature columns"):
        msoa_run(dfam, [0, 1], [0], cache=_RaisingCache())
    assert not dfam.step_memo
    # valid input does reach the cache
    with pytest.raises(AssertionError, match="a learner step ran"):
        msoa_run(dfam, [0, 1], [0, 2], cache=_RaisingCache())


def test_msoa_cover_read_then_run_asks_nothing_scored():
    # a cover read scores every class a realizable learner run along the same
    # features reaches, so the run asks its cache nothing, with the outcome of
    # a second family holding the same table
    rng = np.random.default_rng(4)
    keys = [(0.0,), (0.5,), (1.0,)]
    values = rng.uniform(0.02, 0.98, (6, 3))
    T = 8
    cover = msoa_cover(values, 1 / 6, T, keys)
    dfam = cover.family.dfamily
    twin = discretize(values, 1 / 6)
    errors = 0
    for _ in range(5):
        x_cols = rng.integers(0, 3, T).tolist()
        prediction_matrix(cover.family, np.array(keys)[x_cols])
        for target in range(dfam.n_experts):
            y = [int(dfam.table[target, j]) for j in x_cols]
            cache = _RecordingCache(dfam.shattering)
            got = msoa_run(dfam, x_cols, y, cache=cache)
            assert cache.asked == [], (x_cols, target)
            assert got == msoa_run(twin, x_cols, y)
            errors += got[1]
    assert errors > 0


def test_cover_size_bound_values():
    # d=1, base ceil(3/(2*0.25)) = 6: 1 + T*6
    assert cover_size_bound(4, 0.25, 1) == pytest.approx(1 + 4 * 6)
    assert cover_size_bound(4, 0.25, -1) == 0.0
    assert cover_size_bound(3, 0.25, 0) == 1.0


def _covers_exhaustively(family, values, feats, T, radius):
    """Whether, along every feature sequence, each row of `values` has a
    member of the sequential `family` within `radius` at every step."""
    for seq in itertools.product(range(len(feats)), repeat=T):
        P = prediction_matrix(family, feats[list(seq)])
        target = values[:, list(seq)]
        if not (np.abs(P[None] - target[:, None]).max(axis=2) <= radius + 1e-12).any(axis=1).all():
            return False
    return True


def test_msoa_cover_is_3alpha_cover_exhaustive():
    alpha = 0.25
    values = np.array([[0.1, 0.9], [0.9, 0.1], [0.6, 0.6]])
    keys = [(0.0,), (1.0,)]
    T = 4
    cover = msoa_cover(values, alpha, T, keys)
    assert cover.scale == pytest.approx(3 * alpha)
    assert len(cover) == cover.family.n_experts
    dfam = discretize(values, alpha, feature_keys=keys)
    assert len(cover) <= cover_size_bound(T, alpha, max(0, fat1_number(
        dfam.table, dfam.K)[0]))
    assert _covers_exhaustively(cover.family, values, np.array([[0.0], [1.0]]), T, 3 * alpha)


def test_msoa_cover_coverage_gate_has_power():
    # the same check fails once the members with the most forced steps are gone
    alpha, T = 1 / 6, 4
    values = np.random.default_rng(0).uniform(0, 1, (5, 2))
    feats = np.array([[0.0], [1.0]])
    cover = msoa_cover(values, alpha, T, [(0.0,), (1.0,)])
    fam = cover.family
    n_forced = (fam.forced[:, 0] >= 0).sum(axis=1)
    assert n_forced.max() >= 1
    assert _covers_exhaustively(fam, values, feats, T, 3 * alpha)
    fewer = MsoaCoverFamily(fam.dfamily, fam.forced[n_forced < n_forced.max()])
    assert not _covers_exhaustively(fewer, values, feats, T, 3 * alpha)


def test_msoa_cover_members_are_sequential():
    # a member's prediction at step t depends only on the features up to t
    rng = np.random.default_rng(3)
    keys = [(0.0,), (0.5,), (1.0,)]
    values = rng.uniform(0.02, 0.98, (6, 3))
    T = 8
    cover = msoa_cover(values, 1 / 6, T, keys)
    xs = np.array(keys)[rng.integers(0, 3, T)]
    full = prediction_matrix(cover.family, xs)
    assert full.shape == (len(cover), T)
    for t in range(T):
        np.testing.assert_array_equal(prediction_matrix(cover.family, xs[:t + 1])[:, t],
                                      full[:, t])


def _forced_reruns(family, features):
    """Every member's levels along `features`, one forced learner rerun per
    member over a plain dict of fat1_number values: the reference for
    MsoaCoverFamily's step-by-step read."""
    dfam = family.dfamily
    index = {key: j for j, key in enumerate(dfam.feature_keys)}
    columns = [dfam.table[:, index[tuple(x)]] for x in np.asarray(features, float).tolist()]
    fat1 = {}

    def score(members):
        if members not in fat1:
            fat1[members] = fat1_number(dfam.table[sorted(members)], dfam.K)[0]
        return fat1[members]

    runs = []
    for steps, ks in family.forced.tolist():
        forced = {t: k for t, k in zip(steps, ks) if t >= 0}
        members = frozenset(range(dfam.n_experts))
        run = []
        for t, col in enumerate(columns):
            by_level = [frozenset(i for i in members if col[i] == k) for k in range(dfam.K)]
            scores = [score(sub) for sub in by_level]
            khat = scores.index(max(scores))
            if t in forced:
                khat = forced[t]
                members = by_level[khat]
            run.append(khat)
        runs.append(run)
    return dfam.levels[np.array(runs, dtype=int).reshape(len(runs), len(columns))]


def test_msoa_cover_read_matches_forced_reruns():
    # one shared pass over time gives the per-member reruns bit for bit
    depths = set()
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        for keys in ([(0.0,), (1.0,)], [(0.0,), (0.5,), (1.0,)]):
            values = rng.uniform(0.02, 0.98, (6, len(keys)))
            for alpha in (1 / 4, 1 / 6, 1 / 10):
                for T in (4, 8, 12):
                    cover = msoa_cover(values, alpha, T, keys)
                    depths.add(cover.family.forced.shape[2])
                    xs = np.array(keys)[rng.integers(0, len(keys), T)]
                    got = prediction_matrix(cover.family, xs)
                    np.testing.assert_array_equal(got, _forced_reruns(cover.family, xs))
    assert depths == {0, 1, 2}


def test_msoa_cover_rejects_unknown_feature():
    cover = msoa_cover([[0.1, 0.9]], 1 / 6, 4, [(0.0,), (1.0,)])
    with pytest.raises(KeyError, match="not in this family's finite feature set"):
        prediction_matrix(cover.family, [[0.0], [0.5]])


def test_msoa_cover_cache_matches_fresh_fat1():
    # after a cover read, the shared memo still gives each subfamily's own number
    rng = np.random.default_rng(5)
    keys = [(0.0,), (0.5,), (1.0,)]
    values = rng.uniform(0.02, 0.98, (8, 3))
    cover = msoa_cover(values, 1 / 10, 8, keys)
    prediction_matrix(cover.family, np.array(keys)[rng.integers(0, 3, 8)])
    dfam = cover.family.dfamily
    for _ in range(60):
        S = frozenset(np.flatnonzero(rng.uniform(size=8) < rng.uniform()).tolist())
        fresh = fat1_number(dfam.table[sorted(S)], dfam.K)[0] if S else -1
        assert dfam.shattering.value(S) == fresh


def test_msoa_cover_read_at_scale():
    # the T=64 cover (50,721 members) read along one sequence, well within 10 s
    rng = np.random.default_rng(0)
    values = rng.uniform(0.02, 0.98, (6, 3))
    keys = [(0.0,), (0.5,), (1.0,)]
    T = 64
    cover = msoa_cover(values, 0.1, T, keys)
    assert len(cover) == 50_721
    xs = np.array(keys)[rng.integers(0, 3, T)]
    start = time.perf_counter()
    table = prediction_matrix(cover.family, xs)
    elapsed = time.perf_counter() - start
    assert table.shape == (50_721, T)
    sample = np.sort(rng.choice(len(cover), 100, replace=False))
    fam = cover.family
    some = MsoaCoverFamily(fam.dfamily, fam.forced[sample])
    np.testing.assert_array_equal(table[sample], _forced_reruns(some, xs))
    print(f"msoa cover T={T}: {len(cover)} members read in {elapsed:.3f}s")
    assert elapsed < 10


def test_msoa_cover_read_is_one_reader_from_zero_in_order():
    rng = np.random.default_rng(7)
    keys = [(0.0,), (0.5,), (1.0,)]
    T = 12
    cover = msoa_cover(rng.uniform(0.02, 0.98, (6, 3)), 1 / 10, T, keys)
    fam = cover.family
    xs = np.array(keys)[rng.integers(0, 3, T)]
    with pytest.raises(ValueError, match="step 3 read where step 0"):
        fam.all_predictions(3, xs[3])
    first = prediction_matrix(fam, xs)
    # a skipped or repeated step fails loudly
    for t in range(3):
        fam.all_predictions(t, xs[t])
    with pytest.raises(ValueError, match="step 5 read where step 3"):
        fam.all_predictions(5, xs[5])
    with pytest.raises(ValueError, match="step 1 read where step 3"):
        fam.all_predictions(1, xs[1])
    # an interleaved second reader restarts the family, so the first one fails
    a, b = MixturePredictor(fam), MixturePredictor(fam)
    for t in range(2):
        a.step(xs[t])
        a.update(1)
    b.step(xs[0])
    with pytest.raises(ValueError, match="step 2 read where step 1"):
        a.step(xs[2])
    # a fresh t = 0 read restarts and reproduces the first table
    np.testing.assert_array_equal(prediction_matrix(fam, xs), first)
    # the streamed family steps a mixture like its dense table; w @ p on a
    # strided column rounds differently from a contiguous one
    streamed = MixturePredictor(fam, truncation=cover.scale)
    dense = MixturePredictor(DsFamily(first, s=math.inf), truncation=cover.scale)
    for x, y in zip(xs, rng.integers(0, 2, T)):
        assert abs(streamed.step(x) - dense.step(x)) <= 1e-12
        streamed.update(y)
        dense.update(y)
    np.testing.assert_array_equal(streamed.log_weights, dense.log_weights)


def test_msoa_cover_mixture_memory_at_scale():
    # a greedy stepped mixture over the T=64 cover (50,721 members) holds
    # O(members) memory: its peak stays under a quarter of the dense
    # (members, T) float64 table, and its regret within the cover bound
    rng = np.random.default_rng(0)
    values = rng.uniform(0.02, 0.98, (6, 3))
    keys = [(0.0,), (0.5,), (1.0,)]
    T = 64
    cover = msoa_cover(values, 0.1, T, keys)
    xs = np.array(keys)[rng.integers(0, 3, T)]
    dense_bytes = len(cover) * T * 8
    tracemalloc.start()
    try:
        run = run_protocol(MixturePredictor(cover.family, truncation=cover.scale), xs,
                           greedy_label_fn())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    regret = run.cumulative_loss - best_in_hindsight(
        FiniteStaticFamily(values, keys), xs, run.labels)[1]
    print(f"msoa cover T={T} mixture: peak {peak / 2 ** 20:.2f} MiB against a "
          f"{dense_bytes / 2 ** 20:.2f} MiB dense table, regret {regret:.3f}")
    assert peak < dense_bytes / 4
    assert regret <= cover_upper(T, cover.scale, len(cover))


def test_msoa_cover_mixture_within_cover_bound():
    # truncated Bayes over the sequential cover, exact worst case over all 2^T
    # label sequences, against the general bound 2*scale*T + ln|cover|
    keys = [(0.0,), (0.5,), (1.0,)]
    min_slack = math.inf
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.02, 0.98, (6, 3))
        target = FiniteStaticFamily(values, keys)
        for alpha in (1 / 4, 1 / 6, 1 / 10):
            for T in (8, 12):
                xs = np.array(keys)[rng.integers(0, 3, T)]
                cover = msoa_cover(values, alpha, T, keys)
                _, regret = worst_case_labels(
                    lambda: MixturePredictor(cover.family, truncation=cover.scale), target, xs)
                slack = cover_upper(T, cover.scale, len(cover)) - regret
                assert slack >= 0, (seed, alpha, T, regret)
                min_slack = min(min_slack, slack)
    print(f"msoa cover bound: min slack {min_slack:.3f} nats")
