import itertools
import math
import time

import numpy as np
import pytest

from seqpa.bounds import cover_upper
from seqpa.covering import (
    DiscretizedFamily,
    MsoaCoverFamily,
    _fat1_memo,
    cover_size_bound,
    discretization_levels,
    discretize,
    fat1_number,
    fat_shattering_number,
    grid_cover,
    msoa_cover,
    msoa_run,
)
from seqpa.experts import FiniteStaticFamily, glm_family
from seqpa.harness import worst_case_labels
from seqpa.predictors import MixturePredictor


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
        target = np.array([fam.value(w, x) for x in features])
        assert (np.abs(preds - target).max(axis=1) <= alpha + 1e-12).any()


def test_grid_cover_d2_within_bound():
    fam = glm_family(d=2, R=1.0)
    alpha = 0.25
    cover = grid_cover(fam, alpha)
    assert len(cover) <= (2 / alpha + 1) ** 2
    assert cover.family.n_experts == len(cover)


def test_grid_cover_rejects_bad_alpha():
    fam = glm_family(d=1, R=1.0)
    with pytest.raises(ValueError):
        grid_cover(fam, 0.0)


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


def _scan_msoa_run(dfam, x_cols, y_levels, cache):
    """The learner with its subclasses rebuilt by a generator scan over the
    members at every step: the reference for the level-index step."""
    columns = dfam.table.T.tolist()
    members = frozenset(range(dfam.n_experts))
    preds, errors = [], 0
    for j, y in zip(x_cols, y_levels):
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


def test_msoa_level_index_matches_scan_reference():
    # same predictions, errors and cache queries, in the same order, as the scan
    rng = np.random.default_rng(11)
    empty_levels = ties = runs = 0
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
        memo = _fat1_memo(table, K)
        for _ in range(6):
            x_cols = rng.integers(0, m, int(rng.integers(0, 7))).tolist()
            target = int(rng.integers(0, n))
            for y in ([int(table[target, j]) for j in x_cols],
                      rng.integers(0, K, len(x_cols)).tolist()):
                got = _outcome(lambda c: msoa_run(dfam, x_cols, y, cache=c),
                               _RecordingCache(memo))
                want = _outcome(lambda c: _scan_msoa_run(dfam, x_cols, y, c),
                                _RecordingCache(memo))
                assert got == want, (table.tolist(), x_cols, y)
                asked = want[1]
                runs += 1
                empty_levels += any(not s for s in asked)
                scores = [memo.value(s) for s in asked]
                ties += any(scores[i:i + K].count(max(scores[i:i + K])) > 1
                            for i in range(0, len(scores), K))
    assert runs == 1440 and empty_levels > 500 and ties > 300


def test_cover_size_bound_values():
    # d=1, base ceil(3/(2*0.25)) = 6: 1 + T*6
    assert cover_size_bound(4, 0.25, 1) == pytest.approx(1 + 4 * 6)
    assert cover_size_bound(4, 0.25, -1) == 0.0
    assert cover_size_bound(3, 0.25, 0) == 1.0


def _covers_exhaustively(family, values, feats, T, radius):
    """Whether, along every feature sequence, each row of `values` has a
    member of the sequential `family` within `radius` at every step."""
    for seq in itertools.product(range(len(feats)), repeat=T):
        P = family.on(feats[list(seq)]).vectors
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
    fewer = MsoaCoverFamily(fam.dfamily, fam.cache, fam.forced[n_forced < n_forced.max()])
    assert not _covers_exhaustively(fewer, values, feats, T, 3 * alpha)


def test_msoa_cover_members_are_sequential():
    # a member's prediction at step t depends only on the features up to t
    rng = np.random.default_rng(3)
    keys = [(0.0,), (0.5,), (1.0,)]
    values = rng.uniform(0.02, 0.98, (6, 3))
    T = 8
    cover = msoa_cover(values, 1 / 6, T, keys)
    xs = np.array(keys)[rng.integers(0, 3, T)]
    full = cover.family.on(xs).vectors
    assert full.shape == (len(cover), T)
    for t in range(T):
        np.testing.assert_array_equal(cover.family.on(xs[:t + 1]).vectors[:, t], full[:, t])


def _forced_reruns(family, features):
    """Every member's levels along `features`, one forced learner rerun per
    member over a plain dict of fat1_number values: the reference for
    MsoaCoverFamily.on."""
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


def test_msoa_cover_on_matches_forced_reruns():
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
                    got = cover.family.on(xs).vectors
                    np.testing.assert_array_equal(got, _forced_reruns(cover.family, xs))
    assert depths == {0, 1, 2}


def test_msoa_cover_rejects_unknown_feature():
    cover = msoa_cover([[0.1, 0.9]], 1 / 6, 4, [(0.0,), (1.0,)])
    with pytest.raises(KeyError, match="not in this family's finite feature set"):
        cover.family.on([[0.0], [0.5]])


def test_msoa_cover_cache_matches_fresh_fat1():
    # after a cover read, the shared memo still gives each subfamily's own number
    rng = np.random.default_rng(5)
    keys = [(0.0,), (0.5,), (1.0,)]
    values = rng.uniform(0.02, 0.98, (8, 3))
    cover = msoa_cover(values, 1 / 10, 8, keys)
    cover.family.on(np.array(keys)[rng.integers(0, 3, 8)])
    dfam = cover.family.dfamily
    for _ in range(60):
        S = frozenset(np.flatnonzero(rng.uniform(size=8) < rng.uniform()).tolist())
        fresh = fat1_number(dfam.table[sorted(S)], dfam.K)[0] if S else -1
        assert cover.family.cache.value(S) == fresh


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
    table = cover.family.on(xs).vectors
    elapsed = time.perf_counter() - start
    assert table.shape == (50_721, T)
    sample = np.sort(rng.choice(len(cover), 100, replace=False))
    fam = cover.family
    some = MsoaCoverFamily(fam.dfamily, fam.cache, fam.forced[sample])
    np.testing.assert_array_equal(table[sample], _forced_reruns(some, xs))
    print(f"msoa cover T={T}: {len(cover)} members read in {elapsed:.3f}s")
    assert elapsed < 10


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
                table = cover.family.on(xs)
                _, regret = worst_case_labels(
                    lambda: MixturePredictor(table, truncation=cover.scale), target, xs)
                slack = cover_upper(T, cover.scale, len(cover)) - regret
                assert slack >= 0, (seed, alpha, T, regret)
                min_slack = min(min_slack, slack)
    print(f"msoa cover bound: min slack {min_slack:.3f} nats")
