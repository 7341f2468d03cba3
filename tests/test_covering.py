import itertools
import math

import numpy as np
import pytest

from seqpa.bounds import cover_upper
from seqpa.covering import (
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
