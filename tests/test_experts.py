import math
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.special import expit

from seqpa import experts
from seqpa.covering import grid_cover
from seqpa.experts import (
    LOGISTIC,
    CodeBook,
    DsFamily,
    FiniteParamFamily,
    FiniteStaticFamily,
    ParamBall,
    ball_lattice,
    best_in_hindsight,
    build_hard_lipschitz_class,
    ds_project,
    glm_family,
    prediction_matrix,
)
from seqpa.losses import cumulative_loss


def test_param_ball_membership_slack():
    ball = ParamBall(dimension=2, radius=1.0, norm_order=2.0)
    assert ball.contains([1.0, 0.0])
    assert ball.contains([1.0 + 5e-13, 0.0])  # within the 1e-12 slack
    assert not ball.contains([1.0 + 1e-6, 0.0])


@pytest.mark.parametrize("d", [1.5, 2.0, "2", 0, -1, np.float64(1.0)])
def test_param_ball_rejects_a_dimension_that_is_not_a_positive_integer(d):
    # a float dimension used to reach lattice_blocks and die there with
    # "'float' object cannot be interpreted as an integer"
    with pytest.raises(ValueError, match="^ball dimension must be a positive integer, got "
                       + re.escape(repr(d)) + "$"):
        grid_cover(glm_family(d=d), 0.1)
    assert ParamBall(np.int64(2), 1.0).dimension == 2


def test_logistic_link_values():
    assert LOGISTIC(0.0) == pytest.approx(0.5)
    assert LOGISTIC(np.array([-50.0, 50.0]))[0] < 1e-10
    assert LOGISTIC.c1 == 0.5
    assert LOGISTIC.c2 == pytest.approx(0.2)
    z = np.linspace(-800.0, 800.0, 160_001)
    z_before = z.copy()
    scalar_in = (-1000.0, -710.0, -30.0, 0.0, 2.5, 800.0, np.float64(-3.0), np.array(7.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = LOGISTIC(z)
        scalars = [LOGISTIC(v) for v in scalar_in]
    # same as scipy's expit to 1e-15 relative, exact 0 where expit gives 0
    np.testing.assert_allclose(got, expit(z), rtol=1e-15, atol=0.0)
    assert np.array_equal(z, z_before)
    assert got.shape == z.shape and np.all(got[z < -710.0] == 0.0)
    assert all(np.ndim(v) == 0 and not isinstance(v, np.ndarray) for v in scalars)
    np.testing.assert_allclose(scalars, [expit(v) for v in scalar_in], rtol=1e-15, atol=0.0)
    assert scalars[1] == 0.0 and scalars[5] == 1.0
    np.testing.assert_allclose(LOGISTIC([-1, 0, 1]), expit([-1.0, 0.0, 1.0]), rtol=1e-15)



def _ulp_distance(a, b):
    """Units in the last place between arrays of non-negative doubles."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


# A mirrored row against LOGISTIC(-z): over 7e7 uniform z in [-700, 700]
# e * sigma was 3 ulp or closer at all but 124 values, and 4 at those
MIRROR_ULPS = 4


def _assert_mirror_rows(p, z):
    """Rows n - 1 - k of a symmetric table's predictions p, k < n // 2, given
    z_k = params[k] @ x: e * sigma bit for bit, e = exp(-z_k) and
    sigma = 1 / (1 + e), within MIRROR_ULPS of LOGISTIC(-z_k)."""
    m = len(p) // 2
    e = np.exp(-z[:m])
    mirror = p[::-1][:m]
    assert mirror.tobytes() == (e * (1.0 / (1.0 + e))).tobytes()
    assert _ulp_distance(mirror, LOGISTIC(-z[:m])).max(initial=0) <= MIRROR_ULPS


def _predict(family, x):
    """family.all_predictions(0, x) and whether it ran the full n-row link."""
    calls = []
    full = experts._logistic_of_negated
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experts, "_logistic_of_negated", lambda e: calls.append(len(e)) or full(e))
        p = family.all_predictions(0, x)
    return p, calls == [family.n_experts]


def test_finite_param_family_predictions_stay_in_link_range():
    # the link's [0, 1] contract stands in for the clip all_predictions used to
    # make; at |x| = 1 (max |z| = 800) the gate sends the R = 800 cover to the
    # full path, byte for byte; at 0.3 and 1e-3 the mirrored rows keep the ulp rule
    cover = grid_cover(glm_family(d=1, R=800.0), 0.5).family
    params = cover.params.tobytes()
    assert cover.params.min() == -800.0 and cover.params.max() == 800.0
    h = (cover.n_experts + 1) // 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1.0, -1.0, 0.3, 1e-3):
            z = cover.params[:, 0] * x
            p, full = _predict(cover, np.array([x]))
            assert np.all((p >= 0.0) & (p <= 1.0)) and full == (abs(x) == 1.0)
            want = np.clip(LOGISTIC(z), 0.0, 1.0)
            if full:
                assert p.tobytes() == want.tobytes()
            else:
                assert p[:h].tobytes() == want[:h].tobytes()
                _assert_mirror_rows(p, z)
            below = z < -709.79  # exp(-z) overflows: exactly 0, as the clip left it
            assert np.all(p[below] == 0.0) and below.any() == (abs(x) == 1.0)
    assert cover.params.tobytes() == params


@pytest.mark.parametrize("d", [1, 2])
def test_cover_link_layout(d):
    # column-major params: at d = 1 the product is the row-major one bit for
    # bit, at d >= 2 z may move an ulp; the link runs on W @ -x = -(W @ x).
    # The cover is symmetric, so those pins hold on its first ceil(n/2) rows
    # and the mirrored rows keep the ulp rule
    cover = grid_cover(glm_family(d=d, R=1.0), 2.0 / 128).family
    values, raw = cover.params.copy(), cover.params.tobytes()
    assert cover.params.flags.f_contiguous and cover.params.shape == (cover.n_experts, d)
    h = (cover.n_experts + 1) // 2
    row_major = np.ascontiguousarray(cover.params)
    features = np.random.default_rng(8).normal(size=(24, d))
    features /= np.maximum(np.linalg.norm(features, axis=1, keepdims=True), 1.0)
    P = prediction_matrix(cover, features)
    for t, x in enumerate(features):
        got = cover.all_predictions(t, x)
        z = cover.params @ x
        assert got[:h].tobytes() == LOGISTIC(z)[:h].tobytes()
        _assert_mirror_rows(got, z)
        want = LOGISTIC(row_major @ x)
        if d == 1:
            assert got[:h].tobytes() == want[:h].tobytes()
        else:
            assert _ulp_distance(got[:h], want[:h]).max() <= 2
        again = cover.all_predictions(t, x)
        assert not np.shares_memory(got, again) and again.tobytes() == got.tobytes()
        assert P[:, t].tobytes() == got.tobytes()
    assert np.array_equal(cover.params, values) and cover.params.tobytes() == raw


def _assert_half_path(family, x):
    """The symmetric-table contract of family.all_predictions(0, x), given
    z = params[:n // 2] @ x, the product the family takes: the half path ran,
    rows k < n // 2 are LOGISTIC(z) byte for byte, an odd table's middle row
    reads 0.5, the mirrored rows keep the ulp rule, every value is in [0, 1],
    each call returns a new array and params are not written."""
    W = family.params
    raw = W.tobytes()
    n, m = len(W), len(W) // 2
    z = W[:m] @ x
    p, full = _predict(family, x)
    assert not full and p.shape == (n,)
    assert p[:m].tobytes() == LOGISTIC(z).tobytes()
    assert p[m:n - m].tolist() == [0.5] * (n - 2 * m)
    _assert_mirror_rows(p, z)
    assert np.all((p >= 0.0) & (p <= 1.0))  # and so no NaN
    again = family.all_predictions(0, x)
    assert not np.shares_memory(p, again) and again.tobytes() == p.tobytes()
    assert W.tobytes() == raw
    return p


def _assert_full_path(family, x):
    """family.all_predictions(0, x) ran the full link: LOGISTIC(params @ x)
    byte for byte (NaN where it is NaN)."""
    with np.errstate(invalid="ignore"):
        want = LOGISTIC(family.params @ x)
        p, full = _predict(family, x)
    assert full and np.array_equal(p, want, equal_nan=True)
    if not np.isnan(want).any():
        assert p.tobytes() == want.tobytes()


def _gate_features(rng, d, max_norm):
    """Six features whose max_norm * ||x|| runs from 1e-3 up to 699.9."""
    X = rng.normal(size=(6, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return X * np.array([1e-3, 0.5, 3.0, 40.0, 300.0, 699.9])[:, None] / max_norm


@pytest.mark.parametrize("d, alpha", [(1, 1 / 512), (2, 2 / 128), (3, 0.1)])
def test_symmetric_cover_is_evaluated_on_half_its_rows(d, alpha):
    cover = grid_cover(glm_family(d=d), alpha).family
    n = cover.n_experts
    assert n % 2 == 1 and len(cover._head) == n // 2
    assert not cover._head.flags.owndata and np.shares_memory(cover._head, cover.params)
    assert cover._max_norm == pytest.approx(np.linalg.norm(cover.params, axis=1).max(), rel=1e-15)
    for x in _gate_features(np.random.default_rng(d), d, cover._max_norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = _assert_half_path(cover, x)
        # the lattice rows just before the origin lead with zeros, so the
        # shorter product rounds as the full one: the first ceil(n/2) rows
        # are the full link's bytes
        assert p[:n // 2 + 1].tobytes() == LOGISTIC(cover.params @ x)[:n // 2 + 1].tobytes()
        assert p[n // 2] == 0.5  # the origin row
        # sigma(-699.9) is about 1e-304: 1 - sigma would read 0 there
        assert (p > 0.0).all()


def test_even_symmetric_table_is_evaluated_on_half_its_rows():
    rng = np.random.default_rng(11)
    A = rng.uniform(-30.0, 30.0, (7, 2))
    A[2, 0] = 0.0
    W = np.vstack([A, -A[::-1]])
    W[-3, 0] = 0.0  # -(+0.0) is -0.0; symmetry is by value
    family = FiniteParamFamily(W)
    assert len(family._head) == 7
    for x in _gate_features(rng, 2, family._max_norm):
        _assert_half_path(family, x)


@pytest.mark.parametrize("block_rows", [experts._MIRROR_BLOCK_ROWS, 64])
@pytest.mark.parametrize("where", ["first", "last"])
def test_nearly_symmetric_table_takes_the_full_path(where, block_rows, monkeypatch):
    # one entry off in the first or the last block of the check; NaN matches nothing
    monkeypatch.setattr(experts, "_MIRROR_BLOCK_ROWS", block_rows)
    W = grid_cover(glm_family(d=2), 2 / 128).family.params
    n = len(W)
    row = 3 if where == "first" else n // 2 - 1
    compared = []
    equal = np.array_equal
    monkeypatch.setattr(np, "array_equal",
                        lambda a, b, **kw: compared.append(len(a)) or equal(a, b, **kw))
    for off in (np.nextafter(W[row, 1], np.inf), np.nan):
        V = W.copy(order="F")
        V[row, 1] = off
        compared.clear()
        family = FiniteParamFamily(V)
        assert family._head is None and family._max_norm is None
        # the check stops in the block that holds the mismatch
        assert len(compared) == row // block_rows + 1
        for x in _gate_features(np.random.default_rng(5), 2, 1.5):
            _assert_full_path(family, x)
    monkeypatch.setattr(np, "array_equal", equal)
    middle = W.copy(order="F")
    middle[n // 2, 0] = 1e-300  # an odd table's middle row must be the origin
    assert FiniteParamFamily(middle)._head is None


def test_features_past_the_gate_take_the_full_path():
    cover = grid_cover(glm_family(d=1, R=800.0), 0.5).family
    assert cover._max_norm == 800.0
    # 800 * 0.875 is 700 exactly: half path; one ulp more: full path
    _assert_half_path(cover, np.array([0.875]))
    _assert_full_path(cover, np.array([np.nextafter(0.875, 1.0)]))
    for x in (1.0, -1.0):  # exp(-z) overflows below z = -709.78: exact zeros
        _assert_full_path(cover, np.array([x]))
        assert (cover.all_predictions(0, np.array([x])) == 0.0).any()
    square = grid_cover(glm_family(d=2), 2 / 128).family
    for x in ([np.nan, 0.1], [0.1, np.inf], [-np.inf, 0.0], [np.inf, -np.inf]):
        _assert_full_path(square, np.array(x))


@st.composite
def _symmetric_tables(draw):
    """A centrally symmetric (n, d) table, odd or even n, and a feature."""
    d = draw(st.integers(1, 3))
    rows = st.lists(st.tuples(*[st.floats(-60.0, 60.0)] * d), max_size=12)
    A = np.array(draw(rows), dtype=float).reshape(-1, d)
    middle = np.zeros((draw(st.integers(0, 1)), d))
    x = np.array(draw(st.tuples(*[st.floats(-12.0, 12.0)] * d)))
    return np.vstack([A, middle, -A[::-1]]), x


@settings(max_examples=80, deadline=None)
@given(_symmetric_tables())
def test_symmetric_tables_keep_the_mirror_contract(table_and_x):
    W, x = table_and_x
    family = FiniteParamFamily(W)
    assert family._head is not None and len(family._head) == len(W) // 2
    if family._max_norm * np.linalg.norm(x) <= 0.999 * experts.MIRROR_REACH:
        _assert_half_path(family, x)
    elif family._max_norm * np.linalg.norm(x) > 1.001 * experts.MIRROR_REACH:
        _assert_full_path(family, x)


def _dense_ball_lattice(axis, d, s, bound):
    """ball_lattice as first written: the whole meshgrid at once."""
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    W = np.stack([m.ravel() for m in mesh], axis=1)
    return W[experts._lp_norms(W, s) <= bound]


@pytest.mark.parametrize("block_points", [experts._LATTICE_BLOCK_POINTS, 7])
@pytest.mark.parametrize("s", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("d, lengths", [(1, (1, 6, 20_001)), (2, (1, 6, 130)), (3, (1, 6, 30))])
def test_ball_lattice_blocks_equal_the_dense_form(d, lengths, s, block_points, monkeypatch):
    # at the module block size 20_001 (d = 1), 130 (d = 2) and 30 (d = 3)
    # points per axis end in a ragged block; at 7 points a d >= 2 slice
    # alone is over the block size
    monkeypatch.setattr(experts, "_LATTICE_BLOCK_POINTS", block_points)
    for n in lengths:
        axis = np.linspace(-1.0, 1.0, n)
        for bound in (0.8, 1.0, -1.0):  # -1: nothing is kept
            got, want = ball_lattice(axis, d, s, bound), _dense_ball_lattice(axis, d, s, bound)
            assert got.shape == want.shape and got.flags.f_contiguous, (n, bound)
            assert np.ascontiguousarray(got).tobytes() == want.tobytes(), (n, bound)
            assert FiniteParamFamily(got).params is got


def _key_sorted_packing(d, R, separation):
    """Every point of the lattice packing as first written: a Python sort
    keyed on each point's np.linalg.norm, then its coordinates."""
    per_axis = np.arange(-math.floor(R / separation), math.floor(R / separation) + 1) * separation
    pts = sorted(ball_lattice(per_axis, d, 2.0, R + experts.MEMBERSHIP_SLACK),
                 key=lambda p: (np.linalg.norm(p), tuple(p)))
    return np.array(pts)


@pytest.mark.parametrize("d, R, separation",
                         [(1, 1.0, 0.05), (2, 4.0, 0.0596), (2, 1.0, 0.0371), (3, 1.0, 0.2),
                          (4, 1.0, 0.3)])
def test_lattice_packing_matches_key_sort(d, R, separation):
    everything = _key_sorted_packing(d, R, separation)
    n = len(everything)
    norms = np.array([np.linalg.norm(p) for p in everything])
    assert len(np.unique(norms)) < n  # equal-norm ties, broken on the coordinates
    for count in (1, n // 3, n):
        got = experts._lattice_packing(d, R, separation, count)
        want = everything[:count]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match=f"has only {n} points"):
        experts._lattice_packing(d, R, separation, n + 1)


def test_logistic_interval_containment():
    # [c1 - c2 d^{-r}, c1 + c2 d^{-r}] must sit inside f([-d^{-r}, d^{-r}])
    for d in (1, 2, 4, 8, 64):
        for r in (0.5, 1.0):
            assert LOGISTIC.interval_containment_ok(d, r)


def test_finite_static_family_constants():
    fam = FiniteStaticFamily(np.array([[0.2], [0.8]]))
    preds = fam.all_predictions(2, np.zeros(1))
    assert preds.shape == (2,)
    assert preds[0] == pytest.approx(0.2)


def test_finite_static_family_feature_lookup():
    keys = [(0.0,), (1.0,)]
    table = np.array([[0.1, 0.9], [0.7, 0.3]])
    fam = FiniteStaticFamily(table, feature_keys=keys)
    # static experts read the current feature only, whatever the step
    np.testing.assert_allclose(fam.all_predictions(1, np.array([0.0])), [0.1, 0.7])
    np.testing.assert_allclose(fam.all_predictions(0, np.array([0.0])), [0.1, 0.7])
    np.testing.assert_allclose(fam.all_predictions(0, np.array([1.0])), [0.9, 0.3])


def test_finite_static_family_rejects_bad_table():
    with pytest.raises(ValueError):
        FiniteStaticFamily(np.array([[1.5]]))


def test_glm_family_lipschitz_property():
    rng = np.random.default_rng(0)
    fam = glm_family(d=2, R=1.0)
    L = fam.lipschitz
    for _ in range(200):
        w1 = rng.uniform(-0.7, 0.7, 2)
        w2 = rng.uniform(-0.7, 0.7, 2)
        x = rng.uniform(-1, 1, 2)
        x /= max(1.0, np.linalg.norm(x))
        p1, p2 = LOGISTIC(np.stack([w1, w2]) @ x)
        lhs = abs(p1 - p2)
        assert lhs <= L * np.linalg.norm(w1 - w2) + 1e-12


def test_ds_project_enforces_power_mass():
    p = np.array([0.9, 0.9, 0.9])
    q = ds_project(p, s=2.0)
    assert np.sum(q ** 2) <= 1 + 1e-9
    # already feasible vectors are untouched
    r = np.array([0.1, 0.1])
    np.testing.assert_allclose(ds_project(r, 2.0), r)


@pytest.mark.parametrize("s", [1.0, 2.0, math.inf])
def test_ds_project_rowwise_equals_per_row(s):
    rng = np.random.default_rng(4)
    P = rng.uniform(0.0, 1.0, (50, 4)) * rng.uniform(0.0, 1.0, (50, 1))
    out = ds_project(P, s)
    assert out.shape == P.shape
    for row, q in zip(P, out):
        np.testing.assert_array_equal(q, ds_project(row, s))


def test_ds_family_time_indexed():
    fam = DsFamily(np.array([[0.3, 0.6, 0.1]]), s=1.0)
    assert fam.all_predictions(1, np.zeros(1))[0] == pytest.approx(0.6)


def test_best_in_hindsight_finite_exact():
    fam = FiniteStaticFamily(np.array([[0.2], [0.8]]))
    features = np.zeros((4, 1))
    labels = np.array([1, 1, 1, 0])
    index, loss = best_in_hindsight(fam, features, labels)
    expected = cumulative_loss([0.8] * 4, labels)
    assert loss == pytest.approx(expected)
    assert index == 1


def test_best_in_hindsight_parametric_near_truth():
    rng = np.random.default_rng(3)
    fam = glm_family(d=1, R=1.0)
    features = rng.uniform(-1, 1, (40, 1))
    w_star = np.array([0.6])
    probs = LOGISTIC(features @ w_star)
    labels = (rng.random(40) < probs).astype(int)
    _, loss = best_in_hindsight(fam, features, labels)
    # the certified lower bound is below the generating parameter's loss
    truth_loss = cumulative_loss(probs, labels)
    assert loss <= truth_loss + 1e-9


def _ball_features(rng, T, d):
    g = rng.normal(size=(T, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True) * rng.uniform(size=(T, 1)) ** (1 / d)


def test_best_in_hindsight_certified_on_boundary():
    # labels separable through the origin: the optimum lies on the sphere
    rng = np.random.default_rng(8)
    fam = glm_family(d=2, R=1.0)
    features = _ball_features(rng, 20, 2)
    labels = (features @ np.array([0.6, -0.8]) > 0).astype(int)
    w, loss = best_in_hindsight(fam, features, labels)
    assert fam.ball.contains(w) and fam.ball.norm(w) > 1.0 - 1e-6
    f_w = cumulative_loss(LOGISTIC(features @ w), labels)
    assert loss <= f_w and f_w - loss <= 1e-9
    # every feasible point of a dense lattice, and of a fine circle just inside
    theta = np.linspace(0.0, 2 * np.pi, 100_000)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1) * (1.0 - 1e-12)
    points = np.vstack([ball_lattice(np.linspace(-1.0, 1.0, 601), 2, 2.0, 1.0), circle])
    _, feasible_best = best_in_hindsight(FiniteParamFamily(points), features, labels)
    assert loss <= feasible_best + 1e-12


def test_best_in_hindsight_batched_equals_per_row():
    rng = np.random.default_rng(9)
    fam = glm_family(d=2, R=1.0)
    T = 10
    features = _ball_features(rng, T, 2)
    Y = (np.arange(2 ** T)[:, None] >> np.arange(T - 1, -1, -1)) & 1
    W, best = best_in_hindsight(fam, features, Y)
    assert W.shape == (2 ** T, 2) and best.shape == (2 ** T,)
    for y, w, b in zip(Y, W, best):
        w1, b1 = best_in_hindsight(fam, features, y)
        assert abs(b1 - b) <= 1e-12
        np.testing.assert_allclose(w1, w, atol=1e-9)


def test_best_in_hindsight_rejects_unsupported_families():
    features, labels = np.zeros((3, 2)), [0, 1, 1]
    with pytest.raises(ValueError, match="l2"):
        best_in_hindsight(glm_family(d=2, R=1.0, s=1.0), features, labels)
    with pytest.raises(TypeError, match="logistic"):
        look_alike = types.SimpleNamespace(ball=ParamBall(2, 1.0), lipschitz=1.0)
        best_in_hindsight(look_alike, features, labels)


def test_best_in_hindsight_stopped_early(monkeypatch):
    rng = np.random.default_rng(10)
    fam = glm_family(d=2, R=1.0)
    features = _ball_features(rng, 20, 2)
    labels = (features[:, 0] > 0).astype(int)
    _, converged = best_in_hindsight(fam, features, labels)
    monkeypatch.setattr(experts, "NEWTON_ITERS", 1)
    with pytest.raises(RuntimeError, match="certificate gap"):
        best_in_hindsight(fam, features, labels)
    # the bound f(w) - gap holds at any iterate, not only at convergence
    monkeypatch.setattr(experts, "CERTIFIED_GAP", math.inf)
    w, loss = best_in_hindsight(fam, features, labels)
    assert loss <= converged < cumulative_loss(LOGISTIC(features @ w), labels)


def test_codebook_computes_min_hamming():
    assert CodeBook(np.array([[0, 1, 1, 0], [1, 0, 0, 1]])).min_hamming == 4
    assert CodeBook(np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 0, 1]])).min_hamming == 1


def test_hard_class_build_computes_min_hamming_once(monkeypatch):
    calls = []
    counted = experts._min_pairwise_hamming

    def counting(vectors):
        calls.append(vectors.shape)
        return counted(vectors)

    monkeypatch.setattr(experts, "_min_pairwise_hamming", counting)
    T = 512
    _, cb = build_hard_lipschitz_class(d=1, T=T, R=1.0, L=1.0,
                                       alpha=16 * math.log(T) / T, seed=0)
    assert calls == [cb.vectors.shape]
    assert cb.min_hamming == counted(cb.vectors) >= T // 4


def test_build_hard_lipschitz_class_small():
    T = 512
    fam, cb = build_hard_lipschitz_class(d=1, T=T, R=1.0, L=1.0,
                                         alpha=16 * math.log(T) / T, seed=0)
    assert cb.vectors.shape[1] == T
    assert cb.min_hamming >= T // 4
    assert fam.n_experts == cb.vectors.shape[0]
    preds = fam.all_predictions(2, fam.features[2])
    assert preds.shape == (fam.n_experts, )
    assert np.all((preds >= 0) & (preds <= 1))


@pytest.mark.parametrize("T, L, message", [
    (-1, 1.0, "T must be a positive integer, got -1"),
    (2.5, 1.0, "T must be a positive integer, got 2.5"),
    (0, 1.0, "T must be a positive integer, got 0"),
    # L R / (2 alpha) overflows: M is judged as a float before int()
    (512, 1e308, "a code of M = inf vectors is over the cap 10000000"),
])
def test_build_hard_lipschitz_class_rejects_a_bad_horizon_or_size(T, L, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_hard_lipschitz_class(d=1, T=T, R=1.0, L=L, alpha=0.1, seed=0)


def test_finite_hindsight_memory_does_not_grow_with_the_horizon():
    # one sequence against 2,000 constant experts at T = 4,096: a
    # (2000, 4097) count table of every column, read at one count, peaked
    # at 188 MiB; count_term at the sequence's count needs a few 2,000-vectors
    fam = FiniteStaticFamily(np.linspace(0.0, 1.0, 2000)[:, None])
    T = 4096
    labels = np.random.default_rng(0).integers(0, 2, T)
    tracemalloc.start()
    try:
        index, loss = best_in_hindsight(fam, np.zeros((T, 1)), labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"best_in_hindsight, 2,000 constant experts, T=4096: peak {peak / 2 ** 20:.2f} MiB")
    assert peak < 2 ** 20
    # 0 < k < T, so the experts at 0 and 1 have loss inf
    k = int(labels.sum())
    p = fam.table[1:-1, 0]
    log_likelihood = k * np.log(p) + (T - k) * np.log1p(-p)
    assert index == 1 + np.argmax(log_likelihood)
    assert loss == pytest.approx(-log_likelihood.max(), rel=1e-12)


def test_hard_class_extension_is_lipschitz():
    fam, _ = build_hard_lipschitz_class(d=1, T=512, R=1.0, L=1.0,
                                        alpha=16 * math.log(512) / 512, seed=1)
    rng = np.random.default_rng(5)
    for _ in range(100):
        w1, w2 = rng.uniform(-1, 1, 2)
        x = fam.features[rng.integers(len(fam.features))]
        lhs = abs(fam.eval_extended(np.array([w1]), x)
                  - fam.eval_extended(np.array([w2]), x))
        assert lhs <= fam.lipschitz * abs(w1 - w2) + 1e-12


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
       st.sampled_from([1.0, 2.0, math.inf]))
def test_ds_project_always_feasible(p, s):
    q = ds_project(np.asarray(p), s)
    assert np.all((q >= 0) & (q <= 1 + 1e-12))
    if math.isinf(s):
        assert np.max(q) <= 1 + 1e-9
    else:
        assert np.sum(q ** s) <= 1 + 1e-9
