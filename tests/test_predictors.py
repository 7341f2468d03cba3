import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqpa.covering import grid_cover
from seqpa.experts import DsFamily, FiniteStaticFamily, ds_project, glm_family
from seqpa.losses import cumulative_loss, log_loss
from seqpa.predictors import (
    AllExpertsRuledOut,
    MixturePredictor,
    Transcript,
    continuous_bayes,
    mixture_losses,
    nml_predict,
    smooth_truncate,
)
from seqpa.shtarkov import FiniteMaxOracle, minimax_value


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1e-6, max_value=0.5))
def test_smooth_truncate_range(g, alpha):
    out = smooth_truncate(g, alpha)
    lo = alpha / (1 + 2 * alpha)
    hi = (1 + alpha) / (1 + 2 * alpha)
    assert lo - 1e-12 <= out <= hi + 1e-12


def test_smooth_truncate_fixed_point():
    assert smooth_truncate(0.5, 0.3) == pytest.approx(0.5)


def _run_mixture(family, labels, truncation=None):
    pred = MixturePredictor(family, truncation=truncation)
    T = len(labels)
    features = np.zeros((T, 1))
    total = 0.0
    for t, y in enumerate(labels):
        yhat = pred.step(features[t])
        total += log_loss(yhat, y)
        pred.update(y)
    return pred, total


def test_mixture_weights_track_expert_losses():
    fam = FiniteStaticFamily(np.array([[0.2], [0.6], [0.9]]))
    labels = [1, 0, 1, 1, 0]
    pred, _ = _run_mixture(fam, labels)
    for i, p in enumerate([0.2, 0.6, 0.9]):
        expected = -cumulative_loss([p] * len(labels), labels)
        assert pred.log_weights[i] == pytest.approx(expected, abs=1e-10)


def test_mixture_loss_bounded_by_mixture_mass():
    # cumulative loss <= -log mixture mass (Jensen), hence <= ln n + best loss
    fam = FiniteStaticFamily(np.array([[0.3], [0.7]]))
    labels = [1, 1, 0, 1, 0, 0, 1]
    pred, total = _run_mixture(fam, labels)
    assert total <= -pred.log_mixture_mass() + 1e-10
    best = min(cumulative_loss([p] * len(labels), labels) for p in (0.3, 0.7))
    assert total - best <= math.log(2) + 1e-10


def test_mixture_truncation_keeps_weights_finite():
    fam = FiniteStaticFamily(np.array([[0.0], [1.0]]))
    pred, total = _run_mixture(fam, [1, 0, 1], truncation=0.1)
    assert np.all(np.isfinite(pred.log_weights))
    assert math.isfinite(total)


def test_mixture_all_experts_ruled_out():
    fam = FiniteStaticFamily(np.array([[0.0]]))
    pred = MixturePredictor(fam)
    pred.step(np.zeros(1))
    pred.update(1)  # the only expert placed zero mass on y=1
    with pytest.raises(AllExpertsRuledOut):
        pred.step(np.zeros(1))


def test_mixture_step_update_alternation():
    fam = FiniteStaticFamily(np.array([[0.5]]))
    pred = MixturePredictor(fam)
    with pytest.raises(RuntimeError):
        pred.update(1)
    pred.step(np.zeros(1))
    with pytest.raises(RuntimeError):
        pred.step(np.zeros(1))


def _stepped_loss(family, features, labels, truncation, predictor=MixturePredictor):
    pred = predictor(family, truncation=truncation)
    total = 0.0
    for x, y in zip(features, labels):
        total += log_loss(pred.step(x), y)
        pred.update(y)
    return total


@pytest.mark.parametrize("truncation", [None, 0.1])
def test_mixture_losses_match_stepped_mixture(truncation):
    T = 8
    features = np.random.default_rng(9).uniform(-1, 1, (T, 1))
    family = grid_cover(glm_family(d=1, R=1.0), 0.1).family
    losses = mixture_losses(family, features, truncation)
    assert losses.shape == (2 ** T,)
    for j, total in enumerate(losses):
        labels = [(j >> (T - 1 - t)) & 1 for t in range(T)]
        assert total == pytest.approx(_stepped_loss(family, features, labels, truncation),
                                      abs=1e-12)


def test_mixture_losses_truncation_keeps_degenerate_experts_finite():
    fam = FiniteStaticFamily(np.array([[0.0], [1.0], [0.5]]))
    features = np.zeros((5, 1))
    losses = mixture_losses(fam, features, 0.2)
    assert np.all(np.isfinite(losses))
    labels = [1, 0, 0, 1, 1]
    j = int("".join(map(str, labels)), 2)
    assert losses[j] == pytest.approx(_stepped_loss(fam, features, labels, 0.2), abs=1e-12)


class _ReferenceMixture:
    """The mixture step before fusion: truncate every expert, average with
    normalized weights, add ln q of the truncated prediction."""

    def __init__(self, family, truncation):
        self.family, self.truncation = family, truncation
        self.log_weights = np.zeros(family.n_experts)
        self.t = 0

    def step(self, x):
        p = np.asarray(self.family.all_predictions(self.t, np.atleast_1d(x)), dtype=float)
        if self.truncation is not None:
            p = (p + self.truncation) / (1.0 + 2.0 * self.truncation)
        w = np.exp(self.log_weights - self.log_weights.max())
        w /= w.sum()
        self._p = p
        return float(np.clip(w @ p, 0.0, 1.0))

    def update(self, y):
        q = self._p if y == 1 else 1.0 - self._p
        with np.errstate(divide="ignore"):
            self.log_weights += np.log(q)
        self.t += 1


def _reference_families():
    rng = np.random.default_rng(5)
    T = 24
    keys = [(float(j),) for j in range(3)]
    table = rng.uniform(0.0, 1.0, (6, 3))
    table[0, 0], table[1, 2] = 0.0, 1.0  # ruled out under truncation=None
    static = FiniteStaticFamily(table, feature_keys=keys)
    yield static, static.table, rng.integers(0, 3, (T, 1)).astype(float)
    ds = DsFamily(ds_project(rng.uniform(0.0, 1.0, (40, T)) ** 3, 2.0), s=2.0)
    yield ds, ds.vectors, np.zeros((T, 1))
    cover = grid_cover(glm_family(d=2, R=1.0), 0.1).family
    features = rng.normal(size=(T, 2))
    yield cover, cover.params, features / np.linalg.norm(features, axis=1, keepdims=True)


@pytest.mark.parametrize("truncation", [None, 0.1])
def test_mixture_step_matches_reference(truncation):
    rng = np.random.default_rng(11)
    for family, table, features in _reference_families():
        table_bytes = table.tobytes()
        fused, ref = MixturePredictor(family, truncation), _ReferenceMixture(family, truncation)
        for x in features:
            yhat = fused.step(x)
            assert yhat == pytest.approx(ref.step(x), abs=1e-12)
            y = int(rng.integers(0, 2))
            fused.update(y)
            ref.update(y)
            np.testing.assert_allclose(fused.log_weights, ref.log_weights, rtol=0, atol=1e-10)
        assert table.tobytes() == table_bytes, f"{type(family).__name__} table was written"


class _TruncationOffInUpdate(MixturePredictor):
    def update(self, y):
        alpha, self.truncation = self.truncation, None
        super().update(y)
        self.truncation = alpha


class _SkipsOneUpdate(MixturePredictor):
    def update(self, y):
        if self.t != 3:
            return super().update(y)
        self._pending = None
        self.t += 1


class _OtherAlphaInUpdate(MixturePredictor):
    def update(self, y):
        alpha, self.truncation = self.truncation, 2.0 * self.truncation
        super().update(y)
        self.truncation = alpha


def test_mixture_losses_gate_catches_broken_mixtures():
    # every sequence at T = 8 against the chain-rule losses: the real
    # predictor matches, each deliberately broken one misses somewhere
    T, alpha = 8, 0.1
    features = np.random.default_rng(9).uniform(-1, 1, (T, 1))
    family = grid_cover(glm_family(d=1, R=1.0), alpha).family
    exact = mixture_losses(family, features, alpha)
    sequences = [[(j >> (T - 1 - t)) & 1 for t in range(T)] for j in range(2 ** T)]

    def max_gap(cls):
        return max(abs(_stepped_loss(family, features, y, alpha, cls) - exact[j])
                   for j, y in enumerate(sequences))

    assert max_gap(MixturePredictor) <= 1e-12
    for broken in (_TruncationOffInUpdate, _SkipsOneUpdate, _OtherAlphaInUpdate):
        assert max_gap(broken) > 1e-6, broken.__name__


def test_transcript_append_and_csv():
    tr = Transcript(features=[np.array([0.5])])
    tr.append(0.5, 1)
    assert tr.cumulative_loss == pytest.approx(math.log(2))
    text = tr.to_csv_string()
    lines = text.strip().split("\n")
    assert lines[0] == "t,x,y,yhat,step_loss,cum_loss"
    assert lines[1].startswith("1,0.5,1,0.5,")


def test_transcript_to_csv_accepts_paths(tmp_path):
    tr = Transcript(features=[np.array([0.5]), np.array([-0.25])])
    tr.append(0.5, 1)
    tr.append(0.75, 0)
    tr.to_csv(tmp_path / "path.csv")
    tr.to_csv(str(tmp_path / "str.csv"))
    assert (tmp_path / "path.csv").read_text() == tr.to_csv_string()
    assert (tmp_path / "str.csv").read_text() == tr.to_csv_string()


def test_continuous_bayes_respects_regret_bound_small():
    T, d, R, C = 16, 1, 1.0, 0.25
    fam = glm_family(d=d, R=R)
    pred = continuous_bayes(fam, T=T, hessian_bound=C)
    rng = np.random.default_rng(7)
    features = rng.uniform(-1, 1, (T, d))
    total = 0.0
    labels = []
    for t in range(T):
        yhat = pred.step(features[t])
        y = 0 if yhat > 0.5 else 1  # greedy adversary
        total += log_loss(yhat, y)
        labels.append(y)
        pred.update(y)
    from seqpa.experts import best_in_hindsight
    _, best = best_in_hindsight(fam, features, labels)
    bound = (d / 2) * math.log(2 * C * R * R * T / d + 2) + d / 2 + math.log(2)
    assert total - best <= bound + 0.1


def test_empirical_hessian_refuses_bad_constant():
    from seqpa.predictors import empirical_hessian_bound
    fam = glm_family(d=1, R=1.0)
    est = empirical_hessian_bound(fam)
    assert est <= 0.25 * 1.01
    with pytest.raises(ValueError):
        continuous_bayes(fam, T=8, hessian_bound=0.01)


def test_nml_equalizer_small():
    fam = FiniteStaticFamily(np.array([[0.2], [0.7]]))
    T = 4
    oracle = FiniteMaxOracle(fam, np.zeros((T, 1)))
    nml = nml_predict(oracle, T)
    regrets = []
    for idx in range(2 ** T):
        labels = [(idx >> (T - 1 - t)) & 1 for t in range(T)]
        preds = nml.run(labels)
        reg = cumulative_loss(preds, labels) - (-oracle.log_sup(labels))
        regrets.append(reg)
    regrets = np.array(regrets)
    np.testing.assert_allclose(regrets, nml.regret, atol=1e-9)
    assert nml.regret == pytest.approx(minimax_value(oracle, T).root, abs=1e-12)


def test_nml_predictions_sum_to_one():
    fam = FiniteStaticFamily(np.array([[0.3], [0.8]]))
    oracle = FiniteMaxOracle(fam, np.zeros((3, 1)))
    nml = nml_predict(oracle, 3)
    p = nml.predict([])
    assert 0.0 <= p <= 1.0
    p01 = nml.predict([0])
    p11 = nml.predict([1])
    assert 0.0 <= p01 <= 1.0 and 0.0 <= p11 <= 1.0


def _nml_inputs():
    """(oracle, T, label sequences): the label_tree benchmark's NML inputs at
    seed 1 (same draws), then every criterion-1 family on all sequences."""
    rng = np.random.default_rng(1)
    keys = [(float(j),) for j in range(4)]
    oracles = []
    for T in (20, 16):
        fam = FiniteStaticFamily(rng.uniform(0.02, 0.98, (8, 4)), feature_keys=keys)
        oracles.append(FiniteMaxOracle(fam, rng.integers(0, 4, (T, 1)).astype(float)))
    yield oracles[1], 16, rng.integers(0, 2, (1024, 16)).tolist()
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        T = int(rng.integers(1, 11))
        vals = rng.uniform(0.02, 0.98, n)
        for i in range(n):
            if rng.random() < 0.15:
                vals[i] = float(rng.integers(0, 2))
        oracle = FiniteMaxOracle(FiniteStaticFamily(vals[:, None]), np.zeros((T, 1)))
        yield oracle, T, [[(j >> (T - 1 - t)) & 1 for t in range(T)] for j in range(2 ** T)]


def _nml_prediction_per_prefix(table, prefix):
    # reference: two GameValueTable.value walks per prefix
    v = table.value(prefix)
    if v == -math.inf:
        return 0.5
    v1 = table.value(prefix + [1])
    return float(math.exp(v1 - v)) if v1 > -math.inf else 0.0


def test_nml_run_and_predict_bit_identical_to_per_prefix_values():
    for oracle, T, sequences in _nml_inputs():
        nml = nml_predict(oracle, T)
        for labels in sequences:
            expected = [_nml_prediction_per_prefix(nml.table, labels[:t]) for t in range(T)]
            assert nml.run(labels) == expected
            assert nml.predict(labels[:-1]) == expected[-1]
    with pytest.raises(ValueError):
        nml.run([0] * (T + 1))
    with pytest.raises(ValueError):
        nml.predict([0] * T)
