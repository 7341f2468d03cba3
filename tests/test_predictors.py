import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqpa.covering import grid_cover
from seqpa.experts import (DsFamily, FiniteParamFamily, FiniteStaticFamily, ball_lattice,
                           ds_project, glm_family, log_likelihoods, prediction_matrix)
from seqpa.losses import as_label, cumulative_loss, log_loss
from seqpa.predictors import (
    _Q_MIN,
    _R_MAX,
    _R_MIN,
    AllExpertsRuledOut,
    MixturePredictor,
    Transcript,
    continuous_bayes,
    mixture_losses,
    nml_predict,
    smooth_truncate,
)
from seqpa.shtarkov import FiniteMaxOracle, count_fold, minimax_value


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


def _chain_rule_residual(predictor, T):
    """|cumulative loss + ln mixture mass| of one run on 50 constant experts
    drawn from U[0.001, 0.999], labels Bernoulli(0.3), and the fold count."""
    rng = np.random.default_rng(0)
    fam = FiniteStaticFamily(rng.uniform(0.001, 0.999, (50, 1)))
    pred = predictor(fam)
    folds = 0
    fold = pred._fold

    def counted_fold():
        nonlocal folds
        folds += 1
        fold()

    pred._fold = counted_fold
    total = 0.0
    for y in (rng.uniform(size=T) < 0.3).astype(int):
        total += log_loss(pred.step(0.0), y)
        pred.update(y)
    return abs(total + pred.log_mixture_mass()), total, folds


# Largest relative residual seen at seeds 0-3 of this design: 1.7e-15 (an
# absolute 2.0e-12 at a loss of 1234, T = 2000); the bound allows 6x that.
CHAIN_RULE_RTOL = 1e-14


@pytest.mark.parametrize("truncation", [None, 0.01])
@pytest.mark.parametrize("T", [50, 2000])
def test_mixture_loss_equals_minus_log_mixture_mass(truncation, T):
    # chain rule: the mixture's per-step probabilities multiply to its mass,
    # so the cumulative loss is -ln mass, across folds (none at T = 50)
    residual, total, folds = _chain_rule_residual(
        lambda fam: MixturePredictor(fam, truncation=truncation), T)
    assert residual <= CHAIN_RULE_RTOL * total
    assert (folds == 0) if T == 50 else (folds >= 10)


@pytest.mark.parametrize("truncation", [None, 2 / 128])
def test_half_path_mixture_matches_the_full_link(truncation):
    # 128 greedy steps on the 6,613-member symmetric cover, once as built and
    # once on a family whose half path is switched off: the same labels (the
    # first run's greedy choices) drive both
    cover = grid_cover(glm_family(d=2), 2 / 128).family
    full = FiniteParamFamily(cover.params)
    full._head = None
    assert cover._head is not None
    half_run, full_run = (MixturePredictor(f, truncation=truncation) for f in (cover, full))
    X = np.random.default_rng(12).normal(size=(128, 2))
    X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
    losses = np.zeros(2)
    for x in X:
        p_half, p_full = half_run.step(x), full_run.step(x)
        assert abs(p_half - p_full) <= 1e-15
        y = 0 if p_half > 0.5 else 1  # harness.greedy_label_fn
        losses += log_loss(p_half, y), log_loss(p_full, y)
        half_run.update(y)
        full_run.update(y)
    np.testing.assert_allclose(half_run.log_weights, full_run.log_weights, rtol=1e-12, atol=0.0)
    for run, total in zip((half_run, full_run), losses):
        assert abs(total + run.log_mixture_mass()) <= CHAIN_RULE_RTOL * total


class _UntruncatedMass(MixturePredictor):
    """Log weights missing the -k ln(1 + 2 alpha) normalization."""

    @property
    def log_weights(self):
        with np.errstate(divide="ignore"):
            return np.log(self._r) + self._lw


def test_chain_rule_check_catches_a_missing_truncation_normalization():
    residual, total, _ = _chain_rule_residual(lambda fam: _UntruncatedMass(fam, 0.01), 50)
    assert residual > CHAIN_RULE_RTOL * total


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


class _ExactSumReference(_ReferenceMixture):
    """The reference with each log weight summed exactly (as fractions of the
    per-step ln q doubles): a float sum drifts by up to 4e-12 over a few
    hundred steps at |log weight| ~ 1000, more than the tolerance."""

    def __init__(self, family, truncation):
        super().__init__(family, truncation)
        self._sums = [Fraction(0)] * family.n_experts

    def update(self, y):
        q = self._p if y == 1 else 1.0 - self._p
        self._sums = [s + Fraction(v) for s, v in zip(self._sums, np.log(q).tolist())]
        self.log_weights = np.array([float(s) for s in self._sums])
        self.t += 1


def _fold_runs(truncation):
    """(name, family, feature keys, labels) runs that take the weights far
    outside the double range, so the mixture stays exact only by folding."""
    keys = [(0.0,), (1.0,)]
    # (a) expert 1 falls 850 nats behind expert 0, then overtakes it
    eps, alpha = 1e-4, truncation or 0.0
    swing = FiniteStaticFamily(np.array([[1.0, eps], [eps, 1.0], [0.01, 0.01]]),
                               feature_keys=keys)
    phase = math.ceil(850.0 / math.log((1.0 + alpha) / (eps + alpha)))
    yield "overtake", swing, [0.0] * phase + [1.0] * (2 * phase), [1] * (3 * phase)
    # (b) every expert confident and right: q = 1 + alpha at every step
    sure = FiniteStaticFamily(np.array([[1.0, 0.0]] * 3), feature_keys=keys)
    yield "confident", sure, [0.0, 1.0] * 10_000, [1, 0] * 10_000
    # (c) every expert loses about ln 2 a step, the leader too
    flat = FiniteStaticFamily(np.array([[0.5], [0.4], [0.6]]))
    yield "decay", flat, [0.0] * 2000, np.random.default_rng(3).integers(0, 2, 2000).tolist()
    # (d) a q of 1e-200 lands on an r of 1e-170, a product below the doubles
    plunge = FiniteStaticFamily(np.array([[0.01, 1e-200], [0.5, 0.5]]), feature_keys=keys)
    yield "plunge", plunge, [0.0] * 85 + [1.0] * 3, [1] * 88


@pytest.mark.parametrize("truncation", [None, 0.1])
def test_mixture_folds_match_log_domain_reference(truncation):
    for name, family, keys, labels in _fold_runs(truncation):
        pred, ref = MixturePredictor(family, truncation), _ExactSumReference(family, truncation)
        yhats, lws = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for key, y in zip(keys, labels):
                yhats.append((pred.step([key]), ref.step([key])))
                pred.update(y)
                ref.update(y)
                lws.append((pred.log_weights, ref.log_weights))
        got, want = np.array(yhats).T
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12, err_msg=name)
        got, want = (np.array(v) for v in zip(*lws))
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=name)
        if name == "overtake":
            assert np.max(want.max(axis=1) - want[:, 1]) > 800.0
            assert np.argmax(want[-1]) == 1
        elif name == "decay":
            assert want[-1].max() < -1000.0


class _CountsFolds(MixturePredictor):
    folds = 0

    def _fold(self):
        self.folds += 1
        super()._fold()


def test_mixture_folds_once_per_newly_ruled_out_expert():
    # exact 0/1 predictions: an update folds once when it rules out a new
    # expert and not at all when it only gives q = 0 to one already out;
    # these runs are too short for any other r to leave the fold range
    pred = _CountsFolds(FiniteStaticFamily([[0.0], [0.5]]))
    for _ in range(10):
        pred.step([0.0])
        pred.update(1)
    assert pred.folds == 1
    rng = np.random.default_rng(6)
    keys = [(0.0,), (1.0,)]
    outs = repeats = 0
    for _ in range(20):
        table = rng.choice([0.0, 0.5, 1.0], (6, 2))
        table[0] = 0.5  # one expert is never ruled out
        family = FiniteStaticFamily(table, keys)
        pred, ref = _CountsFolds(family), _ReferenceMixture(family, None)
        alive, new_outs = np.ones(6, dtype=bool), 0
        for j, y in zip(rng.integers(0, 2, 40), rng.integers(0, 2, 40)):
            assert abs(pred.step(keys[j]) - ref.step(keys[j])) <= 1e-12
            pred.update(y)
            ref.update(y)
            out = table[:, j] == 1 - y
            new_outs += bool((alive & out).any())
            repeats += bool((~alive & out).any())
            alive &= ~out
        assert pred.folds == new_outs
        outs += new_outs
        np.testing.assert_array_equal(np.isneginf(pred.log_weights), ~alive)
        np.testing.assert_allclose(pred.log_weights[alive], ref.log_weights[alive],
                                   rtol=0, atol=1e-12)
    assert outs == 52 and repeats == 625


def test_mixture_owns_at_most_four_expert_buffers():
    # _lw, _r, _w, _q: one buffer more than the log-domain step, through folds
    cover = grid_cover(glm_family(d=2, R=1.0), 0.1).family
    n = cover.n_experts
    pred = MixturePredictor(cover)
    rng = np.random.default_rng(4)
    features = rng.normal(size=(700, 2)) / 2.0
    for x, y in zip(features, rng.integers(0, 2, 700)):
        pred.step(x)
        pred.update(int(y))
    assert pred._k < pred.t  # at least one fold ran
    buffers = [v for v in vars(pred).values() if isinstance(v, np.ndarray)]
    assert all(b.shape == (n,) and b.dtype == np.float64 for b in buffers)
    assert len(buffers) <= 4


class _RecordsFolds(MixturePredictor):
    def __init__(self, family, truncation=None):
        self.fold_steps = []
        super().__init__(family, truncation)

    def _fold(self):
        self.fold_steps.append(self.t)
        super()._fold()


class _ScansEveryUpdate(_RecordsFolds):
    """The update before its fold check was gated by a bound: r is scanned
    for a fold after every update."""

    def update(self, y):
        if self._pending is None:
            raise RuntimeError("update called before step")
        y = as_label(y)
        p, q = self._pending, self._q
        self._pending = None
        alpha = self._alpha
        if y == 1:
            np.add(p, alpha, out=q)
        else:
            np.subtract(1.0 + alpha, p, out=q)
        if alpha < _Q_MIN and q.min() < _Q_MIN and np.min(q, where=q > 0.0, initial=1.0) < _Q_MIN:
            self._fold()
        r = self._r
        r *= q
        self._w *= q
        self._k += 1
        low = r.min()
        if low == 0.0 and np.count_nonzero(r) == self._live:
            low = np.min(r, where=r > 0.0, initial=1.0)
        if low < _R_MIN or r.max() > _R_MAX:
            self._fold()
        self.t += 1


def _gate_runs():
    """(family, features, horizon) triples: the reference families, and a
    d = 1 cover at R = 800 whose predictions are mostly exactly 0 or 1."""
    for family, table, features in _reference_families():
        yield family, features, table.shape[1] if isinstance(family, DsFamily) else None
    saturated = grid_cover(glm_family(d=1, R=800.0), 0.5).family
    yield saturated, np.array([[1.0], [-1.0], [0.3], [-0.05]]), None


_GATE_RUNS = list(_gate_runs())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(_GATE_RUNS))),
       st.sampled_from([None, 2.0 ** -8, 0.1, 1.0 / 3.0, 0.999, 1e-130]),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 700),
       st.sampled_from([0.0, 0.05, 0.5, 1.0]))
def test_mixture_fold_gate_matches_scan_every_update(run, truncation, seed, T, bias):
    # 1/3: fl(1 + alpha) - 1 < alpha, the lowest q; 1e-130: under _Q_MIN, and
    # fl(1 + alpha) - 1 = 0; 700 steps take r past both fold thresholds
    family, features, horizon = _GATE_RUNS[run]
    T = min(T, horizon or T)
    rng = np.random.default_rng(seed)
    labels = (rng.random(T) < bias).astype(int)
    xs = features[rng.integers(0, len(features), T)]
    gated, scans = _RecordsFolds(family, truncation), _ScansEveryUpdate(family, truncation)
    for x, y in zip(xs, labels):
        try:
            yhat = gated.step(x)
        except AllExpertsRuledOut:
            with pytest.raises(AllExpertsRuledOut):
                scans.step(x)
            break
        assert yhat == scans.step(x)
        gated.update(y)
        scans.update(y)
        r = gated._r
        assert gated._r_lo <= np.min(r, where=r > 0.0, initial=math.inf)
        assert gated._r_hi >= r.max()
    assert gated.fold_steps == scans.fold_steps
    for name in ("_r", "_w", "_lw", "log_weights"):
        assert getattr(gated, name).tobytes() == getattr(scans, name).tobytes(), name
    assert gated._k == scans._k


class _TruncationOffInUpdate(MixturePredictor):
    def update(self, y):
        alpha, self._alpha = self._alpha, 0.0
        super().update(y)
        self._alpha = alpha


class _SkipsOneUpdate(MixturePredictor):
    def update(self, y):
        if self.t != 3:
            return super().update(y)
        self._pending = None
        self.t += 1


class _OtherAlphaInUpdate(MixturePredictor):
    def update(self, y):
        alpha, self._alpha = self._alpha, 2.0 * self._alpha
        super().update(y)
        self._alpha = alpha


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


def _log_sum_exp_rows(x, axis):
    # the entries here are finite: shift by the column max, sum, shift back
    top = x.max(axis=axis)
    return np.log(np.exp(x - top).sum(axis=axis)) + top


def test_continuous_bayes_grid_error_against_a_4x_finer_lattice():
    # ln mixture mass of continuous_bayes's grid minus that of a lattice 4x
    # finer per axis on the same enlarged ball, over every count table of the
    # {e1, e2} design at d = 2, C = 1/4 (the label counts of each symbol,
    # folded by the count-grid engine): the measured extremes, pinned
    C = 0.25
    fam = glm_family(d=2, R=1.0)
    measured = {}
    for T in (16, 32):
        W = continuous_bayes(fam, T, C).family.params
        R_star = 1.0 + math.sqrt(2 / (C * T))
        per_axis = math.ceil(10.0 * math.sqrt(C * T / 2) * R_star)
        # the centred axis, point per_axis - 1 - j exactly -point j
        axis = (np.arange(per_axis) - (per_axis - 1) / 2) * (2 * R_star / (per_axis - 1))
        assert np.array_equal(W, ball_lattice(axis, 2, 2.0, R_star + 1e-12))
        finer = ball_lattice(np.linspace(-R_star, R_star, 4 * (per_axis - 1) + 1), 2, 2.0, R_star)
        lo, hi, eye = math.inf, -math.inf, np.eye(2)
        for n1 in range(T + 1):
            # e1 at n1 steps and e2 at the other T - n1: two distinct columns
            mass = [count_fold(*log_likelihoods(prediction_matrix(FiniteParamFamily(M), eye)),
                               [n1, T - n1], _log_sum_exp_rows) - math.log(len(M))
                    for M in (W, finer)]
            lo, hi = min(lo, (mass[0] - mass[1]).min()), max(hi, (mass[0] - mass[1]).max())
        measured[T] = (len(W), len(finer), lo, hi)
    assert measured[16] == pytest.approx((441, 7213, -0.050511802948, 0.017480128792), abs=1e-9)
    assert measured[32] == pytest.approx((648, 10557, -0.141717047557, 0.016800742633), abs=1e-9)
    # above the 0.1-nat allowance that criterion 5 and the bench give this error
    assert -measured[32][2] > 0.1 > -measured[16][2]


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
    p = nml.run([0])[-1]
    assert 0.0 <= p <= 1.0
    p01 = nml.run([0, 0])[-1]
    p11 = nml.run([1, 0])[-1]
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


def test_nml_run_bit_identical_to_per_prefix_values():
    for oracle, T, sequences in _nml_inputs():
        nml = nml_predict(oracle, T)
        for labels in sequences:
            expected = [_nml_prediction_per_prefix(nml.table, labels[:t]) for t in range(T)]
            assert nml.run(labels) == expected
            assert nml.run(labels[:-1] + [0])[-1] == expected[-1]
    with pytest.raises(ValueError):
        nml.run([0] * (T + 1))
