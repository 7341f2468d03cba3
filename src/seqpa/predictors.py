"""Online prediction strategies.

`MixturePredictor` is the posterior-weighted mixture over a finite expert
family, optionally with smooth truncation of every expert prediction;
`mixture_losses` scores it on every label sequence at once.  The mixture
keeps its weights in the linear domain between exact log-domain folds, so
a step or an update takes no exp or log; a fold runs only when some
expert's product of probabilities since the last one leaves
[2^-600, 2^300], so no weight is lost and the predictions are the exact
Bayesian mixture's to double precision.  The continuous-prior variant is
realized as a uniform grid over an enlarged parameter ball.  `nml_predict`
builds the fixed-design normalized maximum likelihood strategy from the
exact game-value table.
"""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from . import shtarkov
from .experts import (FiniteParamFamily, ParametricFamily, ball_lattice, distinct_columns,
                      log_likelihoods)
from .losses import as_label, log_loss, log_sum_exp


def smooth_truncate(g, alpha):
    """(g + alpha) / (1 + 2*alpha): pulls predictions away from {0, 1}."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("truncation parameter must lie in (0, 1)")
    g = np.asarray(g, dtype=float)
    if np.any(np.isnan(g)) or np.any((g < 0.0) | (g > 1.0)):
        raise ValueError("predictions must lie in [0, 1]")
    out = (g + alpha) / (1.0 + 2.0 * alpha)
    return float(out) if out.ndim == 0 else out


@dataclass
class Transcript:
    """One online run."""

    features: np.ndarray
    predictions: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    step_losses: list = field(default_factory=list)
    cumulative_loss: float = 0.0

    def append(self, yhat, y):
        loss = log_loss(yhat, y)
        self.predictions.append(yhat)
        self.labels.append(y)
        self.step_losses.append(loss)
        self.cumulative_loss += loss

    def to_csv_string(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t", "x", "y", "yhat", "step_loss", "cum_loss"])
        cum = 0.0
        for t, (y, yhat, loss) in enumerate(
                zip(self.labels, self.predictions, self.step_losses), start=1):
            cum += loss
            x = ";".join(f"{v:.12g}" for v in np.atleast_1d(self.features[t - 1]))
            writer.writerow([t, x, y, f"{yhat:.12g}", f"{loss:.12g}", f"{cum:.12g}"])
        return buf.getvalue()


class AllExpertsRuledOut(RuntimeError):
    """Every expert has assigned probability zero to the observed past."""


# Fold range for each expert's product r of q's since the last fold, from
# the double range [2^-1022, 2^1024): inside it r is normal and one more
# factor q < 2 cannot overflow it; 2^-1075 (where exp underflows) times
# 2^300 / 2^-600 is 2^-175, under double precision of the mixture; and a
# factor q >= 2^-422 keeps r * q >= 2^-1022 normal, so smaller q fold first.
_R_MIN, _R_MAX, _Q_MIN = 2.0 ** -600, 2.0 ** 300, 2.0 ** -422


class MixturePredictor:
    """Posterior-weighted mixture over a finite family.

    With `truncation=alpha` every expert prediction is smooth-truncated
    before the weight update, so each log weight stays equal to minus the
    truncated cumulative loss of that expert.  The prediction truncates the
    posterior average instead: truncation is affine and the posterior
    weights sum to one, so truncating the average equals averaging the
    truncated experts.  `truncation=None`, the plain Bayesian mixture, runs
    the same formulas at alpha = 0, where they are exact.  Step/update
    alternation is enforced.

    The weights live in the linear domain between exact log-domain folds.
    The state is the log weights as of the last fold (`_lw`), the product
    `_r` of each expert's q = p + alpha or 1 + alpha - p over the `_k`
    updates since then, and `_w = exp(_lw - max _lw) * _r`.  An update
    multiplies `_r` and `_w` by q; a step reads `_w` only.  A fold sets
    `_lw += ln _r - _k ln(1 + 2 alpha)`, resets `_r` to 1 (0 for a
    ruled-out expert) and recomputes `_w`.  It runs only when an expert is
    newly ruled out (q = 0), some other r leaves [2^-600, 2^300], or before
    a q in (0, 2^-422) is multiplied in, and never raises.  Two scalars
    `_r_lo`, `_r_hi` bound every live r since the last fold: predictions lie
    in [0, 1], so each q lies in [min(alpha, fl(1 + alpha) - 1), fl(1 + alpha)],
    and rounding is monotone, so the bounds times those q's stay bounds.
    An update scans r for a fold only when the bounds leave the fold range,
    and a scan that finds none resets them to r's own extremes.  Between folds:

    - every r but a ruled-out one is a normal double, so each expert's log
      weight is kept to rounding, also for an expert whose exp underflowed;
    - the leader of the last fold has w = r, a normal double, so the sum
      of the weights is positive unless every expert is ruled out;
    - an expert whose exp underflowed at the fold stays below 2^-175 of
      the leader, so the prediction is the exact mixture's to double
      precision.
    """

    def __init__(self, family, truncation=None):
        self.family = family
        self.truncation = truncation
        if truncation is not None and not 0.0 < truncation < 1.0:
            raise ValueError("truncation parameter must lie in (0, 1)")
        self._alpha = alpha = 0.0 if truncation is None else truncation
        n = family.n_experts
        self._lw = np.zeros(n)
        self._r = np.ones(n)
        self._w = np.ones(n)
        self._q = np.empty(n)  # p + alpha or 1 + alpha - p, rewritten every update
        self._k = 0
        self._live = n  # experts with r > 0, i.e. not ruled out at the last fold
        self._q_lo, self._q_hi = min(alpha, (1.0 + alpha) - 1.0), 1.0 + alpha
        self._r_lo = self._r_hi = 1.0
        self.t = 0
        self._pending = None

    @property
    def log_weights(self):
        """Current log weights (a new array), kept to rounding for every
        expert: minus each expert's (truncated) cumulative loss."""
        with np.errstate(divide="ignore"):
            lw = np.log(self._r)
        lw += self._lw
        lw -= self._k * math.log1p(2.0 * self._alpha)
        return lw

    def step(self, x):
        """Receive feature x_t and return the mixture prediction."""
        if self._pending is not None:
            raise RuntimeError("step called twice without an update")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        # may be a view of the family's own table: read, never written
        p = np.asarray(self.family.all_predictions(self.t, x), dtype=float)
        total = self._w.sum()
        if total == 0.0:
            raise AllExpertsRuledOut("all mixture weights are zero")
        mean = ((self._w @ p) / total + self._alpha) / (1.0 + 2.0 * self._alpha)
        self._pending = p
        return float(min(max(mean, 0.0), 1.0))

    def update(self, y):
        """Reveal label y_t; multiply each expert's weight by q = p + alpha
        or 1 + alpha - p, (1 + 2 alpha) times its truncated probability of y_t."""
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
            self._fold()  # q >= alpha; a q of exactly 0 multiplies in exactly, with no fold
        r = self._r
        r *= q
        self._w *= q
        self._k += 1
        self._r_lo *= self._q_lo
        self._r_hi *= self._q_hi
        if self._r_lo < _R_MIN or self._r_hi > _R_MAX:
            low = r.min()
            if low == 0.0 and np.count_nonzero(r) == self._live:  # no expert newly ruled out
                low = np.min(r, where=r > 0.0, initial=1.0)
            high = r.max()
            if low < _R_MIN or high > _R_MAX:
                self._fold()
            else:
                self._r_lo, self._r_hi = float(low), float(high)
        self.t += 1

    def _fold(self):
        """Move ln r into the exact log weights; restart r at 1, or at 0 if ruled out."""
        self._lw = self.log_weights
        np.greater(self._lw, -math.inf, out=self._r)
        self._live = np.count_nonzero(self._r)
        self._k = 0
        self._r_lo = self._r_hi = 1.0
        m = self._lw.max()
        if m == -math.inf:
            self._w.fill(0.0)
        else:
            np.exp(np.subtract(self._lw, m, out=self._w), out=self._w)

    def log_mixture_mass(self):
        """ln of the uniform-prior mixture probability of the observed past."""
        n = self.family.n_experts
        return log_sum_exp(self.log_weights) - math.log(n)


def mixture_losses(family, features, truncation=None):
    """Loss of a fresh `MixturePredictor(family, truncation)` on every label
    sequence, indexed like `GameValueTable` leaves.  By the chain rule it is
    ln n - ln sum_i prod_t q_it, q_it the (truncated) probability expert i
    gave y_t, so one logsumexp `count_fold` over the distinct truncated
    columns, read at each sequence's counts by `prefix_cells` as the Shtarkov
    leaves are, scores every sequence (columns are truncated, then grouped)."""
    vectors = (family.all_predictions(t, x) for t, x in enumerate(features))
    if truncation is not None:
        vectors = (smooth_truncate(p, truncation) for p in vectors)
    columns, group = distinct_columns(vectors, family.n_experts)
    grid = shtarkov.count_fold(*log_likelihoods(columns), np.bincount(group), logsumexp)
    return math.log(family.n_experts) - shtarkov.prefix_cells(grid, group)


def continuous_bayes(family, T, hessian_bound):
    """Bayesian mixture over a uniform grid on the enlarged parameter ball.

    The grid spacing is a tenth of the half-ball radius sqrt(d/CT).  Its
    discretization error is measured, not certified: against a lattice 4x
    finer per axis on the same ball, over every count table of the
    {e1, e2} design at d = 2, C = 1/4, the grid's ln mass was at worst
    0.051 nats (T = 16) and 0.142 nats (T = 32) below the finer lattice's,
    on tables that put every label of a symbol at one value, and at most
    0.017 above.  `hessian_bound` is taken as given: the caller checks
    it against the features (the harness does, as max ||x||^2 / 4).  The
    grid is an l2 ball: any other ball, T < 1 or d > 4 raises ValueError.
    """
    if not isinstance(family, ParametricFamily):
        raise TypeError("continuous_bayes needs a parametric family")
    d, R, s = family.ball.dimension, family.ball.radius, family.ball.norm_order
    if s != 2:
        raise ValueError(f"continuous_bayes needs an l2 ball, got norm order {s}")
    if T < 1:
        raise ValueError(f"T must be a positive integer, got {T}")
    if d > 4:
        raise ValueError("continuous-prior grids are limited to d <= 4")
    C = float(hessian_bound)
    if C <= 0:
        raise ValueError("Hessian bound must be positive")
    rho = math.sqrt(d / (C * T))
    R_star = R + rho
    per_axis = math.ceil(10.0 * math.sqrt(C * T / d) * R_star)
    W = ball_lattice(np.linspace(-R_star, R_star, per_axis), d, 2.0, R_star)
    return MixturePredictor(FiniteParamFamily(W))


class NmlPredictor:
    """Fixed-design normalized maximum likelihood strategy.

    Built from the exact backward-induction value table; the step-t
    prediction is the conditional Q(y_t = 1 | y^{t-1}).  Prefixes with zero
    mass predict 1/2 (the equalizer argument never reaches them).  A run
    walks the table's count grids once (`GameValueTable.conditionals`) with
    O(T) state, whatever the number of prefixes; the table memoizes each
    visited cell's prediction, so runs through the same cells share the
    work and the memo stays within one entry per grid cell.
    """

    def __init__(self, table):
        self.table = table
        self.regret = table.root  # ln S_T, constant over positive-mass sequences

    def run(self, labels):
        """Predictions along one label sequence; ValueError for a label other
        than 0 or 1 or more labels than the horizon."""
        return self.table.conditionals(labels)


def nml_predict(oracle, T):
    """NML predictor for a family given through its sup-probability oracle."""
    table = shtarkov.minimax_value(oracle, T)
    return NmlPredictor(table)
