"""Online prediction strategies.

`MixturePredictor` is the posterior-weighted mixture over a finite expert
family, optionally with smooth truncation of every expert prediction;
`mixture_losses` scores it on every label sequence at once.  The
continuous-prior variant is realized as a uniform grid over an enlarged
parameter ball.  `nml_predict` builds the fixed-design normalized maximum
likelihood strategy from the exact game-value table.
"""

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from . import shtarkov
from .experts import FiniteParamFamily, ParametricFamily, ball_lattice, prediction_matrix
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
    best_params: object = None
    best_loss: float | None = None

    def append(self, yhat, y):
        loss = log_loss(yhat, y)
        self.predictions.append(yhat)
        self.labels.append(y)
        self.step_losses.append(loss)
        self.cumulative_loss += loss

    def to_csv(self, path_or_buf):
        """Write the transcript to a path (str or os.PathLike) or an open text file."""
        if isinstance(path_or_buf, (str, os.PathLike)):
            target = open(path_or_buf, "w", newline="")
        else:
            target = contextlib.nullcontext(path_or_buf)
        with target as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["t", "x", "y", "yhat", "step_loss", "cum_loss"])
            cum = 0.0
            for t, (y, yhat, loss) in enumerate(
                    zip(self.labels, self.predictions, self.step_losses), start=1):
                cum += loss
                x = ";".join(f"{v:.12g}" for v in np.atleast_1d(self.features[t - 1]))
                writer.writerow([t, x, y, f"{yhat:.12g}", f"{loss:.12g}", f"{cum:.12g}"])

    def to_csv_string(self):
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


class AllExpertsRuledOut(RuntimeError):
    """Every expert has assigned probability zero to the observed past."""


class MixturePredictor:
    """Posterior-weighted mixture over a finite family (log-domain weights).

    With `truncation=None` this is the plain Bayesian mixture; with
    `truncation=alpha` every expert prediction is smooth-truncated before
    both the mixture average and the weight update, so each log-weight
    stays equal to minus the truncated cumulative loss of that expert.
    Step/update alternation is enforced.
    """

    def __init__(self, family, truncation=None):
        self.family = family
        self.truncation = truncation
        if truncation is not None and not 0.0 < truncation < 1.0:
            raise ValueError("truncation parameter must lie in (0, 1)")
        self.log_weights = np.zeros(family.n_experts)
        self.t = 0
        self._pending = None

    def step(self, x):
        """Receive feature x_t and return the mixture prediction."""
        if self._pending is not None:
            raise RuntimeError("step called twice without an update")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        p = np.asarray(self.family.all_predictions(self.t, x), dtype=float)
        if self.truncation is not None:
            p = (p + self.truncation) / (1.0 + 2.0 * self.truncation)
        m = self.log_weights.max()
        if m == -math.inf:
            raise AllExpertsRuledOut("all mixture weights are zero")
        w = np.exp(self.log_weights - m)
        w /= w.sum()
        self._pending = p
        return float(np.clip(w @ p, 0.0, 1.0))

    def update(self, y):
        """Reveal label y_t; decrement each log-weight by that expert's loss."""
        if self._pending is None:
            raise RuntimeError("update called before step")
        y = as_label(y)
        p = self._pending
        self._pending = None
        q = p if y == 1 else 1.0 - p
        with np.errstate(divide="ignore"):
            self.log_weights += np.log(q)
        self.t += 1

    def log_mixture_mass(self):
        """ln of the uniform-prior mixture probability of the observed past."""
        n = self.family.n_experts
        return log_sum_exp(self.log_weights) - math.log(n)


def mixture_losses(family, features, truncation=None):
    """Loss of a fresh `MixturePredictor(family, truncation)` on every label
    sequence, indexed like `GameValueTable` leaves.  By the chain rule it is
    ln n - ln sum_i prod_t q_it, q_it the (truncated) probability expert i
    gave y_t, so one label-tree fold scores every sequence."""
    P = prediction_matrix(family, features)
    if truncation is not None:
        P = smooth_truncate(P, truncation)
    with np.errstate(divide="ignore"):
        log_mass = shtarkov.label_tree_fold(np.log(1.0 - P), np.log(P), logsumexp)
    return math.log(P.shape[0]) - log_mass


def continuous_bayes(family, T, hessian_bound, verify_hessian=True, seed=0):
    """Bayesian mixture over a uniform grid on the enlarged parameter ball.

    The grid spacing is a tenth of the half-ball radius sqrt(d/CT), which
    keeps the discretization error of the continuous-prior mixture well
    under 0.1 nats.  Desk-scale guard: d <= 4.
    """
    if not isinstance(family, ParametricFamily):
        raise TypeError("continuous_bayes needs a parametric family")
    d, R = family.ball.dimension, family.ball.radius
    if d > 4:
        raise ValueError("continuous-prior grids are limited to d <= 4")
    C = float(hessian_bound)
    if C <= 0:
        raise ValueError("Hessian bound must be positive")
    if verify_hessian:
        emp = empirical_hessian_bound(family, n_samples=200, seed=seed)
        if emp > 1.01 * C:
            raise ValueError(f"claimed Hessian bound {C} refuted: empirical {emp:.6g}")
    rho = math.sqrt(d / (C * T))
    R_star = R + rho
    per_axis = math.ceil(10.0 * math.sqrt(C * T / d) * R_star)
    W = ball_lattice(np.linspace(-R_star, R_star, per_axis), d, 2.0, R_star)
    return MixturePredictor(FiniteParamFamily(W, family))


def empirical_hessian_bound(family, n_samples=200, seed=0, eps=1e-4):
    """Largest second directional derivative of the per-label log likelihood,
    estimated by central finite differences at random parameters/features."""
    rng = np.random.default_rng(seed)
    ball = family.ball
    d = ball.dimension
    worst = 0.0
    for _ in range(n_samples):
        w = rng.normal(size=d)
        w *= rng.uniform() ** (1.0 / d) * ball.radius / max(np.linalg.norm(w), 1e-12)
        x = rng.normal(size=d)
        x /= max(np.linalg.norm(x), 1e-12)
        u = rng.normal(size=d)
        u /= max(np.linalg.norm(u), 1e-12)
        for y in (0, 1):
            def ll(v):
                p = min(max(family.value(v, x), 1e-12), 1 - 1e-12)
                return math.log(p if y == 1 else 1.0 - p)
            second = (ll(w + eps * u) - 2.0 * ll(w) + ll(w - eps * u)) / eps**2
            worst = max(worst, abs(second))
    return worst


class NmlPredictor:
    """Fixed-design normalized maximum likelihood strategy.

    Built from the exact backward-induction value table; the step-t
    prediction is the conditional Q(y_t = 1 | y^{t-1}).  Prefixes with zero
    mass predict 1/2 (the equalizer argument never reaches them).
    """

    def __init__(self, table):
        self.table = table
        self.regret = table.root  # ln S_T, constant over positive-mass sequences

    @property
    def horizon(self):
        return self.table.horizon

    def predict(self, label_prefix):
        """Q(y_t = 1 | label_prefix), t = len(label_prefix)."""
        return self.run(list(label_prefix) + [0])[-1]

    def run(self, labels):
        """Predictions along one label sequence, walking the table once."""
        labels = [as_label(y) for y in labels]
        if len(labels) > self.horizon:
            raise ValueError("prediction past the horizon")
        preds, idx = [], 0
        for t, y in enumerate(labels):
            v = float(self.table.levels[t][idx])
            v1 = float(self.table.levels[t + 1][2 * idx + 1])
            if v == -math.inf:
                preds.append(0.5)
            else:
                preds.append(float(math.exp(v1 - v)) if v1 > -math.inf else 0.0)
            idx = 2 * idx + y
        return preds


def nml_predict(oracle, T):
    """NML predictor for a family given through its sup-probability oracle."""
    table = shtarkov.minimax_value(oracle, T)
    return NmlPredictor(table)
