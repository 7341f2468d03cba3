"""Log-loss primitives shared by every other module.

All losses are in nats (natural log).  +inf is a legitimate loss value: it
shows up whenever a zero-probability prediction meets the opposite label,
and the Shtarkov enumeration visits such outcomes on purpose, so nothing
here raises on the degenerate cases.
"""

import math

import numpy as np

def as_prob(value):
    """Validate a probability of the label being 1; reject values outside [0, 1]."""
    v = float(value)
    if math.isnan(v) or v < 0.0 or v > 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {value!r}")
    return v


def as_label(value):
    """Validate a binary label."""
    v = int(value)
    if v not in (0, 1) or v != value:
        raise ValueError(f"label must be 0 or 1, got {value!r}")
    return v


def log_loss(pred, label):
    """-y ln(p) - (1-y) ln(1-p), returning +inf on the zero-probability cases."""
    p = as_prob(pred)
    y = as_label(label)
    q = p if y == 1 else 1.0 - p
    if q == 0.0:
        return math.inf
    return -math.log(q)


def cumulative_loss(preds, labels):
    """Sum of per-step log losses; +inf saturates."""
    preds = list(preds)
    labels = list(labels)
    if len(preds) != len(labels):
        raise ValueError(f"length mismatch: {len(preds)} predictions vs {len(labels)} labels")
    return sum(log_loss(p, y) for p, y in zip(preds, labels))


def log_sum_exp(values):
    """ln sum exp of a nonempty sequence, max-shifted; exact on -inf inputs."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("log_sum_exp of an empty sequence")
    m = v.max()
    if m == -math.inf:
        return -math.inf
    return float(m + np.log(np.exp(v - m).sum()))


def pointwise_regret(learner, best_loss):
    """Learner cumulative loss minus the best-in-hindsight loss.

    `learner` may be a Transcript (anything with a `cumulative_loss`
    attribute) or a plain cumulative loss.  May be negative on sequences
    that are not worst case.
    """
    loss = getattr(learner, "cumulative_loss", learner)
    if loss == math.inf and best_loss == math.inf:
        return 0.0
    return float(loss) - float(best_loss)
