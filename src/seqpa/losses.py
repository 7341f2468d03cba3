"""Log-loss primitives shared by every other module.

All losses are in nats (natural log).  +inf is a legitimate loss value: it
shows up whenever a zero-probability prediction meets the opposite label,
and the Shtarkov enumeration visits such outcomes on purpose, so nothing
here raises on the degenerate cases, and regret counts inf - inf as 0.
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
    """Validate a binary label: 0 or 1 as an int, or ValueError naming any
    other value, NaN, an infinity and non-numeric input included."""
    try:
        v = int(value)
    except (TypeError, ValueError, OverflowError):
        v = None
    if v not in (0, 1) or v != value:
        raise ValueError(f"label must be 0 or 1, got {value!r}")
    return v


def _as_labels(values):
    """`as_label` over an array: the labels as an array, or ValueError naming
    the first one other than 0 or 1."""
    labels = np.asarray(values)
    bad = (labels != 0) & (labels != 1)
    if bad.any():
        raise ValueError(f"label must be 0 or 1, got {labels[bad][0].item()!r}")
    return labels


def _horizon(T, positive=False):
    """T as an int; ValueError unless it is a nonnegative integer (a positive
    one with `positive`) of any type.  Every function that takes a horizon
    reads it here."""
    if not (T >= positive and float(T).is_integer()):
        raise ValueError(f"T must be a {'positive' if positive else 'nonnegative'} "
                         f"integer, got {T}")
    return int(T)


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


def pointwise_regret(loss, best_loss):
    """Cumulative loss minus the best-in-hindsight loss, elementwise over
    floats or arrays (a float for scalar inputs), with inf - inf = 0.  May
    be negative on sequences that are not worst case.
    """
    loss, best_loss = np.asarray(loss, dtype=float), np.asarray(best_loss, dtype=float)
    with np.errstate(invalid="ignore"):
        regret = np.where((loss == math.inf) & (best_loss == math.inf), 0.0, loss - best_loss)
    return float(regret) if regret.ndim == 0 else regret
