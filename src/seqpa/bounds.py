"""Closed-form regret bound registry.

Every bound is evaluated in nats.  Unstated absolute constants inside
asymptotic terms are surfaced as explicit parameters defaulting to 0 so
experiments fit them empirically instead of hard-coding guesses.
"""

import inspect
import math

from scipy.special import gammaln


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


def ball_log_volume(d, radius):
    """ln Vol of the Euclidean ball in R^d via the Gamma-function closed form."""
    return (d / 2.0) * math.log(math.pi) - gammaln(d / 2.0 + 1.0) + d * math.log(radius)


def cover_upper(T, alpha, cover_size):
    """2*alpha*T + ln(cover size): the general cover-based regret bound."""
    _require(T >= 0 and 0 < alpha < 1 and cover_size >= 1, "need T>=0, alpha in (0,1), size>=1")
    return 2.0 * alpha * T + math.log(cover_size)


def lipschitz_upper(T, d, R, L):
    """min(d*ln(2RLT/d + 1) + 2d, T) for an L-Lipschitz parametric family."""
    _require(T >= 1 and d >= 1 and R > 0 and L > 0, "need T>=1, d>=1, R,L>0")
    return min(d * math.log(2.0 * R * L * T / d + 1.0) + 2.0 * d, float(T))


def lipschitz_lower(T, d, R, L):
    """d*ln(RLT/d) - d*ln(64) - d*ln(ln(RLT)): hard-construction lower bound."""
    _require(R * L * T > math.e, "need RLT > e for the iterated log")
    _require(d >= 1, "need d >= 1")
    rlt = R * L * T
    return d * math.log(rlt / d) - d * math.log(64.0) - d * math.log(math.log(rlt))


def hessian_upper(T, d, R, C):
    """(d/2)*ln(2CR^2T/d + 2) + d/2 + ln 2 for a bounded-Hessian family."""
    _require(T >= 1 and d >= 1 and R > 0 and C > 0, "need T>=1, d>=1, R,C>0")
    return (d / 2.0) * math.log(2.0 * C * R * R * T / d + 2.0) + d / 2.0 + math.log(2.0)


def hessian_volume_upper(T, d, C, log_volume_enlarged=None, R=None):
    """Volume form: ln(Vol(W*) / Vol(B_2^d(sqrt(d/CT)))) + d/2 + ln 2.

    The enlarged set's log volume may be supplied directly; for a
    Euclidean ball of radius R it is computed in closed form.
    """
    _require(T >= 1 and d >= 1 and C > 0, "need T>=1, d>=1, C>0")
    rho = math.sqrt(d / (C * T))
    if log_volume_enlarged is None:
        _require(R is not None and R > 0, "supply R or log_volume_enlarged")
        log_volume_enlarged = ball_log_volume(d, R + rho)
    return (log_volume_enlarged - ball_log_volume(d, rho)
            + d / 2.0 + math.log(2.0))


def glm_lower(T, d, s, c=0.0):
    """(d/2)*ln(T / d^((s+2)/s)) - c*d for generalized linear families.

    `c` is the absolute constant hidden in the O(d) term; default 0 keeps
    the pure leading term.
    """
    _require(d >= 1 and s >= 1, "need d >= 1, s >= 1")
    arg = T / d ** ((s + 2.0) / s)
    _require(arg > 0, "need T > 0")
    return (d / 2.0) * math.log(arg) - c * d


def cover_size_bound(T, alpha, dfat):
    """Exact sum_{t<=dfat} C(T,t) * ceil(3/(2*alpha))^t, as a float (inf on overflow)."""
    if dfat < 0:
        return 0.0
    base = math.ceil(3.0 / (2.0 * alpha))
    total = sum(math.comb(T, t) * base ** t for t in range(min(dfat, T) + 1))
    try:
        return float(total)
    except OverflowError:
        return math.inf


def lattice_cover_size(d, R, L, alpha):
    """(2RL/alpha + 1)^d, the member bound of a lattice cover (not a bound kind)."""
    return (2.0 * R * L / alpha + 1.0) ** d


def power_family_lower(T, s):
    """((s+1)/(s*e)) * T^(s/(s+1)) for the power-mass-constrained family."""
    _require(T >= 0 and s >= 1, "need T >= 0, s >= 1")
    return (s + 1.0) / (s * math.e) * T ** (s / (s + 1.0))


BOUND_KINDS = {
    "cover-upper": cover_upper,
    "lipschitz-upper": lipschitz_upper,
    "lipschitz-lower": lipschitz_lower,
    "hessian-upper": hessian_upper,
    "hessian-volume-upper": hessian_volume_upper,
    "glm-lower": glm_lower,
    "power-lower": power_family_lower,
    "cover-size": cover_size_bound,
}


def _parameters(fn):
    """(the parameters `fn` requires, in order; every parameter it takes)."""
    params = inspect.signature(fn).parameters.values()
    return tuple(p.name for p in params if p.default is p.empty), {p.name for p in params}


_PARAMETERS = {kind: _parameters(fn) for kind, fn in BOUND_KINDS.items()}
_INTEGER_PARAMETERS = {"T", "d", "dfat"}


def evaluate_bound(kind, **params):
    """Evaluate a registered bound by name.  Unknown kinds, missing or unknown
    parameters, non-integral T, d or dfat, and bad domains raise ValueError."""
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}; known: {sorted(BOUND_KINDS)}")
    required, accepted = _PARAMETERS[kind]
    missing = [p for p in required if p not in params]
    if missing:
        raise ValueError(f"bound {kind!r} needs parameters {missing}")
    unknown = sorted(set(params) - accepted)
    if unknown:
        raise ValueError(f"bound {kind!r} does not take parameters {unknown}; "
                         f"it takes {sorted(accepted)}")
    for name in _INTEGER_PARAMETERS & params.keys():
        if not float(params[name]).is_integer():
            raise ValueError(f"bound parameter {name} must be an integer, got {params[name]!r}")
        params[name] = int(params[name])
    return BOUND_KINDS[kind](**params)
