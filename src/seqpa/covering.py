"""Global sequential covers and shattering numbers.

Two constructions: lattice covers of a parameter ball for Lipschitz
parametric families, and the multi-level mistake-bounded-learner cover for
finite discretized families.  Shattering recursions are exhaustive and
memoized, intended for desk-scale instances.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .experts import DsFamily, FiniteParamFamily, ball_lattice

DEFAULT_SIZE_CAP = 10 ** 7


@dataclass
class CoverSet:
    """Finite cover of a family at a given scale, held as one finite family.

    A lattice cover's `family` is static: each member predicts from the
    current feature alone, so mixtures iterate over it directly.  An M-SOA
    cover's `family` (`MsoaCoverFamily`) is sequential: a member's
    prediction depends on the whole feature prefix, so it is read along
    one feature sequence with `family.on(features)`.
    """

    scale: float
    provenance: str
    family: object

    def __len__(self):
        return self.family.n_experts


# ---------------------------------------------------------------------------
# Lattice covers of Lipschitz parametric families


def grid_cover(pfam, alpha, size_cap=DEFAULT_SIZE_CAP):
    """Lattice cover of the parameter ball at l_s radius alpha/L.

    The cover's family holds the static functions w -> f(w, .) at the
    lattice points.  The member count is checked against the standard
    (2RL/alpha + 1)^d covering bound.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    ball = pfam.ball
    d, R, s = ball.dimension, ball.radius, ball.norm_order
    L = pfam.lipschitz
    radius = alpha / L
    # a cubic cell of side delta has l_s circumradius (delta/2) * d^(1/s)
    dpow = 1.0 if math.isinf(s) else d ** (1.0 / s)
    delta = 2.0 * radius / dpow
    reach = R + radius  # lattice points this far out still cover boundary cells
    kmax = math.floor(reach / delta)
    axis = np.arange(-kmax, kmax + 1) * delta
    if len(axis) ** d > size_cap:
        raise ValueError(f"lattice cover would have up to {len(axis) ** d} members, "
                         f"over the cap {size_cap}")
    W = ball_lattice(axis, d, s, reach + 1e-12)
    bound = (2.0 * R * L / alpha + 1.0) ** d
    if len(W) > bound:
        raise ValueError(f"lattice cover has {len(W)} members, over the "
                         f"(2RL/alpha+1)^d bound {bound:.6g}; this construction "
                         f"needs d^(1/s) below 2")
    return CoverSet(scale=alpha, provenance="grid", family=FiniteParamFamily(W, pfam))


# ---------------------------------------------------------------------------
# Discretization


@dataclass
class DiscretizedFamily:
    """A finite family snapped to K levels (2*alpha spacing starting at alpha).

    `table` holds 0-based level indices per (expert, feature column);
    `feature_keys` name the columns.  Levels are z_k = min((2k+1)*alpha, 1).
    """

    alpha: float
    levels: np.ndarray
    table: np.ndarray
    feature_keys: list = None

    @property
    def K(self):
        return len(self.levels)

    @property
    def n_experts(self):
        return self.table.shape[0]


def discretization_levels(alpha):
    """Levels (2k+1)*alpha, the top one capped at 1, so each point of [0,1]
    lies within alpha of a level."""
    K = math.ceil(1.0 / (2.0 * alpha))
    return np.array([min((2 * k + 1) * alpha, 1.0) for k in range(K)])


def discretize(values, alpha, feature_keys=None):
    """Snap a [0,1] value table to the nearest level, ties toward the lower index."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    levels = discretization_levels(alpha)
    dist = np.abs(values[..., None] - levels[None, None, :])
    # argmin takes the first (lowest) index on ties
    table = dist.argmin(axis=-1)
    return DiscretizedFamily(alpha=alpha, levels=levels, table=table,
                             feature_keys=feature_keys)


# ---------------------------------------------------------------------------
# Shattering numbers (exhaustive, memoized)


def _shattering_number(table, cuts):
    """Largest depth of a feature-labeled tree the rows of `table` shatter.

    `cuts(col)` lists the (low, high) threshold pairs allowed at a node
    whose members take the values `col` on its feature: members with
    value <= low go to one child, those with value >= high to the other.
    The depth search stops at log2(n_experts), which no shattered tree
    can exceed.  Returns (depth, exact); empty family gives (-1, True).
    """
    n = table.shape[0]
    if n == 0:
        return -1, True
    depth_cap = max(1, int(math.log2(n))) if n > 1 else 0
    columns = table.T.tolist()
    memo = {}

    def can(sub, k):
        if k == 0:
            return True
        if len(sub) < 2 ** k:
            return False
        key = (sub, k)
        if key not in memo:
            memo[key] = splits(sub, k)
        return memo[key]

    def splits(sub, k):
        idx = sorted(sub)
        for column in columns:
            col = [column[i] for i in idx]
            for low_cut, high_cut in cuts(col):
                low = frozenset(i for i, v in zip(idx, col) if v <= low_cut)
                high = frozenset(i for i, v in zip(idx, col) if v >= high_cut)
                if low and high and can(low, k - 1) and can(high, k - 1):
                    return True
        return False

    full = frozenset(range(n))
    depth = 0
    while depth < depth_cap and can(full, depth + 1):
        depth += 1
    return depth, depth < depth_cap or not can(full, depth + 1)


def fat_shattering_number(values, alpha):
    """Sequential fat-shattering number at margin alpha around witness levels.

    `values` is an (n_experts, n_features) table over a finite feature
    set.  Witness candidates are midpoints of member-value pairs.  Returns
    (depth, exact); empty family gives (-1, True).
    """
    def cuts(col):
        vals = sorted(set(col))
        witnesses = {(a + b) / 2.0 for a, b in itertools.combinations(vals, 2)
                     if b - a >= 2 * alpha - 1e-12}
        return [(s - alpha + 1e-12, s + alpha - 1e-12) for s in witnesses]

    return _shattering_number(np.atleast_2d(np.asarray(values, dtype=float)), cuts)


def fat1_number(table, K):
    """Discretized 1-shattering number of a level-valued family.

    `table` is (n_experts, n_features) with 0-based level indices.
    Returns (depth, exact); empty family gives (-1, True).
    """
    level_cuts = [(s - 1, s + 1) for s in range(K)]
    return _shattering_number(np.atleast_2d(np.asarray(table, dtype=int)),
                              lambda col: level_cuts)


# ---------------------------------------------------------------------------
# Multi-level mistake-bounded learner (M-SOA)


class _Fat1Cache:
    """Shared memo for 1-shattering numbers of subfamilies of one family."""

    def __init__(self, dfamily):
        self.table = dfamily.table
        self.K = dfamily.K
        self._memo = {}

    def value(self, members):
        members = frozenset(members)
        if members in self._memo:
            return self._memo[members]
        if not members:
            self._memo[members] = -1
            return -1
        sub = self.table[sorted(members)]
        val, _ = fat1_number(sub, self.K)
        self._memo[members] = val
        return val


def msoa_run(dfamily, x_cols, y_levels, forced=None, cache=None):
    """Run the multi-level mistake-bounded learner.

    `x_cols` are feature column indices, `y_levels` the revealed 0-based
    level labels.  Prediction: the level whose consistent subclass has the
    largest 1-shattering number (lowest level wins ties).  An error is a
    prediction off by >= 2 levels; errors trigger restriction to the
    consistent subclass.

    `forced` overrides the update rule for cover enumeration: a dict
    {step: level} restricting on exactly those steps regardless of errors
    (y_levels may be None in that mode).

    Returns (predictions, error_count).
    """
    if cache is None:
        cache = _Fat1Cache(dfamily)
    columns = dfamily.table.T.tolist()
    members = frozenset(range(dfamily.n_experts))
    preds = []
    errors = 0
    for t, j in enumerate(x_cols):
        col = columns[j]
        scores = [cache.value(frozenset(i for i in members if col[i] == k))
                  for k in range(dfamily.K)]
        khat = scores.index(max(scores))  # the lowest level wins ties
        preds.append(khat)
        if forced is not None:
            if t in forced:
                # a forced step plays the given level outright: the cover
                # member must match the target exactly where it restricts
                preds[-1] = int(forced[t])
                members = frozenset(i for i in members if col[i] == forced[t])
            continue
        y = int(y_levels[t])
        if abs(khat - y) >= 2:
            errors += 1
            members = frozenset(i for i in members if col[i] == y)
            if not members:
                raise RuntimeError("consistent class became empty after an error; "
                                   "the input was not realizable")
    return preds, errors


class MsoaCoverFamily:
    """The members of an M-SOA cover as one sequential finite family.

    Member i is the forced-update learner run that restricts at the steps
    `forced[i, 0]` to the levels `forced[i, 1]` (both padded with -1).
    Such a run ignores labels, but its prediction at step t depends on the
    features up to t, so the family is read along one feature sequence:
    `on(features)` gives every member's level trajectory there as a
    time-indexed `DsFamily` (s = inf, so any [0,1] table is feasible).
    """

    def __init__(self, dfamily, cache, forced):
        self.dfamily = dfamily
        self.cache = cache
        self.forced = forced
        self._index = {key: j for j, key in enumerate(dfamily.feature_keys)}

    @property
    def n_experts(self):
        return self.forced.shape[0]

    def on(self, features):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        cols = [self._index[tuple(x.tolist())] for x in features]
        runs = [msoa_run(self.dfamily, cols, None, cache=self.cache,
                         forced={t: k for t, k in zip(steps, ks) if t >= 0})[0]
                for steps, ks in self.forced.tolist()]
        return DsFamily(self.dfamily.levels[np.array(runs, dtype=int)], s=math.inf)


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


def msoa_cover(values, alpha, T, feature_keys, size_cap=DEFAULT_SIZE_CAP):
    """Enumerate forced-update learner runs into a 3*alpha sequential cover.

    `values` is the original [0,1] value table over a finite feature set;
    it is discretized at scale alpha, and every (step set I, level
    assignment) with |I| up to the 1-shattering number defines one cover
    member.  Member count is sum_{t<=d} C(T,t) * K^t.
    """
    keys = [tuple(np.atleast_1d(np.asarray(k, dtype=float)).tolist()) for k in feature_keys]
    dfam = discretize(values, alpha, feature_keys=keys)
    cache = _Fat1Cache(dfam)
    depth = min(max(cache.value(frozenset(range(dfam.n_experts))), 0), T)
    K = dfam.K
    size = sum(math.comb(T, t) * K ** t for t in range(depth + 1))
    if size > size_cap:
        raise ValueError(f"cover enumeration would produce {size} members, "
                         f"over the cap {size_cap}")
    # rows in itertools order: step sets by size, then each set's level tuples
    forced = np.full((size, 2, depth), -1, dtype=np.int32)
    row = 0
    for t in range(depth + 1):
        steps = np.array(list(itertools.combinations(range(T), t)), dtype=np.int32)
        levels = np.array(list(itertools.product(range(K), repeat=t)), dtype=np.int32)
        n = len(steps) * len(levels)
        forced[row:row + n, 0, :t] = np.repeat(steps, len(levels), axis=0)
        forced[row:row + n, 1, :t] = np.tile(levels, (len(steps), 1))
        row += n
    return CoverSet(scale=3.0 * alpha, provenance="msoa",
                    family=MsoaCoverFamily(dfam, cache, forced))
