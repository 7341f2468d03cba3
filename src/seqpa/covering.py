"""Global sequential covers and shattering numbers.

Two constructions: lattice covers of a parameter ball for Lipschitz
parametric families, and the multi-level mistake-bounded-learner cover for
finite discretized families.  Shattering recursions are exhaustive and
memoized, intended for desk-scale instances.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import cover_size_bound, lattice_cover_size  # noqa: F401  (re-exported)
from .experts import (
    DEFAULT_SIZE_CAP,
    FiniteParamFamily,
    ParametricFamily,
    _validate_table,
    ball_grid,
    check_lattice_size,
    feature_column,
    feature_key,
)
from .losses import _horizon


@dataclass
class CoverSet:
    """Finite cover of a family at a given scale, held as one finite family,
    read step by step (an M-SOA cover's family from t = 0, in order)."""

    scale: float
    family: object

    def __len__(self):
        return self.family.n_experts


# ---------------------------------------------------------------------------
# Lattice covers of Lipschitz parametric families


def grid_cover(pfam, alpha):
    """Lattice cover of the parameter ball at l_s radius alpha/L.

    The cover's family holds sigma(<w, .>) at the lattice points; a family
    other than `ParametricFamily` raises TypeError.  The lattice is
    `experts.ball_grid`'s, refused over DEFAULT_SIZE_CAP before it is built
    (its half-axis too, judged as a float, so a subnormal alpha/L is refused,
    not overflowed); the member count is checked against the standard
    (2RL/alpha + 1)^d covering bound.
    """
    if not isinstance(pfam, ParametricFamily):
        raise TypeError(f"grid_cover needs a ParametricFamily, got {type(pfam).__name__}")
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
    half = reach / delta if delta else math.inf  # alpha / L may underflow to 0
    check_lattice_size(half, f"a lattice half-axis of {half:g} points")
    W = ball_grid(2 * math.floor(half) + 1, delta, d, s, reach)
    bound = lattice_cover_size(d, R, L, alpha)
    if len(W) > bound:
        raise ValueError(f"lattice cover has {len(W)} members, over the "
                         f"(2RL/alpha+1)^d bound {bound:.6g}; this construction "
                         f"needs d^(1/s) below 2")
    return CoverSet(scale=alpha, family=FiniteParamFamily(W))


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

    @functools.cached_property
    def full_class(self):
        """The frozenset of every row, built (and hashed) once per family."""
        return frozenset(range(self.n_experts))

    @functools.cached_property
    def level_sets(self):
        """The table's level index: `level_sets[j][k]` is the frozenset of rows
        at level k on feature column j, built once per family."""
        return [[frozenset(np.flatnonzero(column == k).tolist()) for k in range(self.K)]
                for column in np.asarray(self.table).T]

    @functools.cached_property
    def shattering(self):
        """The table's 1-shattering recursion (`_fat1_memo`), built once per family."""
        return _fat1_memo(self.table, self.K)

    @functools.cached_property
    def step_memo(self):
        """The learner-step memo: (members, j) -> `_msoa_step`'s (level,
        subclasses), shared by every run and cover read of this family."""
        return {}


def discretization_levels(alpha):
    """Levels (2k+1)*alpha, the top one capped at 1, so each point of [0,1]
    lies within alpha of a level.  Raises ValueError unless 0 < alpha < inf."""
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be a positive finite number, got {alpha!r}")
    K = math.ceil(1.0 / (2.0 * alpha))
    return np.array([min((2 * k + 1) * alpha, 1.0) for k in range(K)])


def discretize(values, alpha, feature_keys=None):
    """Snap a [0,1] value table to the nearest level, ties toward the lower index.

    Raises ValueError for a NaN or a value outside [0, 1], a bad alpha
    (see `discretization_levels`) or a feature_keys count off the columns.
    """
    values = _validate_table(np.atleast_2d(np.asarray(values, dtype=float)))
    if feature_keys is not None and len(feature_keys) != values.shape[1]:
        raise ValueError(f"{len(feature_keys)} feature_keys for {values.shape[1]} table columns")
    levels = discretization_levels(alpha)
    dist = np.abs(values[..., None] - levels[None, None, :])
    # argmin takes the first (lowest) index on ties
    table = dist.argmin(axis=-1)
    return DiscretizedFamily(alpha=alpha, levels=levels, table=table,
                             feature_keys=feature_keys)


# ---------------------------------------------------------------------------
# Shattering numbers (exhaustive, memoized)


class _Shattering:
    """One memoized shattering recursion over the rows of a value table.

    `value(members)` is the largest depth of a feature-labeled tree the
    rows `members` shatter (-1 for no rows), from one (members, depth)
    memo shared by every subfamily.  `cuts(col)` lists the (low, high)
    threshold pairs allowed at a node whose members take the values `col`
    on its feature: members with value <= low go to one child, those with
    value >= high to the other.  A depth-k tree needs 2^k members, so the
    search stops by floor(log2 |members|) and its depth is exact.
    """

    def __init__(self, table, cuts):
        self.columns = np.asarray(table).T.tolist()
        self.cuts = cuts
        self._memo = {}

    def value(self, members):
        members = frozenset(members)
        depth = -1
        while self._shatters(members, depth + 1):
            depth += 1
        return depth

    def _shatters(self, sub, k):
        if len(sub) < 2 ** k:
            return False
        if k == 0:
            return True
        if (sub, k) not in self._memo:
            self._memo[sub, k] = self._splits(sub, k)
        return self._memo[sub, k]

    def _splits(self, sub, k):
        idx = sorted(sub)
        for column in self.columns:
            col = [column[i] for i in idx]
            for low_cut, high_cut in self.cuts(col):
                low = frozenset(i for i, v in zip(idx, col) if v <= low_cut)
                high = frozenset(i for i, v in zip(idx, col) if v >= high_cut)
                if low and high and self._shatters(low, k - 1) and self._shatters(high, k - 1):
                    return True
        return False


def fat_shattering_number(values, alpha):
    """Sequential fat-shattering number at margin alpha around witness levels.

    `values` is an (n_experts, n_features) table over a finite feature
    set.  Witness candidates are midpoints of member-value pairs.  Returns
    (depth, exact), where the depth is always exact; an empty family
    gives (-1, True).
    """
    def cuts(col):
        vals = sorted(set(col))
        witnesses = {(a + b) / 2.0 for a, b in itertools.combinations(vals, 2)
                     if b - a >= 2 * alpha - 1e-12}
        return [(s - alpha + 1e-12, s + alpha - 1e-12) for s in witnesses]

    values = np.atleast_2d(np.asarray(values, dtype=float))
    return _Shattering(values, cuts).value(range(values.shape[0])), True


def _fat1_memo(table, K):
    """The 1-shattering recursion of a level table: cuts at s - 1 and s + 1 for each level s."""
    level_cuts = [(s - 1, s + 1) for s in range(K)]
    return _Shattering(table, lambda col: level_cuts)


def fat1_number(table, K):
    """Discretized 1-shattering number of a level-valued family.

    `table` is (n_experts, n_features) with 0-based level indices.
    Returns (depth, exact) as `fat_shattering_number` does.
    """
    table = np.atleast_2d(np.asarray(table, dtype=int))
    return _fat1_memo(table, K).value(range(table.shape[0])), True


# ---------------------------------------------------------------------------
# Multi-level mistake-bounded learner (M-SOA)


def _msoa_step(dfamily, members, j, cache):
    """The learner's step rule on feature column j: play the level k whose
    subclass (the frozenset `members` intersected with `dfamily.level_sets[j][k]`,
    the rows at level k on that column) has the largest 1-shattering number
    `cache.value`, the lowest level on ties.  Returns (level, subclasses) with
    subclasses[k] the members at level k, from the family's `step_memo`, so a
    step is scored once per (class, column) per family."""
    step = dfamily.step_memo.get((members, j))
    if step is None:
        subclasses = tuple(members & s for s in dfamily.level_sets[j])
        scores = [cache.value(sub) for sub in subclasses]
        step = dfamily.step_memo[members, j] = scores.index(max(scores)), subclasses
    return step


def msoa_run(dfamily, x_cols, y_levels, cache=None):
    """Run the multi-level mistake-bounded learner; returns (predictions, error_count).

    `x_cols` are feature column indices into `dfamily.table`,
    `y_levels` the revealed 0-based level labels in range(dfamily.K), one
    per column, and `cache` any object whose `value(members)` gives the
    1-shattering number of the subfamily `members` of this family's table
    (by default `dfamily.shattering`).  Each step is `_msoa_step`, scored
    once per (class, column) per family: a step already in the family's
    `step_memo` asks `cache` nothing.  An error is a prediction off by >= 2
    levels; errors trigger restriction to the consistent subclass.  Raises
    ValueError for a column or label out of range or a label count other
    than the column count, before any step.
    """
    K, level_sets = dfamily.K, dfamily.level_sets
    n_features = len(level_sets)
    if len(y_levels) != len(x_cols):
        raise ValueError(f"{len(y_levels)} labels for {len(x_cols)} feature columns")
    steps = []
    for t, (j, y) in enumerate(zip(x_cols, y_levels)):
        y = int(y)
        if not 0 <= j < n_features:
            raise ValueError(f"feature column {j} at step {t} is not in range({n_features})")
        if not 0 <= y < K:
            raise ValueError(f"label level {y} at step {t} is not in range({K})")
        steps.append((j, y))
    if cache is None:
        cache = dfamily.shattering
    members = dfamily.full_class
    preds = []
    errors = 0
    for j, y in steps:
        khat, subclasses = _msoa_step(dfamily, members, j, cache)
        preds.append(khat)
        if abs(khat - y) >= 2:
            errors += 1
            members = subclasses[y]
            if not members:
                raise RuntimeError("consistent class became empty after an error; "
                                   "the input was not realizable")
    return preds, errors


class MsoaCoverFamily:
    """The members of an M-SOA cover as one finite family, read step by step.

    Member i is the learner that, instead of restricting on errors,
    restricts at the steps `forced[i, 0]` to the levels `forced[i, 1]`
    (both padded with -1) and plays those levels there.  Such a member
    ignores labels, but its prediction at step t depends on the features
    up to t, so the family holds the state of one feature sequence: one
    reader at a time, from t = 0, in order.  t = 0 starts a new sequence;
    any other t but the step after the last one read raises ValueError.
    Each consistent class steps through `_msoa_step` on `dfamily`'s own
    shattering recursion and step memo, shared with `msoa_run` on that
    family.
    """

    def __init__(self, dfamily, forced):
        self.dfamily = dfamily
        self.forced = forced
        self._index = {key: j for j, key in enumerate(dfamily.feature_keys)}
        self._next = 0

    @property
    def n_experts(self):
        return self.forced.shape[0]

    def all_predictions(self, t, x):
        """Every member's level at step t: members in one consistent class share their unforced
        prediction, so each class takes one step from the family's step memo, and the members
        forced at t move in one gather."""
        if t != 0 and t != self._next:
            raise ValueError(f"step {t} read where step {self._next} (or 0, to restart) is "
                             "next: one reader at a time, from t = 0, in order")
        j = feature_column(self._index, x)
        dfam = self.dfamily
        if t == 0:
            # the distinct consistent classes, numbered in order of appearance
            self._class_id = {dfam.full_class: 0}
            self._member_class = np.zeros(self.n_experts, dtype=np.intp)
        class_id, member_class = self._class_id, self._member_class
        classes = list(class_id)
        khat = np.empty(len(classes), dtype=np.intp)
        restricted = np.empty((len(classes), dfam.K), dtype=np.intp)
        for c, members in enumerate(classes):
            khat[c], subclasses = _msoa_step(dfam, members, j, dfam.shattering)
            restricted[c] = [class_id.setdefault(sub, len(class_id)) for sub in subclasses]
        out = dfam.levels[khat[member_class]]
        rows, slots = np.nonzero(self.forced[:, 0] == t)
        forced_k = self.forced[rows, 1, slots]
        out[rows] = dfam.levels[forced_k]
        member_class[rows] = restricted[member_class[rows], forced_k]
        self._next = t + 1
        return out


def msoa_cover(values, alpha, T, feature_keys):
    """Enumerate forced-update learner runs into a 3*alpha sequential cover.

    `values` is the original [0,1] value table over a finite feature set;
    it is discretized at scale alpha, and every (step set I, level
    assignment) with |I| up to the 1-shattering number defines one cover
    member.  Member count is sum_{t<=d} C(T,t) * K^t, at most
    DEFAULT_SIZE_CAP.  A T that is not a nonnegative integer raises ValueError.
    """
    T = _horizon(T)
    dfam = discretize(values, alpha, feature_keys=[feature_key(k) for k in feature_keys])
    depth = min(max(dfam.shattering.value(dfam.full_class), 0), T)
    K = dfam.K
    size = sum(math.comb(T, t) * K ** t for t in range(depth + 1))
    if size > DEFAULT_SIZE_CAP:
        raise ValueError(f"cover enumeration would produce {size} members, "
                         f"over the cap {DEFAULT_SIZE_CAP}")
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
    return CoverSet(scale=3.0 * alpha, family=MsoaCoverFamily(dfam, forced))
