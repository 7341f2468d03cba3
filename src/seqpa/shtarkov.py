"""Exact minimax lower-bound machinery: Shtarkov sums and game values on
the count grid, the source-identification bound, and the block-design and
power-constrained lower-bound constructions.

A sequence's likelihood depends only on its count of ones in each group of
steps (the method of types): `distinct_columns` reads a finite family's
prediction columns, or the logistic family's feature rows, once in order and
groups equal ones; an exchangeable oracle is one group of T steps.  The
groups size every grid before it is filled; no (n, T) matrix is built.
`count_fold` folds a finite family's distinct columns over that grid,
`minimax_value` runs backward induction on it and keeps the grids, and
`prefix_cells` lays a grid out over the 2^t label prefixes, each at its
counts; when every column is distinct the grid is the leaf array itself.

One size rule, not a limit on T: `_check_size` refuses an array of over
`FOLD_ELEMENT_CAP` float64 values before it is allocated.  Every entry
point reads T through `_horizon`.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .bounds import lipschitz_lower, power_family_lower
from .experts import (ROW_BLOCK, _best_logistic, _logistic_radius, _zero_positive_counts,
                      best_in_hindsight, count_log_likelihoods, count_term, distinct_columns,
                      ds_project, lattice_blocks, log_likelihoods)
from .losses import _as_labels, _horizon, as_label, log_sum_exp

LEAF_BLOCK_BITS = 14  # count_fold reduces blocks of at most 2^14 grid cells per row
# Largest label-tree array, in float64 elements: 2^26 is 512 MiB.  Under tracemalloc
# a count_fold peaked at 1.0-3.0x its largest bounded array with np.max and 1.1-7.2x
# with scipy's logsumexp (its temporaries): near 3.6 GiB for a logsumexp fold at the cap.
FOLD_ELEMENT_CAP = 2 ** 26
# hard_class_certificate draws each source's samples in row blocks of about
# 2^17 float64 values (1 MiB)
_DRAW_BLOCK_ELEMENTS = 2 ** 17


def _log_binom(n, k):
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


# ---------------------------------------------------------------------------
# Sup-probability oracles


class FiniteMaxOracle:
    """ln sup over a finite family, or a certified upper bound on it (within
    `CERTIFIED_GAP`) over the logistic family; requires the feature sequence."""

    def __init__(self, family, features):
        self.family = family
        self.features = np.atleast_2d(np.asarray(features, dtype=float))

    def log_sup(self, labels):
        """Minus the best loss in hindsight on `labels`."""
        return -best_in_hindsight(self.family, self.features, labels)[1]


class ExchangeableOracle:
    """Base for oracles whose sup depends on labels only through the count of 1s."""

    def log_sup(self, labels):
        labels = _as_labels(labels)
        return float(self.log_sup_by_count(labels.sum(), len(labels)))


class IntervalBernoulli(ExchangeableOracle):
    """Constant-probability experts restricted to [lo, hi]: the sup of
    `count_term` over w in [lo, hi] is at the clamped MLE."""

    def __init__(self, lo, hi):
        if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
            raise ValueError("interval must sit inside [0, 1]")
        if lo > hi:
            raise ValueError(f"interval lo={lo} is above hi={hi}")
        self.lo, self.hi = float(lo), float(hi)

    def log_sup_by_count(self, k, n):
        """`count_term` k ln w + (n - k) ln(1 - w) at the clamped MLE
        w = clip(k / n, lo, hi) (lo at n = 0, where every term is 0)."""
        k = np.asarray(k, dtype=float)
        w = np.clip(k / np.maximum(n, 1), self.lo, self.hi)
        return count_term(*log_likelihoods(w), n, k)


class ConstantBernoulliMLE(IntervalBernoulli):
    """Constant-probability experts p in [0, 1]: sup at the empirical frequency."""

    def __init__(self):
        super().__init__(0.0, 1.0)


class DsClosedForm(ExchangeableOracle):
    """Power-mass-constrained vectors: sup = k^(-k/s) for k ones (1 for k <= 1)."""

    def __init__(self, s):
        self.s = float(s)
        if self.s < 1:
            raise ValueError("s must be >= 1")

    def log_sup_by_count(self, k, n):
        k = np.asarray(k, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(k <= 1, 0.0, -(k / self.s) * np.log(np.maximum(k, 1.0)))
        return out


def _check_size(elements, needs, purpose=""):
    if elements > FOLD_ELEMENT_CAP:
        raise ValueError(f"{needs} {8 * elements} bytes{purpose}, over the "
                         f"{8 * FOLD_ELEMENT_CAP}-byte cap")


def shtarkov_sum(oracle, T):
    """ln S_T = ln sum over label sequences of the family's sup probability.

    Exchangeable oracles are grouped by the number of ones and run to very
    large T; any other oracle is the root of `minimax_value`.
    Raises ValueError for a T that is negative or not integral.
    """
    T = _horizon(T)
    if isinstance(oracle, ExchangeableOracle):
        k = np.arange(T + 1)
        return log_sum_exp(_log_binom(T, k) + oracle.log_sup_by_count(k, T))
    return minimax_value(oracle, T).root


# ---------------------------------------------------------------------------
# Game values by backward induction


@dataclass(eq=False)
class GameValueTable:
    """Backward-induction values over all label prefixes, on the count grid.

    `grids[t]` holds one value per count vector a length-t prefix can
    reach: one axis per column group, axis a of length 1 plus the number
    of steps s < t with group[s] = a, so a prefix's value sits at its
    counts.  Every value is `np.logaddexp` of its two children in
    grids[t + 1]; grids[horizon] holds the leaves (the family's log sup
    probabilities) and the root equals ln S_T.  Tables compare and hash by
    identity.

    One offset rule reads the grids, for `value` and `conditionals`
    alike: step t grows axis g = group[t] from L to L + 1 cells, with
    stride R (the cells of the later axes), so the cell at C-order offset
    hi L R + rem of grids[t] has its label-y child at hi (L + 1) R + rem +
    y R, that is `off + (off // (L R) + y) * R`, in grids[t + 1].

    `conditionals` memoizes the NML strategy per cell as it walks: one dict
    per step, keyed by the cell's offset, holding (prediction, offset of
    the label-0 child), filled on the cell's first visit.  A run keeps O(T)
    state of its own and adds at most T entries; the memo never holds more
    than one entry per cell of grids[:horizon].  A table pickles and copies
    as its grids, group and horizon.

    `levels[t]` lays level t out over the 2^t prefixes, indexed by the
    prefix read as a binary number (first label most significant).  It is
    built from the grid (`prefix_cells`) when first read, 2^horizon leaves
    checked first; no library path reads it.
    """

    grids: list
    group: np.ndarray
    horizon: int
    _BINARY = frozenset((0, 1))  # the one-pass label check (not a field)

    @property
    def root(self):
        return self.grids[0].item(0)

    @functools.cached_property
    def levels(self):
        _check_size(2 ** self.horizon, f"2^{self.horizon} leaves need")
        return [prefix_cells(grid, self.group[:t]) for t, grid in enumerate(self.grids)]

    @functools.cached_property
    def _walk(self):
        """Per step t: (memo, R, L R, grids[t], grids[t + 1]), the grids as flat
        memoryviews (each read is a Python float) and (R, L R) the stride and
        span of the offset rule.  memo maps a cell's offset in grids[t] to
        (NML prediction, offset of its label-0 child), filled on first visit."""
        cells = [memoryview(grid.reshape(-1)) for grid in self.grids]
        walk = []
        for grid, g, here, below in zip(self.grids, self.group.tolist(), cells, cells[1:]):
            stride = math.prod(grid.shape[g + 1:])
            walk.append(({}, stride, grid.shape[g] * stride, here, below))
        return walk

    def __getstate__(self):
        # the walk's memoryviews do not pickle; a copy rebuilds them on first read
        return {"grids": self.grids, "group": self.group, "horizon": self.horizon}

    def _labels(self, labels):
        """`labels` as a list, each equal to 0 or 1, checked in one pass;
        ValueError (`as_label`'s) for a label other than 0 or 1 or for more
        labels than the horizon."""
        labels = list(labels)
        try:
            valid = self._BINARY.issuperset(labels)
        except TypeError:  # an unhashable label, such as a 0-d array
            valid = False
        if not valid:
            labels = [as_label(y) for y in labels]
        if len(labels) > self.horizon:
            raise ValueError(f"prefix of {len(labels)} labels is past the horizon {self.horizon}")
        return labels

    def value(self, label_prefix):
        """One prefix's value (the label_tree benchmark's leaf check); ValueError
        for a label other than 0 or 1 or a prefix past the horizon."""
        labels = self._labels(label_prefix)
        off = 0
        for (_, stride, span, _, _), y in zip(self._walk, labels):
            off += off // span * stride
            if y:
                off += stride
        return self.grids[len(labels)].item(off)

    def conditionals(self, labels):
        """The NML probability of label 1 at each step along `labels`,
        exp(V_{t+1}(y^{t-1} 1) - V_t(y^{t-1})), in one walk: 1/2 after a
        prefix of zero mass, 0 where the label-1 child has none.  Each cell's
        prediction is computed on its first visit and memoized, so a later
        run through it costs one lookup.  ValueError as for `value`."""
        labels = self._labels(labels)
        preds, off = [], 0
        for (memo, stride, span, here, below), y in zip(self._walk, labels):
            hit = memo.get(off)
            if hit is None:
                v = here[off]
                base = off + off // span * stride
                v1 = below[base + stride]
                hit = memo[off] = (0.5 if v == -math.inf else math.exp(v1 - v)
                                   if v1 > -math.inf else 0.0, base)
            p, off = hit
            preds.append(p)
            if y:
                off += stride
        return preds


def count_fold(a0, a1, N, reduce):
    """Fold a finite family's log likelihoods over all count vectors of its
    distinct columns: the grid.

    `a0`, `a1` are (n, m): row i's log probability of y = 0 or 1 under
    distinct prediction column a (`distinct_columns`), as `log_likelihoods`
    gives them, and column a predicts at N[a] steps, T = sum N in all.
    grid[k] is reduce(row sums, axis=0) over the rows' log likelihoods of
    any label sequence with k_a ones among column a's steps, summed over the
    columns in order, so grid has shape (N_1 + 1, ..., N_m + 1).  When every
    column is distinct (N = 1), grid is the leaf array of all 2^T sequences
    (y_1 most significant) with the terms summed left to right in t.

    Blocks of at most 2^LEAF_BLOCK_BITS cells (the trailing groups' radices
    multiplied; at least one group) per row share a head of counts, so
    memory does not grow with n times the grid: a fold whose block, head
    array or grid is over FOLD_ELEMENT_CAP raises ValueError naming it
    before it allocates any of them.

    Layout rule: no short inner axis.  Each group writes the children of
    the (n, m) row-by-head sums with N_a + 1 full-length adds into an
    (n, m, N_a + 1) array, read as (n, m (N_a + 1)).  A broadcast into a
    trailing axis of length 2 makes numpy run its inner loop once per two
    elements, several times slower for the same additions in the same order.
    """
    n, T = len(a0), int(np.sum(N))
    radices = (np.asarray(N) + 1).tolist()
    size = math.prod(radices)
    split, tail = len(radices), 1
    while split and (tail == 1 or tail * radices[split - 1] <= 2 ** LEAF_BLOCK_BITS):
        split -= 1
        tail *= radices[split]
    for name, elements in ("block", n * tail), ("head array", n * size // tail), ("grid", size):
        _check_size(elements, f"count_fold of n={n} rows at T={T} needs", f" for its {name}")
    terms = count_log_likelihoods(a0, a1, N)

    def extend(acc, terms):
        for term in terms:
            children = np.empty((n, acc.shape[1], term.shape[1]))
            for k in range(term.shape[1]):
                np.add(acc, term[:, k, None], out=children[:, :, k])
            acc = children.reshape(n, -1)
        return acc

    heads = extend(np.zeros((n, 1)), terms[:split])
    out = np.empty((heads.shape[1], tail))
    for p, head in enumerate(heads.T):
        out[p] = reduce(extend(head[:, None], terms[split:]), axis=0)
    return out.reshape(radices)


def prefix_cells(grid, group):
    """The cell of a count grid at every label prefix over the
    steps of `group`, in leaf order (y_1 most significant): prefix y's cell is
    at its counts, sum_s y_s stride[group[s]], so the cells are a strided view
    of the grid with one axis of length 2 per step, read in C order (the grid
    itself, not a copy, when the groups are distinct and in order).  2^T
    cells over FOLD_ELEMENT_CAP raise ValueError."""
    _check_size(2 ** len(group), f"2^{len(group)} leaves need")
    view = np.lib.stride_tricks.as_strided(grid, shape=(2,) * len(group),
                                           strides=[grid.strides[a] for a in group])
    return view.reshape(-1)


def _count_grid(oracle, T):
    """The `leaf_log_sups` leaves as (group, fill): each step's group and a
    function that fills the count grid, one axis of N_a + 1 counts per group
    of N_a steps.  A finite family's steps are grouped by distinct prediction
    column and filled by their max-fold (`count_fold`); the logistic
    family's by distinct feature row (`distinct_columns` too), filled with
    one certified solve per count tuple, `ROW_BLOCK` tuples at a time in C
    order (all-distinct rows give (2,) * T, one solve per label sequence).
    An exchangeable oracle is one group of T steps.  A logistic grid over
    FOLD_ELEMENT_CAP is refused before any solve, an exchangeable one before
    its T-long group array."""
    if isinstance(oracle, FiniteMaxOracle):
        features = oracle.features[:T]
        if len(features) < T:
            raise ValueError(f"T={T} labels but only {len(features)} feature rows")
        if hasattr(oracle.family, "n_experts"):
            columns, group = distinct_columns((oracle.family.all_predictions(t, x) for t, x in
                                               enumerate(features)), oracle.family.n_experts)
            return group, lambda: count_fold(*log_likelihoods(columns), np.bincount(group), np.max)
        R = _logistic_radius(oracle.family)
        X, group = distinct_columns(features, features.shape[1])
        X, N = np.ascontiguousarray(X.T), np.bincount(group)
        radices = (N + 1).tolist()
        _check_size(math.prod(radices), f"a count grid at T={T} needs")

        def fill():
            leaves = np.empty(math.prod(radices))
            for i in range(0, len(leaves), ROW_BLOCK):
                tuples = np.arange(i, min(i + ROW_BLOCK, len(leaves)))
                K = np.zeros((len(tuples), len(N)))
                if len(N):  # T = 0 has one empty tuple
                    K.T[:] = np.unravel_index(tuples, radices)
                leaves[i:i + len(K)] = -_best_logistic(X, N, K, R)[1]
            return leaves.reshape(radices)
        return group, fill
    if not isinstance(oracle, ExchangeableOracle):
        raise TypeError(f"no label-tree leaves for oracle {oracle!r}")
    _check_size(T + 1, f"a count grid at T={T} needs")
    return np.zeros(T, dtype=np.intp), lambda: np.asarray(
        oracle.log_sup_by_count(np.arange(T + 1), T), dtype=float)


def leaf_log_sups(oracle, T):
    """ln sup probability of every label sequence, indexed like `GameValueTable`
    leaves: for a `FiniteMaxOracle`, a max-fold of a finite family's log
    likelihoods over its count grid (`count_fold`; bit-identical to
    `log_sup`) or, for the logistic family, one count-weighted hindsight
    solve per count tuple of its distinct feature rows (certified, within
    `CERTIFIED_GAP`; on distinct rows bit-identical to `best_in_hindsight`);
    for an exchangeable oracle, `log_sup_by_count` at each leaf's count of
    ones.  2^T leaves over FOLD_ELEMENT_CAP are refused before any solve."""
    T = _horizon(T)
    _check_size(2 ** T, f"2^{T} leaves need")
    group, fill = _count_grid(oracle, T)
    return prefix_cells(fill(), group)


def minimax_value(oracle, T):
    """Exact fixed-design game values over the `leaf_log_sups` leaves of a
    `FiniteMaxOracle` or an exchangeable oracle; the root realizes ln S_T.

    Backward induction runs on the count grid: the level-t grid holds one
    value per count vector a length-t prefix can reach, and
    V_t(k) = logaddexp(V_{t+1}(k), V_{t+1}(k + e_{group[t]})) builds it
    from the level-(t + 1) grid, one shorter along step t's group.  The
    table keeps the grids themselves, O(cells) time and memory; every value
    is `np.logaddexp` of its two children's doubles.  When every column is
    distinct, each grid is its level and the values are those of pairwise
    logaddexp over the leaves.  The levels' cells, not T, are refused over
    FOLD_ELEMENT_CAP, sized from the step groups before any leaf is filled,
    and first by their least count, (T + 1)(T + 2) / 2 (exact for one
    group), before the groups are read.
    """
    T = _horizon(T)
    # level t has prod_a (c_a + 1) >= 1 + t cells, counts c_a summing to t
    _check_size((T + 1) * (T + 2) // 2, f"minimax_value at T={T} needs", " for its levels")
    group, fill = _count_grid(oracle, T)
    shape, cells = (np.bincount(group) + 1).tolist(), 1  # the root's one cell
    for g in group[::-1].tolist():  # the level shapes backward induction builds
        cells += math.prod(shape)
        shape[g] -= 1
    _check_size(cells, f"minimax_value at T={T} needs", " for its levels")
    grids = [fill()]
    for t in range(T - 1, -1, -1):
        axis, grid = (slice(None),) * group[t], grids[-1]
        grids.append(np.logaddexp(grid[axis + (slice(-1),)], grid[axis + (slice(1, None),)]))
    grids.reverse()
    return GameValueTable(grids, group, T)


# ---------------------------------------------------------------------------
# Identification bound


def identification_bound(distributions):
    """Lower bound 1 - S/|P| on the minimax identification error.

    `distributions` is a (|P|, n_outcomes) row-stochastic matrix.  The
    exhaustive optimum enumerates every estimator map when |P|^n_outcomes
    is at most 10^6; otherwise it is None (reported, bound still valid).
    An empty matrix or a row off [0, 1] or not summing to 1 raises ValueError.
    """
    P = np.atleast_2d(np.asarray(distributions, dtype=float))
    m, n = P.shape
    if P.size == 0:
        raise ValueError(f"distributions is empty (shape {P.shape}): need a row and an outcome")
    if np.any((P < 0) | (P > 1)) or not np.allclose(P.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("rows must be probability distributions (entries in [0, 1], sum 1)")
    S = float(P.max(axis=0).sum())
    bound = 1.0 - S / m
    optimum = None
    if m ** n <= 10 ** 6:
        best = math.inf
        for phi in itertools.product(range(m), repeat=n):
            phi = np.asarray(phi)
            err = max(float(P[p, phi != p].sum()) for p in range(m))
            best = min(best, err)
        optimum = best
    return bound, optimum


# ---------------------------------------------------------------------------
# Block-design lower bound


def _block_length(d, T):
    """T / d, the length of each block of the d-block design of T steps;
    ValueError unless d >= 1 and T is a positive multiple of d."""
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    if T < 1 or T % d:
        raise ValueError(f"block design needs d | T (got T={T}, d={d})")
    return T // d


def block_design_features(d, T):
    """(T, d) features in d blocks of T / d steps: block i repeats the i-th
    standard basis vector.  Raises ValueError unless d >= 1 and T is a
    positive multiple of d.
    """
    n = _block_length(d, T)
    feats = np.zeros((T, d))
    for i in range(d):
        feats[i * n:(i + 1) * n, i] = 1.0
    return feats


def block_shtarkov_lower(d, T, link, s):
    """Certified lower bound on ln S_T for a generalized linear family
    over the block feature design: d times the per-block restricted sum.

    Rejects d below 1, a T that is not a positive multiple of d (as
    `block_design_features` does) and links whose interval containment
    fails at this d.
    """
    n = _block_length(d, T)
    r = 1.0 / float(s)
    if not link.interval_containment_ok(d, r):
        raise ValueError(f"link {link.name} fails interval containment at d={d}, r={r}")
    if n > 10 ** 5:
        raise ValueError(f"per-block length {n} outside [1, 1e5]")
    h = d ** (-r)
    return d * shtarkov_sum(IntervalBernoulli(link.c1 - link.c2 * h, link.c1 + link.c2 * h), n)


# ---------------------------------------------------------------------------
# Power-constrained family


def ds_lower_bound(T, s):
    """(exact ln sum_k C(T,k) k^(-k/s), closed-form lower envelope).

    The envelope ((s+1)/(s*e)) * T^(s/(s+1)) is asymptotic; it overtakes
    the exact value only below a small-T threshold (around T < 10 for s=1).
    """
    s = float(s)
    return shtarkov_sum(DsClosedForm(s), T), power_family_lower(T, s)


def ds_sup_verify(labels, s, grid_cap=200_000):
    """Closed-form sup of the sequence probability over the power-mass set
    versus a projected-grid brute-force maximization.

    Returns (closed_form_log, brute_log).  Brute force: grid the k active
    coordinates over [0, 1] with m = max(2, floor(grid_cap^(1/k))) points
    each, rescale every candidate row into the feasible set, take the best
    product.  The m^k grid is walked in `lattice_blocks`; each row's value
    depends on that row alone, so the max of the block maxima is the grid's
    max.  Raises ValueError for grid_cap < 1 or a label other than 0/1.
    """
    if grid_cap < 1:
        raise ValueError(f"grid_cap must be at least 1, got {grid_cap}")
    labels = [as_label(y) for y in labels]
    T = len(labels)
    if T > 8:
        raise ValueError("brute grid is limited to T <= 8")
    k = sum(labels)
    closed = float(DsClosedForm(s).log_sup_by_count(k, T))
    if k == 0:
        return closed, 0.0
    m = max(2, int(grid_cap ** (1.0 / k)))
    axis = np.linspace(1.0 / m, 1.0, m)  # every point of axis^k lies in the unit l_inf ball
    best = -math.inf
    for grid in lattice_blocks(axis, k):
        with np.errstate(divide="ignore"):
            best = max(best, float(np.log(ds_project(grid, s)).sum(axis=1).max()))
    return closed, best


# ---------------------------------------------------------------------------
# Hard-class certificate


@dataclass
class HardClassReport:
    n_sources: int
    min_hamming: int
    hamming_threshold: float
    mc_error: float          # worst per-source Monte-Carlo error estimate
    mc_std_err: float
    analytic_error_bound: float
    implied_lower_bound: float   # ln(M/2), contingent on error <= 1/2
    formula_lower_bound: float   # closed-form comparison value
    informative: bool


def hard_class_certificate(family, codebook, trials=10_000, seed=0, d=None):
    """Monte-Carlo certificate for the hard Lipschitz construction.

    Verifies the codebook distance, estimates the misidentification error
    of the all-zeros discriminator, and reports the implied ln(M/2) lower
    bound next to the analytic error bound M^2 * exp(-alpha*T/8).  The
    closed-form comparison uses the family's own dimension, radius and
    Lipschitz constant; `d`, when given, must equal that dimension.

    Each source's `trials // M` samples are drawn in row blocks of about
    `_DRAW_BLOCK_ELEMENTS` values into one reused buffer, in the order of
    one dense (trials // M, T) uniform draw, so memory is O(M^2 + M*T) plus
    that block whatever `trials` is.  Raises ValueError for trials < 1.

    Sources src and o are told apart by the all-zeros test on the larger of
    {src 0, o positive} and {o 0, src positive}, ties to the first.  src's
    samples are 0 wherever its table is, so src can lose only a test read
    on the second set (N[o, src] > N[src, o]), when it drew no 1 there.
    """
    if trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    ball = family.ball
    if d is not None and d != ball.dimension:
        raise ValueError(f"d={d} does not match the family's dimension {ball.dimension}")
    table = family.table
    M, T = table.shape
    if codebook.vectors.shape != (M, T) or not np.array_equal(
            (codebook.vectors > 0), (table > 0)):
        raise ValueError("codebook does not match the family's value table")
    alpha = float(table.max())
    min_h = codebook.min_hamming
    if min_h < T / 4.0:
        raise ValueError("codebook violates the T/4 distance requirement")
    N = _zero_positive_counts(table)
    risky, zeros = N.T > N, (table == 0).T  # risky[src, o]: N[o, src] > N[src, o]

    rng = np.random.default_rng(seed)
    worst_err = 0.0
    per_source = max(1, trials // M)
    rows = max(1, min(per_source, _DRAW_BLOCK_ELEMENTS // max(T, 1)))
    draws = np.empty((rows, T))
    for src in range(M):
        test = zeros[:, risky[src]]
        lost = 0
        for start in range(0, per_source, rows):
            block = draws[:min(rows, per_source - start)]
            rng.random(out=block)  # the stream of rng.uniform, bit for bit
            samples = block < table[src]  # Bernoulli per coordinate
            lost += len(block) - int((samples @ test).all(axis=1).sum())  # bool @: no float copy
        worst_err = max(worst_err, lost / per_source)
    std_err = math.sqrt(max(worst_err * (1 - worst_err), 1.0 / per_source) / per_source)

    analytic = M ** 2 * math.exp(-alpha * T / 8.0)
    implied = math.log(M / 2.0)
    formula = lipschitz_lower(T, ball.dimension, ball.radius, family.lipschitz)
    return HardClassReport(
        n_sources=M,
        min_hamming=min_h,
        hamming_threshold=T / 4.0,
        mc_error=worst_err,
        mc_std_err=std_err,
        analytic_error_bound=analytic,
        implied_lower_bound=implied,
        formula_lower_bound=formula,
        informative=(M > 2 and min(worst_err, analytic) <= 0.5),
    )
