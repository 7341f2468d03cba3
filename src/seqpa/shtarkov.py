"""Exact minimax lower-bound machinery.

Shtarkov sums by full enumeration (small horizons) or binomial grouping
(exchangeable families, large horizons), game values by backward
induction, the source-identification bound, and the block-design and
power-constrained lower-bound constructions.  `label_tree_fold` walks all
2^T label sequences.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .bounds import lipschitz_lower, power_family_lower
from .experts import (_zero_positive_counts, best_in_hindsight, ds_project, lattice_blocks,
                      log_likelihoods, prediction_matrix)
from .losses import as_label, log_sum_exp

ENUMERATION_CAP = 22
LEAF_BLOCK_BITS = 14  # label_tree_fold builds 2^14 leaves per row at a time
# Largest label_tree_fold working array, in float64 elements: 2^26 is 512 MiB.
# A fold holds about three such arrays at once (the last label level, the next
# one and a temporary of the reduce), about 1.5 GiB, well inside an 8 GiB machine.
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
        labels = list(labels)
        return float(self.log_sup_by_count(sum(labels), len(labels)))


class IntervalBernoulli(ExchangeableOracle):
    """Constant-probability experts restricted to [lo, hi]: clamped MLE."""

    def __init__(self, lo, hi):
        if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
            raise ValueError("interval must sit inside [0, 1]")
        if lo > hi:
            raise ValueError(f"interval lo={lo} is above hi={hi}")
        self.lo, self.hi = float(lo), float(hi)

    def log_sup_by_count(self, k, n):
        """k*ln(w) + (n-k)*ln(1-w) at the clamped MLE w, with the 0*ln(0) := 0
        convention."""
        k = np.asarray(k, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 at n = 0
            w = np.clip(k / n, self.lo, self.hi)
            a = np.where(k == 0, 0.0, k * np.log(w))
            b = np.where(k == n, 0.0, (n - k) * np.log1p(-w))
        return a + b


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


def shtarkov_sum(oracle, T):
    """ln S_T = ln sum over label sequences of the family's sup probability.

    Exchangeable oracles are grouped by the number of ones and run to very
    large T; generic oracles enumerate all 2^T sequences (T <= 22).
    Raises ValueError for a T that is negative or not integral; an
    integral float or numpy integer T is taken as the int it equals.
    """
    if not (T >= 0 and float(T).is_integer()):
        raise ValueError(f"T must be a nonnegative integer, got {T}")
    T = int(T)
    if isinstance(oracle, ExchangeableOracle):
        k = np.arange(T + 1)
        return log_sum_exp(_log_binom(T, k) + oracle.log_sup_by_count(k, T))
    return minimax_value(oracle, T).root


# ---------------------------------------------------------------------------
# Game values by backward induction


@dataclass
class GameValueTable:
    """Backward-induction values over all label prefixes.

    `levels[t]` holds one value per prefix of length t, indexed by the
    prefix read as a binary number (first label most significant).  Every
    internal value is the log-sum-exp of its two children; leaves are the
    family's log sup probabilities; the root equals ln S_T.
    """

    levels: list
    horizon: int

    @property
    def root(self):
        return float(self.levels[0][0])

    def value(self, label_prefix):
        # kept for the label_tree benchmark's leaf check and the NML test reference
        idx = 0
        for y in label_prefix:
            idx = idx * 2 + int(y)
        return float(self.levels[len(label_prefix)][idx])


def label_tree_fold(a0, a1, reduce):
    """Fold per-step contributions over all 2^T label sequences.

    `a0`, `a1` are (n, T): row i's term at step t for y_t = 0 or 1.  Entry j
    of the result is reduce(row sums, axis=0) along the sequence whose
    binary expansion is j (y_1 most significant), summed left to right in
    t.  Blocks of 2^LEAF_BLOCK_BITS leaves per row share a label prefix, so
    memory does not grow with n * 2^T: a block's working array holds
    n * 2^min(T, LEAF_BLOCK_BITS) float64 values, and a fold whose block (or
    2^T output) is over FOLD_ELEMENT_CAP raises ValueError before it allocates.

    Layout rule: no inner axis of length 2.  Each label step writes both
    children of the (n, m) row-by-prefix sums with two full-length adds into
    an (n, m, 2) array, read as (n, 2m).  A broadcast into a trailing axis
    of length 2 makes numpy run its inner loop once per two elements,
    several times slower for the same additions in the same order.
    """
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    n, T = a0.shape
    # a block's levels and, for T > 2 * LEAF_BLOCK_BITS, the output are the largest
    block = max(n * 2 ** min(T, LEAF_BLOCK_BITS), 2 ** T)
    if block > FOLD_ELEMENT_CAP:
        raise ValueError(f"label_tree_fold of n={n} rows at T={T} needs {8 * block} bytes "
                         f"per working array, over the {8 * FOLD_ELEMENT_CAP}-byte cap")

    def extend(acc, steps):
        for t in steps:
            children = np.empty((n, acc.shape[1], 2))
            np.add(acc, a0[:, t, None], out=children[:, :, 0])
            np.add(acc, a1[:, t, None], out=children[:, :, 1])
            acc = children.reshape(n, -1)
        return acc

    head = max(T - LEAF_BLOCK_BITS, 0)
    prefixes = extend(np.zeros((n, 1)), range(head))
    out = np.empty((prefixes.shape[1], 2 ** (T - head)))
    for p, prefix in enumerate(prefixes.T):
        out[p] = reduce(extend(prefix[:, None], range(head, T)), axis=0)
    return out.ravel()


def leaf_log_sups(oracle, T):
    """ln sup probability of every label sequence, indexed like `GameValueTable`
    leaves: for a `FiniteMaxOracle`, a max-fold of a finite family's log
    likelihoods (bit-identical to `log_sup`) or one batched logistic
    `best_in_hindsight` solve (certified, within `CERTIFIED_GAP`); for an
    exchangeable oracle, `log_sup_by_count` at each leaf's count of ones."""
    if isinstance(oracle, FiniteMaxOracle):
        features = oracle.features[:T]
        if len(features) < T:
            raise ValueError(f"T={T} labels but only {len(features)} feature rows")
        if hasattr(oracle.family, "n_experts"):
            P = prediction_matrix(oracle.family, features)
            return label_tree_fold(*log_likelihoods(P), np.max)
        # row j holds the binary expansion of j, the label_tree_fold leaf order
        labels = (np.arange(2 ** T)[:, None] >> np.arange(T - 1, -1, -1)) & 1
        return -best_in_hindsight(oracle.family, features, labels.astype(np.uint8))[1]
    if not isinstance(oracle, ExchangeableOracle):
        raise TypeError(f"no label-tree leaves for oracle {oracle!r}")
    counts = np.bitwise_count(np.arange(2 ** T))
    return np.asarray(oracle.log_sup_by_count(np.arange(T + 1), T), dtype=float)[counts]


def minimax_value(oracle, T):
    """Exact fixed-design game values over the `leaf_log_sups` leaves of a
    `FiniteMaxOracle` or an exchangeable oracle; the root realizes ln S_T."""
    if T > ENUMERATION_CAP:
        raise ValueError(f"T={T} exceeds the enumeration cap {ENUMERATION_CAP}")
    levels = [leaf_log_sups(oracle, T)]
    for _ in range(T):
        cur = levels[-1]
        levels.append(np.logaddexp(cur[0::2], cur[1::2]))
    levels.reverse()
    return GameValueTable(levels, T)


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


def block_design_features(d, T):
    """Features in d blocks: block i repeats the i-th standard basis vector.

    T is trimmed down to d * floor(T/d); returns (T_trimmed, features).
    """
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    if d > T:
        raise ValueError(f"d={d} exceeds T={T}")
    n = T // d
    Tt = d * n
    feats = np.zeros((Tt, d))
    for i in range(d):
        feats[i * n:(i + 1) * n, i] = 1.0
    return Tt, feats


def block_shtarkov_lower(d, T, link, s):
    """Certified lower bound on ln S_T for a generalized linear family
    over the block feature design: d times the per-block restricted sum.

    Rejects d below 1 and links whose interval containment fails at this d.
    """
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    r = 1.0 / float(s)
    if not link.interval_containment_ok(d, r):
        raise ValueError(f"link {link.name} fails interval containment at d={d}, r={r}")
    n = T // d
    if n < 1 or n > 10 ** 5:
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
