"""Hypothesis families.

Families come in two flavors.  Finite families expose ``n_experts`` and
``all_predictions(t, x)``: the vector of every expert's prediction at
0-based step t with current feature x (this is what the mixture
predictors iterate over); a sequential one, whose predictions depend on
the feature prefix, is read from t = 0, in order.  The one parametric
family, ``ParametricFamily``, is the logistic one, held as data: a ball and
a Lipschitz constant.  Its covers and grids are ``FiniteParamFamily``s, which
hold parameters only and evaluate the one link ``LOGISTIC`` themselves.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .losses import _as_labels

MEMBERSHIP_SLACK = 1e-12
# lattice_blocks walks axis^d in blocks of whole slowest-coordinate slices,
# about 2^14 points (d * 128 KiB) each
_LATTICE_BLOCK_POINTS = 2 ** 14


def _lp_norms(W, s):
    """Row-wise l_s norms of an (n, d) array (s = inf allowed)."""
    A = np.abs(W)
    return A.max(axis=1) if math.isinf(s) else (A ** s).sum(axis=1) ** (1.0 / s)


def lattice_blocks(axis, d):
    """The points of axis^d in meshgrid 'ij' order, as C-order (rows, d) blocks of
    whole slowest-coordinate slices: about `_LATTICE_BLOCK_POINTS` rows, at least
    one slice.  Each block is a view of one reused buffer."""
    slice_points = len(axis) ** (d - 1)
    heads = max(1, _LATTICE_BLOCK_POINTS // slice_points)
    block = np.empty((heads, slice_points, d))
    for c, tail in enumerate(np.meshgrid(*([axis] * (d - 1)), indexing="ij"), start=1):
        block[:, :, c] = tail.ravel()  # the tail lattice, shared by every block
    for start in range(0, len(axis), heads):
        head = axis[start:start + heads]
        block[:len(head), :, 0] = head[:, None]
        yield block[:len(head)].reshape(-1, d)


def ball_lattice(axis, d, s, bound):
    """Points of axis^d, in meshgrid 'ij' order, whose l_s norm is at most bound.

    Returns an (n, d) column-major array, the layout `FiniteParamFamily`
    keeps.  The norms are taken over `lattice_blocks`, and the kept points
    are filled column by column, so memory is the result plus two bools per
    lattice point plus one block.
    """
    axis = np.asarray(axis, dtype=float)
    keep = np.concatenate([_lp_norms(block, s) <= bound for block in lattice_blocks(axis, d)])
    keep = keep.reshape((len(axis),) * d)
    W = np.empty((np.count_nonzero(keep), d), order="F")
    for c in range(d):
        # axis along lattice dimension c, broadcast over the others
        W[:, c] = np.broadcast_to(axis.reshape((-1,) + (1,) * (d - 1 - c)), keep.shape)[keep]
    return W


@dataclass(frozen=True)
class ParamBall:
    """Ball of radius R under the l_s norm in R^d (s = inf allowed)."""

    dimension: int
    radius: float
    norm_order: float = 2.0

    def __post_init__(self):
        if not (isinstance(self.dimension, (int, np.integer)) and self.dimension >= 1):
            raise ValueError(f"ball dimension must be a positive integer, got {self.dimension!r}")
        if self.radius <= 0 or self.norm_order < 1:
            raise ValueError(f"invalid ball {self!r}")

    def norm(self, w):
        return float(_lp_norms(np.atleast_2d(np.asarray(w, dtype=float)), self.norm_order)[0])

    def contains(self, w):
        return self.norm(w) <= self.radius + MEMBERSHIP_SLACK


class _LogisticLink:
    """The logistic link sigma(z) = 1 / (1 + exp(-z)) on numpy's vectorized
    exp, overflow silenced.

    Agrees with scipy.special.expit to a few ulp, and like it is exactly 0
    below z = -709.78, where exp(-z) overflows.  A scalar z gives a numpy
    float; an array z gives a new array, computed in one buffer; z is never
    written.  `c1`, `c2` describe the interval-surjectivity property used by
    the block-design lower bound: [c1 - c2*d^-r, c1 + c2*d^-r] must sit
    inside the image of [-d^-r, d^-r].  `interval_containment_ok` checks
    that numerically for a concrete d and r rather than assuming it.
    """

    name = "logistic"
    c1 = 0.5
    c2 = 0.2

    def __call__(self, z):
        e = np.array(z, dtype=float)  # a copy, so z is never written
        np.negative(e, out=e)
        return _logistic_of_negated(e)[()]

    def interval_containment_ok(self, d, r):
        h = d ** (-float(r))
        lo, hi = self.c1 - self.c2 * h, self.c1 + self.c2 * h
        if not (0.0 < lo < hi < 1.0):
            return False
        # monotone link: image of [-h, h] is [sigma(-h), sigma(h)]
        return float(self(-h)) <= lo and float(self(h)) >= hi


def _logistic_of_negated(e):
    """The logistic link of z, given e = -z as a float array that it
    overwrites with the result: 1 / (1 + exp(e)), all in e's buffer."""
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    e += 1.0
    return np.reciprocal(e, out=e)


LOGISTIC = _LogisticLink()


def feature_key(x):
    """The hashable key a finite family looks a feature vector up by: its
    coordinates as a tuple of floats (a scalar counts as one coordinate)."""
    return tuple(np.atleast_1d(np.asarray(x, dtype=float)).tolist())


def feature_column(index, x):
    """The column `index` (a feature_key -> column dict) gives feature `x`;
    a KeyError naming `x` if the finite feature set lacks it."""
    try:
        return index[feature_key(x)]
    except KeyError:
        raise KeyError(f"feature {x!r} is not in this family's finite feature set") from None


def _validate_table(table):
    table = np.asarray(table, dtype=float)
    if table.ndim != 2:
        raise ValueError("expert table must be 2-D (experts x features)")
    if table.size and (np.isnan(table).any() or table.min() < 0 or table.max() > 1):
        raise ValueError("expert table entries must lie in [0, 1]")
    return table


class FiniteStaticFamily:
    """Finite set of static experts given by a value table.

    `feature_keys` maps hashable feature encodings (tuples) to table
    columns.  With `feature_keys=None` the family is a set of constants
    and ignores features entirely.
    """

    def __init__(self, table, feature_keys=None):
        self.table = _validate_table(table)
        if feature_keys is None:
            if self.table.shape[1] != 1:
                raise ValueError("constant family needs a single-column table")
            self.feature_keys = None
            self._index = None
        else:
            keys = [feature_key(k) for k in feature_keys]
            if len(keys) != self.table.shape[1]:
                raise ValueError("feature_keys length must match table columns")
            self.feature_keys = keys
            self._index = {k: j for j, k in enumerate(keys)}

    @property
    def n_experts(self):
        return self.table.shape[0]

    def all_predictions(self, t, x):
        return self.table[:, 0 if self._index is None else feature_column(self._index, x)]


@dataclass
class ParametricFamily:
    """The logistic family x -> sigma(<w, x>) over a parameter ball, L-Lipschitz in w."""

    ball: ParamBall
    lipschitz: float


def glm_family(d=1, R=1.0, s=2.0, lipschitz=1.0):
    """Logistic family x -> sigma(<w, x>) over the l_s ball of radius R in R^d.

    The default Lipschitz constant assumes features with norm at most 1 (the
    logistic slope is at most 1/4); pass `lipschitz` otherwise.
    """
    return ParametricFamily(ParamBall(d, R, s), lipschitz)


class FiniteParamFamily:
    """The logistic family restricted to a finite parameter set (a cover grid).

    `params` is held as an (n, d) array in column-major order, so the
    product `params @ x` of every step streams down each column once.  The
    values and their C-order bytes are those passed in; a row-major input
    is copied once, and the family keeps only the copy.
    """

    def __init__(self, params):
        self.params = np.asfortranarray(np.atleast_2d(np.asarray(params, dtype=float)))

    @property
    def n_experts(self):
        return self.params.shape[0]

    def all_predictions(self, t, x):
        # the link's contract keeps these in [0, 1]; no clip pass.  W @ -x is
        # -(W @ x) bit for bit: one buffer a call
        return _logistic_of_negated(self.params @ -np.asarray(x, dtype=float))


class DsFamily:
    """Label-probability vectors p with sum_t p_t^s <= 1, evaluated by time index.

    The prediction of member p at 0-based step t is p[t]; features are ignored.
    """

    def __init__(self, vectors, s):
        self.vectors = _validate_table(vectors)
        self.s = float(s)
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if np.any(_power_mass(self.vectors, self.s) > 1.0 + 1e-9):
            raise ValueError("member violates the power-mass constraint")

    @property
    def n_experts(self):
        return self.vectors.shape[0]

    def all_predictions(self, t, x):
        return self.vectors[:, t]


def _power_mass(p, s):
    """sum_t p_t^s along the last axis (max_t p_t for s = inf) of entries in [0, 1]."""
    return p.max(axis=-1, keepdims=True) if math.isinf(s) else (p ** s).sum(axis=-1, keepdims=True)


def ds_project(p, s):
    """Rescale p (or each row of a 2-D p) into the feasible set {sum p_t^s <= 1};
    no-op where already inside."""
    p = np.asarray(p, dtype=float)
    if p.size and (p.min() < 0 or p.max() > 1):
        raise ValueError("entries must lie in [0, 1]")
    return p * np.maximum(_power_mass(p, float(s)), 1.0) ** (-1.0 / float(s))


# ---------------------------------------------------------------------------
# Best in hindsight


def prediction_matrix(family, features):
    """(n_experts, T) predictions of a finite family along a feature sequence."""
    cols = [np.asarray(family.all_predictions(t, x), dtype=float) for t, x in enumerate(features)]
    return np.stack(cols, axis=1) if cols else np.empty((family.n_experts, 0))


def log_likelihoods(P):
    """(ln(1 - P), ln P) of predictions P, such as a design's distinct columns:
    each expert's log probability of label 0 and of label 1 (-inf where zero)."""
    with np.errstate(divide="ignore"):
        return np.log1p(-P), np.log(P)


def distinct_columns(vectors, n):
    """The distinct vectors of a sequence as (n, m) columns, in order of first
    appearance, and each step's group: (columns, group).

    `vectors` yields each step's length-n vector once, in order: a finite
    family's `all_predictions(t, x)` from t = 0, or the logistic family's
    feature rows.  Equality is bit for bit: a vector's bytes are hashed, then
    compared with each kept column of that hash.  A new column is a copy, so a
    reused buffer never aliases it; memory is O(n m + T) whatever T is."""
    columns, group, firsts = [], [], {}  # firsts: hash -> the columns with that hash
    for v in vectors:
        v = np.asarray(v, dtype=float)
        key = v.tobytes()
        bucket = firsts.setdefault(hash(key), [])
        a = next((a for a in bucket if columns[a].tobytes() == key), len(columns))
        if a == len(columns):
            bucket.append(a)
            columns.append(v.copy())
        group.append(a)
    return (np.stack(columns, axis=1) if columns else np.empty((n, 0)),
            np.array(group, dtype=np.intp))


def count_log_likelihoods(a0, a1, N):
    """The log likelihoods (a0, a1) = `log_likelihoods(columns)` of a
    design's distinct prediction columns (`distinct_columns`), column a
    predicting at N[a] steps, summed per column: terms.

    For a column of N steps that predict p, terms[a] is the (n, N + 1) table
    of every row's log probability of k ones among them,
    k ln p + (N - k) ln(1 - p).  At k = 0 and k = N the log whose count is 0
    is zeroed before its product, so 0 * (-inf) never arises and those
    entries are N ln(1 - p) and N ln p; at N = 1 the table is
    (ln(1 - p), ln p) itself.
    """
    # every column's table side by side: entry j holds k[j] ones among the
    # N[j] steps of column col[j]
    sizes = np.asarray(N, dtype=np.intp)
    ends = np.cumsum(sizes + 1)
    col = np.repeat(np.arange(len(sizes)), sizes + 1)
    N = np.repeat(sizes, sizes + 1)
    k = np.arange(len(col)) - np.repeat(ends - sizes - 1, sizes + 1)
    table = (k * np.where(k == 0, 0.0, a1[:, col])
             + (N - k) * np.where(k == N, 0.0, a0[:, col]))
    return np.split(table, ends[:-1], axis=1)[:len(sizes)]


def best_in_hindsight(family, features, labels):
    """Best loss in hindsight: exact for finite families, certified for the
    logistic family on an l2 ball.

    `labels` is one label sequence, or an (S, T) array of S sequences that
    are solved together.  Returns (params, loss): the expert index and its
    loss for a finite family; for a parametric family a feasible parameter
    w and a certified lower bound f(w) - gap on the infimum of the
    cumulative log loss f over the ball (see `_best_logistic`), so regret
    computed against it never understates the true regret.  For an (S, T)
    array both come back with a leading axis of length S.  The first T
    feature rows are used; fewer than T raise ValueError, as does a label
    other than 0 or 1.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    labels = _as_labels(labels)
    if labels.size == 0 and labels.ndim == 1:
        return None, 0.0
    Y = np.atleast_2d(labels)
    if Y.shape[1] > len(features):
        raise ValueError(f"{Y.shape[1]} labels but only {len(features)} feature rows")
    if hasattr(family, "n_experts"):
        # counts[a, s]: sequence s's ones at distinct column a; total[s, i]:
        # expert i's log probability of sequence s, summed over the groups in
        # order, as `count_fold` sums it
        columns, group = distinct_columns((family.all_predictions(t, x) for t, x in
                                           enumerate(features[:Y.shape[1]])), family.n_experts)
        terms = count_log_likelihoods(*log_likelihoods(columns), np.bincount(group))
        counts = np.zeros((len(terms), Y.shape[0]), dtype=np.intp)
        np.add.at(counts, group, Y.T.astype(np.intp))
        total = np.zeros((Y.shape[0], family.n_experts))
        for term, k in zip(terms, counts):
            total += term.T[k]
        params = np.argmax(total, axis=1)
        best = -total[np.arange(len(params)), params]
        return (int(params[0]), float(best[0])) if labels.ndim == 1 else (params, best)
    R = _logistic_radius(family)
    X = features[:Y.shape[1]]
    N = np.ones(len(X))
    blocks = [_best_logistic(X, N, Y[i:i + ROW_BLOCK].astype(float), R)
              for i in range(0, len(Y), ROW_BLOCK)]
    W, best = (np.concatenate(part) for part in zip(*blocks))
    return (W[0], float(best[0])) if labels.ndim == 1 else (W, best)


def _logistic_radius(family):
    """The radius of the logistic family's l2 parameter ball, the one
    parametric family the hindsight solver takes; TypeError for another
    family and ValueError for another ball."""
    if not isinstance(family, ParametricFamily):
        raise TypeError("the hindsight solver needs a finite family or the logistic "
                        f"ParametricFamily of glm_family, got {type(family).__name__}")
    if family.ball.norm_order != 2:
        raise ValueError("the hindsight solver needs an l2 parameter ball, got "
                         f"norm order {family.ball.norm_order}")
    return family.ball.radius


# Label rows or count tuples solved together (bounds the solver's memory), Newton
# iterations before the certificate is checked, the gap below which a solve
# stops early, and the gap above which it fails.
ROW_BLOCK = 2 ** 14
NEWTON_ITERS = 50
NEWTON_STOP_GAP = 1e-12
CERTIFIED_GAP = 1e-9


def _logistic_loss(X, N, K, W):
    """Row-wise sum_j K_j softplus(-z_j) + (N_j - K_j) softplus(z_j), z_j = <w, x_j>:
    -ln P_w of a label sequence with K_j ones among the N_j steps of row j.
    At N = 1 each term is softplus(-(2 y - 1) z) bit for bit, one product by
    1 and one by 0 (of a finite softplus) being exact."""
    z = W @ X.T
    loss = np.logaddexp(0.0, -z) * K
    loss += np.logaddexp(0.0, z, out=z) * (N - K)
    return loss.sum(axis=1)


def _ball_newton_point(w, g, H, R):
    """Row-wise minimizer over ||v|| <= R of the model g.(v - w) + (v - w)'H(v - w)/2.

    In H's eigenbasis v(lam) = -(Lam + lam)^-1 Q'(g - H w).  lam = 0 when
    that point is inside the ball; otherwise lam solves ||v(lam)|| = R,
    found by Newton's method on 1/||v(lam)|| - 1/R, which is concave and
    increasing, so the iterates climb to the root from lam = 0 without
    overshooting (More and Sorensen 1983).  Eigenvalues at rounding level
    are lifted to a floor: f is flat along those directions.
    """
    lam_h, Q = np.linalg.eigh(H)
    lam_h = np.maximum(lam_h, 1e-14 * lam_h[:, -1:] + 1e-300)
    a = np.einsum("sji,sj->si", Q, g - np.einsum("sij,sj->si", H, w))
    lam = np.zeros(len(w))
    for _ in range(NEWTON_ITERS):
        inv = 1.0 / (lam_h + lam[:, None])
        norm = np.sqrt(((a * inv) ** 2).sum(axis=1))
        todo = norm > R * (1.0 + 1e-12)
        if not todo.any():
            break
        slope = ((a ** 2) * inv ** 3).sum(axis=1) / norm ** 3
        lam = np.where(todo, lam + (1.0 / R - 1.0 / norm) / slope, lam)
    v = np.einsum("sij,sj->si", Q, -a / (lam_h + lam[:, None]))
    return v * np.minimum(1.0, R / np.linalg.norm(v, axis=1))[:, None]


def _best_logistic(X, N, K, R):
    """Projected Newton for the logistic log loss f over {||w||_2 <= R}, row-wise.

    X (m, d) holds distinct feature rows, N (m,) the steps at each and row s
    of K (S, m) the ones among them, so f is `_logistic_loss`, its gradient
    (N P - K) X and its Hessian X' diag(N P (1 - P)) X, P the logistic link
    of X w.  `best_in_hindsight` passes N = 1 and K = the label rows;
    `leaf_log_sups` one K row per count tuple of a design's distinct rows.

    Each step moves toward the minimizer of f's quadratic model over the
    ball (`_ball_newton_point`), halving the step until the Armijo rule
    holds; once the predicted decrease is below rounding the full step is
    taken and the row stops.  f is convex, so for every w
    f(w*) >= f(w) + <grad f(w), w* - w> >= f(w) - gap(w), with the
    Frank-Wolfe gap gap(w) = <grad f(w), w> + R ||grad f(w)||; the bound
    f(w) - gap(w) is returned.  Raises RuntimeError if a gap stays above
    CERTIFIED_GAP.
    """
    S = K.shape[0]
    W = np.zeros((S, X.shape[1]))
    f = _logistic_loss(X, N, K, W)
    gap = np.empty(S)
    done = np.zeros(S, dtype=bool)
    active = np.arange(S)
    for it in range(NEWTON_ITERS + 1):
        w, k = W[active], K[active]
        P = LOGISTIC(w @ X.T)
        g = (N * P - k) @ X
        gap[active] = np.maximum((g * w).sum(axis=1) + R * np.linalg.norm(g, axis=1), 0.0)
        keep = (gap[active] > NEWTON_STOP_GAP) & ~done[active]
        active, w, k, g, P = active[keep], w[keep], k[keep], g[keep], P[keep]
        if not len(active) or it == NEWTON_ITERS:
            break
        H = np.einsum("st,ti,tj->sij", N * P * (1.0 - P), X, X)
        step = _ball_newton_point(w, g, H, R) - w
        slope = (g * step).sum(axis=1)
        f0 = f[active]
        final = -slope <= 1e-13 * (1.0 + np.abs(f0))
        t = np.ones(len(active))
        moved = np.zeros(len(active), dtype=bool)
        for _ in range(40):
            trial = w + t[:, None] * step
            ft = _logistic_loss(X, N, k, trial)
            ok = ~moved & (final | ((ft < f0) & (ft <= f0 + 1e-4 * t * slope)))
            W[active[ok]], f[active[ok]] = trial[ok], ft[ok]
            moved |= ok
            if moved.all():
                break
            t = np.where(moved, t, 0.5 * t)
        # a row that took its final step, or whose step cannot lower f, is done
        done[active[final | ~moved]] = True
    if np.any(gap > CERTIFIED_GAP):
        raise RuntimeError(f"hindsight solver stopped with certificate gap {gap.max():.3g} "
                           f"> {CERTIFIED_GAP:g} after {NEWTON_ITERS} Newton steps")
    return W, f - gap


# ---------------------------------------------------------------------------
# Hard Lipschitz construction


@dataclass
class CodeBook:
    """Binary code vectors and their minimum pairwise Hamming distance,
    computed from the vectors."""

    vectors: np.ndarray  # (M, T) uint8
    min_hamming: int = field(init=False)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.uint8)
        self.min_hamming = _min_pairwise_hamming(self.vectors)


def _zero_positive_counts(table):
    """(M, M) counts N: N[a, b] is the number of columns where row a is 0
    and row b is positive (exact in float64 up to 2^53 columns)."""
    return (table == 0).astype(float) @ (table > 0).astype(float).T


def _min_pairwise_hamming(vectors):
    """Least Hamming distance N[a, b] + N[b, a] between two rows of a 0/1
    matrix; the row length when there are fewer than two rows."""
    N = _zero_positive_counts(vectors)
    D = N + N.T
    np.fill_diagonal(D, vectors.shape[1])
    return int(D.min(initial=vectors.shape[1]))


class HardLipschitzFamily:
    """Expert family taking values {0, alpha} on T designated features.

    At a packing point the family reads its own code row; at any other
    parameter the value is the tight Lipschitz extension
    sup_{w'} {f(w', x_t) - L * ||w - w'||_2}, clipped at 0.  Features off
    the designated list evaluate to 0.
    """

    def __init__(self, packing, table, features, lipschitz, ball):
        self.packing = np.atleast_2d(np.asarray(packing, dtype=float))
        self.table = _validate_table(table)
        self.features = np.atleast_2d(np.asarray(features, dtype=float))
        self.lipschitz = float(lipschitz)
        self.ball = ball
        self._feature_index = {feature_key(x): t for t, x in enumerate(self.features)}

    @property
    def n_experts(self):
        return self.packing.shape[0]

    def _time_of(self, x):
        return self._feature_index.get(feature_key(x))

    def all_predictions(self, t, x):
        col = self._time_of(x)
        if col is None:
            return np.zeros(self.n_experts)
        return self.table[:, col]

    def eval_extended(self, w, x):
        """Value at an arbitrary parameter via the sup-minus-distance extension."""
        t = self._time_of(x)
        if t is None:
            return 0.0
        w = np.asarray(w, dtype=float)
        dists = np.linalg.norm(self.packing - w, axis=1)
        return float(max(0.0, (self.table[:, t] - self.lipschitz * dists).max()))


def _lattice_packing(d, R, separation, count):
    """First `count` points of an integer lattice (spacing = separation) in B_2^d(R)."""
    per_axis = np.arange(-math.floor(R / separation), math.floor(R / separation) + 1) * separation
    W = np.ascontiguousarray(ball_lattice(per_axis, d, 2.0, R + MEMBERSHIP_SLACK))
    # per-row dot products over contiguous rows round like np.linalg.norm of
    # each point, so equal-norm ties break on the coordinates exactly as a
    # (norm, tuple) key
    norms = np.sqrt((W[:, None, :] @ W[:, :, None])[:, 0, 0])
    if len(W) < count:
        raise ValueError(f"lattice packing of B_2^{d}({R}) at separation {separation} "
                         f"has only {len(W)} points, need {count}")
    return W[np.lexsort((*W.T[::-1], norms))[:count]]


HARD_CLASS_RETRIES = 10_000


def build_hard_lipschitz_class(d, T, R, L, alpha, seed):
    """Construct the hard Lipschitz family together with its codebook.

    Draws M = floor((L*R/(2*alpha))^d) binary code vectors by rejection
    until all pairwise Hamming distances reach T/4, pairs them with a
    lattice packing of the parameter ball at separation alpha/L, and
    assigns values 0/alpha along T designated features.
    """
    M = int((L * R / (2.0 * alpha)) ** d)
    if M < 2:
        raise ValueError(f"need at least 2 code vectors, got M={M} "
                         f"(increase R*L or decrease alpha)")
    rng = np.random.default_rng(seed)
    threshold = T / 4.0
    vectors = np.empty((M, T), dtype=np.uint8)
    n = rejections = 0
    while n < M:
        cand = rng.integers(0, 2, size=T).astype(np.uint8)
        if np.all(np.count_nonzero(vectors[:n] != cand, axis=1) >= threshold):
            vectors[n] = cand
            n += 1
        else:
            rejections += 1
            if rejections > HARD_CLASS_RETRIES:
                raise RuntimeError(f"rejection sampling failed for (M={M}, T={T}) "
                                   f"after {HARD_CLASS_RETRIES} rejections")
    codebook = CodeBook(vectors)

    packing = _lattice_packing(d, R, alpha / L, M)
    table = vectors.astype(float) * alpha
    # designated features: distinct points on the first axis
    features = np.zeros((T, d))
    features[:, 0] = (np.arange(T) + 1.0) / (T + 1.0)
    family = HardLipschitzFamily(packing, table, features, L, ParamBall(d, R, 2.0))
    return family, codebook
