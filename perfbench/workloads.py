"""The three benchmark workloads.

Each workload builds its inputs from the seed in its constructor, runs a
small untimed warm-up, lists the tasks of one timed pass, and checks the
outputs of a pass.  Every call into seqpa goes through a module attribute
(`shtarkov.minimax_value`, not an imported name), so the tracer's rebinding
sees it.  README.md says why each workload was chosen.
"""

import hashlib
import io
import itertools
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from scipy.special import logsumexp

from seqpa import bounds, cli, covering, experts, harness, losses, predictors, shtarkov

TOL = 1e-9


def _close(a, b, tol=TOL):
    return a == b or abs(a - b) <= tol


class RegretMatrix:
    """The bench matrix through `seqpa bench`: covers, the mixture loop, hindsight."""

    name = "regret_matrix"

    def __init__(self, seed, tiny, out_dir):
        self.out_dir = out_dir
        # tiny drops d=2: its hindsight grid costs about 0.5 s a cell at any T
        horizons, dims = ("8, 16", "1") if tiny else ("128, 512", "1, 2")
        self.config = out_dir / "bench.cfg"
        self.config.write_text(
            "[grid]\nfamily = logistic\nalgorithm = smooth_bayes, continuous_bayes\n"
            f"T = {horizons}\nd = {dims}\nR = 1.0\nL = 1.0\nalpha = auto\n"
            f"adversary = greedy, iid:0.5\nfeatures = ball\nseed = {seed}\n")
        self.n_cells = len(harness.parse_bench_config(self.config))
        # the first d=2 cell in a process pays for page faults on the
        # hindsight grid; the warm-up cell takes that cost out of the timing
        self.warm_config = out_dir / "warm.cfg"
        self.warm_config.write_text(
            "[grid]\nfamily = logistic\nalgorithm = smooth_bayes\nT = 32\nd = 2\n"
            f"adversary = greedy\nseed = {seed}\n")
        self.first_digest = None

    def _bench(self, config, out):
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            rc = cli.main(["bench", "--config", str(config), "--out", str(out)])
        return rc, out / "summary.csv"

    def warm_up(self):
        self._bench(self.warm_config, self.out_dir / "warm")

    def tasks(self, pass_index):
        return [("bench", lambda: self._bench(self.config, self.out_dir / f"pass{pass_index}"))]

    def check(self, results):
        rc, summary = results["bench"]
        blob = summary.read_bytes()
        digest = hashlib.sha256(blob).hexdigest()
        rows = [line.split(",") for line in blob.decode().splitlines()[2:]]
        checks = [("bench exit code 0", rc == 0, f"rc={rc}"),
                  ("bench row count", len(rows) == self.n_cells,
                   f"{len(rows)} rows, summary.csv sha256 {digest}")]
        checks += [(f"row {row[0]} ok", row[-1] == "1", ",".join(row)) for row in rows]
        if self.first_digest is None:
            self.first_digest = digest
        else:
            checks.append(("summary.csv identical across passes",
                           digest == self.first_digest, f"sha256 {digest}"))
        return checks


class LabelTree:
    """Exhaustive work over all 2^T label sequences."""

    name = "label_tree"

    def __init__(self, seed, tiny, out_dir):
        rng = np.random.default_rng(seed)
        self.T_finite = 10 if tiny else 20
        self.T_generic = 8 if tiny else 16
        self.T_nml = 8 if tiny else 16
        self.T_worst = 4 if tiny else 8
        n_samples = 16 if tiny else 1024
        keys = [(float(j),) for j in range(4)]

        def finite_oracle(T):
            fam = experts.FiniteStaticFamily(rng.uniform(0.02, 0.98, (8, 4)), feature_keys=keys)
            return shtarkov.FiniteMaxOracle(fam, rng.integers(0, 4, (T, 1)).astype(float))

        self.finite = finite_oracle(self.T_finite)
        self.nml_oracle = finite_oracle(self.T_nml)
        self.nml_samples = rng.integers(0, 2, (n_samples, self.T_nml)).tolist()
        self.leaf_samples = rng.integers(0, 2, (16, self.T_finite)).tolist()
        self.alpha = 0.1
        self.family = experts.glm_family(d=1, R=1.0)
        self.cover = covering.grid_cover(self.family, self.alpha)
        self.worst_features = rng.uniform(-1.0, 1.0, (self.T_worst, 1))

    def _mixture(self):
        return predictors.MixturePredictor(self.cover.family, truncation=self.alpha)

    def _nml(self, oracle, T, samples):
        nml = predictors.nml_predict(oracle, T)
        return nml, [nml.run(y) for y in samples]

    def warm_up(self):
        shtarkov.minimax_value(self.finite, 10)
        shtarkov.minimax_value(shtarkov.ConstantBernoulliMLE(), 6)
        self._nml(self.nml_oracle, 6, [y[:6] for y in self.nml_samples[:4]])
        harness.worst_case_labels(self._mixture, self.family, self.worst_features[:3])

    def tasks(self, pass_index):
        return [
            ("minimax_finite", lambda: shtarkov.minimax_value(self.finite, self.T_finite)),
            ("minimax_generic", lambda: shtarkov.minimax_value(
                shtarkov.ConstantBernoulliMLE(), self.T_generic)),
            ("nml", lambda: self._nml(self.nml_oracle, self.T_nml, self.nml_samples)),
            ("worst_case", lambda: harness.worst_case_labels(
                self._mixture, self.family, self.worst_features)),
        ]

    def check(self, results):
        checks = []
        for task in ("minimax_finite", "minimax_generic"):
            table = results[task]
            lse = float(logsumexp(table.levels[-1]))
            checks.append((f"{task}: root = log-sum-exp of the leaves",
                           _close(table.root, lse), f"root {table.root!r}, lse {lse!r}"))
        leaf_err = max(abs(results["minimax_finite"].value(y) - self.finite.log_sup(y))
                       for y in self.leaf_samples)
        checks.append(("minimax_finite: sampled leaves = oracle log sup",
                       leaf_err <= TOL, f"max error {leaf_err:.3g}"))
        generic = results["minimax_generic"].root
        grouped = shtarkov.shtarkov_sum(shtarkov.ConstantBernoulliMLE(), self.T_generic)
        checks.append(("minimax_generic: root = binomial-grouped sum",
                       _close(generic, grouped), f"{generic!r} vs {grouped!r}"))

        nml, runs = results["nml"]
        worst = 0.0
        for y, preds in zip(self.nml_samples, runs):
            sup = self.nml_oracle.log_sup(y)
            if sup > -math.inf:
                worst = max(worst, abs(losses.cumulative_loss(preds, y) + sup - nml.regret))
        checks.append(("nml: equalizer on sampled sequences", worst <= TOL,
                       f"max deviation {worst:.3g} over {len(runs)} sequences"))

        labels, regret = results["worst_case"]
        bound = 2 * self.alpha * self.T_worst + math.log(len(self.cover))
        checks.append(("worst_case: regret <= 2 alpha T + ln|cover|",
                       len(labels) == self.T_worst and regret <= bound + TOL,
                       f"regret {regret:.6g}, bound {bound:.6g}"))
        return checks


class _Fat1Memo:
    """1-shattering numbers of subfamilies through the public fat1_number.

    msoa_run takes any object with this `value(members)` method as its
    cache; sharing one per family keeps the runs from recomputing them.
    """

    def __init__(self, table, K):
        self.table, self.K, self.memo = table, K, {}

    def value(self, members):
        members = frozenset(members)
        if members not in self.memo:
            self.memo[members] = covering.fat1_number(self.table[sorted(members)], self.K)[0]
        return self.memo[members]


def _all_subsets(n):
    return [s for r in range(1, n + 1) for s in itertools.combinations(range(n), r)]


class Certificates:
    """Lower-bound certificates and the discretized covering side."""

    name = "certificates"

    def __init__(self, seed, tiny, out_dir):
        rng = np.random.default_rng(seed)
        self.seed = seed
        # ds_sup_verify costs about the same for 1 to 4 ones in 8 labels
        # (its grid stays near grid_cap points); the seed places the ones
        self.ds_cases = []
        for s, k in ((1.0, 2), (2.0, 3)):
            labels = [0] * 8
            for t in rng.choice(8, size=k, replace=False):
                labels[t] = 1
            self.ds_cases.append((labels, s))
        self.ds_kwargs = {"grid_cap": 1_000} if tiny else {}
        self.ds_horizons = [int(T) for T in np.unique(np.geomspace(10, 10 ** 4, 50).astype(int))]
        self.block_cells = [(d, d * n, s) for s in (1.0, 2.0, 16.0) for d in (2, 4, 8)
                            for n in (64, 256, 1024, 4096)]
        lo = rng.uniform(0.05, 0.45, 8)
        self.intervals = [(float(a), float(a + w)) for a, w in zip(lo, rng.uniform(0.05, 0.5, 8))]
        # the construction needs 16 ln(T)/T < 1/4, so T >= 512
        self.hard_T = 512 if tiny else 2048
        self.hard_trials = 1_000 if tiny else 10_000

        # the criterion-8 families: every nonempty subfamily of the small
        # level grids, plus the full 27-expert family and seeded subfamilies
        seqs2 = [list(s) for s in itertools.product(range(2), repeat=4)]
        seqs3 = [list(s) for s in itertools.product(range(3), repeat=3)]
        groups = [(1, 3, [[0] * 6], _all_subsets), (2, 2, seqs2, _all_subsets)]
        if not tiny:
            seeded = [tuple(range(27))] + [
                tuple(sorted(rng.choice(27, size=int(rng.integers(2, 28)), replace=False)))
                for _ in range(40)]
            groups += [(2, 3, seqs2, _all_subsets), (3, 3, seqs3, lambda n: seeded)]
        self.msoa_groups = []
        for n_features, K, seqs, subsets in groups:
            grid = np.array(list(itertools.product(range(K), repeat=n_features)))
            alpha = 1.0 / (2.0 * K)
            levels = covering.discretization_levels(alpha)[:K]
            fams = [covering.DiscretizedFamily(alpha=alpha, levels=levels, table=grid[list(s)])
                    for s in subsets(len(grid))]
            self.msoa_groups.append((f"|X|={n_features},K={K}", fams, seqs))
        self.cover_keys = [(0.0,), (1.0,)]
        self.cover_cases = [(rng.uniform(0, 1, (5, 2)), alpha) for alpha in (0.25, 1 / 6)]
        self.cover_T = 4
        self.fat_values = rng.uniform(0, 1, (12, 3))
        self.ident = [rng.dirichlet(np.full(int(rng.integers(2, 5)), rng.uniform(0.3, 3.0)),
                                    size=int(rng.integers(2, 4)))
                      for _ in range(10 if tiny else 100)]
        T = int(rng.integers(100, 10_000))
        self.bound_calls = [
            ("cover-upper", dict(T=T, alpha=0.01, cover_size=1000)),
            ("lipschitz-upper", dict(T=T, d=2, R=1.0, L=1.0)),
            ("lipschitz-lower", dict(T=T, d=2, R=1.0, L=1.0)),
            ("hessian-upper", dict(T=T, d=2, R=1.0, C=0.25)),
            ("hessian-volume-upper", dict(T=T, d=2, C=0.25, R=1.0)),
            ("glm-lower", dict(T=T, d=2, s=2.0)),
            ("power-lower", dict(T=T, s=2.0)),
            ("cover-size", dict(T=T, alpha=0.1, dfat=3)),
        ]

    def _ds_sup(self, **kwargs):
        return [shtarkov.ds_sup_verify(labels, s, **kwargs) for labels, s in self.ds_cases]

    def _closed_forms(self, horizons):
        ds = [shtarkov.ds_lower_bound(T, s) for s in (1.0, 2.0) for T in horizons]
        block = [shtarkov.block_shtarkov_lower(d, T, experts.LOGISTIC, s)
                 for d, T, s in self.block_cells]
        exch = [shtarkov.shtarkov_sum(shtarkov.IntervalBernoulli(lo, hi), 10 ** 4)
                for lo, hi in self.intervals]
        return ds, block, exch

    def _hard_class(self, T, trials):
        alpha = 16 * math.log(T) / T
        fam, codebook = experts.build_hard_lipschitz_class(
            d=1, T=T, R=1.0, L=1.0, alpha=alpha, seed=self.seed)
        return codebook, shtarkov.hard_class_certificate(
            fam, codebook, trials=trials, seed=self.seed, d=1)

    def _msoa(self, groups):
        """Worst (errors - fat-1 number) per group over every target and sequence."""
        out = []
        for label, fams, seqs in groups:
            worst = -math.inf
            for dfam in fams:
                memo = _Fat1Memo(dfam.table, dfam.K)
                dfat = max(0, covering.fat1_number(dfam.table, dfam.K)[0])
                for target in range(dfam.n_experts):
                    for x_cols in seqs:
                        y = [int(dfam.table[target, j]) for j in x_cols]
                        _, errors = covering.msoa_run(dfam, x_cols, y, cache=memo)
                        worst = max(worst, errors - dfat)
            out.append((label, worst))
        return out

    def _msoa_covers(self):
        return [covering.msoa_cover(values, alpha, self.cover_T, self.cover_keys)
                for values, alpha in self.cover_cases]

    def warm_up(self):
        self._ds_sup(grid_cap=1_000)
        self._closed_forms(self.ds_horizons[:3])
        self._hard_class(512, 100)
        self._msoa(self.msoa_groups[:1])
        self._msoa_covers()
        covering.fat_shattering_number(self.fat_values, 0.1)
        shtarkov.identification_bound(self.ident[0])
        kind, params = self.bound_calls[0]
        bounds.evaluate_bound(kind, **params)

    def tasks(self, pass_index):
        return [
            ("ds_sup_verify", lambda: self._ds_sup(**self.ds_kwargs)),
            ("closed_forms", lambda: self._closed_forms(self.ds_horizons)),
            ("hard_class", lambda: self._hard_class(self.hard_T, self.hard_trials)),
            ("msoa", lambda: self._msoa(self.msoa_groups)),
            ("msoa_cover", self._msoa_covers),
            ("fat_shattering", lambda: covering.fat_shattering_number(self.fat_values, 0.1)),
            ("identification", lambda: [shtarkov.identification_bound(P) for P in self.ident]),
            ("bounds", lambda: [bounds.evaluate_bound(kind, **params)
                                for kind, params in self.bound_calls]),
        ]

    def check(self, results):
        checks = []
        for (labels, s), (closed, brute) in zip(self.ds_cases, results["ds_sup_verify"]):
            checks.append((f"ds_sup_verify s={s:g} labels={labels}: gap <= 1e-3",
                           abs(closed - brute) <= 1e-3, f"closed {closed!r}, brute {brute!r}"))
        ds, _, _ = results["closed_forms"]
        gap = min(exact - formula for exact, formula in ds)
        checks.append(("ds_lower_bound: exact >= closed-form envelope", gap >= -TOL,
                       f"min gap {gap:.6g}"))
        codebook, rep = results["hard_class"]
        allowed = rep.analytic_error_bound + 3 * rep.mc_std_err + 1e-12
        checks.append(("hard class: MC error <= analytic bound + 3 sigma",
                       rep.mc_error <= allowed and codebook.min_hamming >= self.hard_T / 4,
                       f"MC {rep.mc_error:.3g}, allowed {allowed:.3g}, "
                       f"min Hamming {codebook.min_hamming}"))
        for label, worst in results["msoa"]:
            checks.append((f"msoa {label}: errors <= fat-1 number", worst <= 0,
                           f"max errors - fat1 = {worst}"))
        for (values, alpha), cover in zip(self.cover_cases, results["msoa_cover"]):
            dfam = covering.discretize(values, alpha, feature_keys=self.cover_keys)
            dfat = max(0, covering.fat1_number(dfam.table, dfam.K)[0])
            size_bound = covering.cover_size_bound(self.cover_T, alpha, dfat)
            checks.append((f"msoa_cover alpha={alpha:.4g}: size <= bound",
                           len(cover) <= size_bound, f"{len(cover)} <= {size_bound:g}"))
        margins = [(opt - lower) if opt is not None else -math.inf
                   for lower, opt in results["identification"]]
        checks.append(("identification optimum >= bound", min(margins) >= -1e-12,
                       f"min margin {min(margins):.3g}"))
        values = results["bounds"]
        checks.append(("bound registry values finite", all(math.isfinite(v) for v in values),
                       ", ".join(f"{v:.6g}" for v in values)))
        return checks


WORKLOADS = {w.name: w for w in (RegretMatrix, LabelTree, Certificates)}
