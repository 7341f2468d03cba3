"""End-to-end acceptance gate.

One test per headline property, each printing a single PASS/FAIL line with
its measured quantity and runtime.  Tolerances are pinned in the asserts.
"""

import itertools
import math
import time

import numpy as np
import pytest

from seqpa.bounds import power_family_lower
from seqpa.covering import (
    cover_size_bound,
    discretize,
    fat1_number,
    grid_cover,
    msoa_cover,
    msoa_run,
    _fat1_memo,
)
from seqpa.experts import (
    LOGISTIC,
    FiniteStaticFamily,
    best_in_hindsight,
    build_hard_lipschitz_class,
    glm_family,
    prediction_matrix,
)
from seqpa.harness import run_bench, run_experiment
from seqpa.losses import cumulative_loss, log_loss, log_sum_exp
from seqpa.predictors import MixturePredictor, mixture_losses, nml_predict, smooth_truncate
from seqpa.shtarkov import (
    FiniteMaxOracle,
    block_shtarkov_lower,
    ds_lower_bound,
    ds_sup_verify,
    hard_class_certificate,
    identification_bound,
    minimax_value,
)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def all_label_sequences(T):
    return itertools.product((0, 1), repeat=T)


# ---------------------------------------------------------------------------
# 1. Normalized-maximum-likelihood duality and the equalizer property


def test_criterion_1_nml_duality_and_equalizer():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    worst_gap = 0.0
    worst_eq = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 9))
        T = int(rng.integers(1, 11))
        vals = rng.uniform(0.02, 0.98, n)
        # sprinkle in degenerate experts so zero-mass sequences occur
        for i in range(n):
            if rng.random() < 0.15:
                vals[i] = float(rng.integers(0, 2))
        fam = FiniteStaticFamily(vals[:, None])
        oracle = FiniteMaxOracle(fam, np.zeros((T, 1)))
        table = minimax_value(oracle, T)
        # independent brute force: direct sum over all label sequences, the
        # best expert of each from one batched hindsight call
        sups = -best_in_hindsight(fam, oracle.features, np.array(list(all_label_sequences(T))))[1]
        brute = log_sum_exp(sups)
        worst_gap = max(worst_gap, abs(table.root - brute))
        nml = nml_predict(oracle, T)
        for y, sup in zip(all_label_sequences(T), sups):
            if sup == -math.inf:
                continue  # zero-mass sequence: regret undefined
            preds = nml.run(list(y))
            regret = cumulative_loss(preds, list(y)) - (-sup)
            worst_eq = max(worst_eq, abs(regret - table.root))
    elapsed = time.monotonic() - start
    ok = worst_gap <= 1e-9 and worst_eq <= 1e-9 and elapsed < 30
    report(1, ok, f"200 families, max duality gap {worst_gap:.2e}, "
                  f"max equalizer deviation {worst_eq:.2e}, {elapsed:.1f}s")
    assert worst_gap <= 1e-9
    assert worst_eq <= 1e-9
    assert elapsed < 30


# ---------------------------------------------------------------------------
# 2. Smooth-truncated mixture over a lattice cover, exhaustive in the labels


def test_criterion_2_truncated_mixture_cover_bound_exhaustive():
    start = time.monotonic()
    T = 12
    rng = np.random.default_rng(2)
    fam = glm_family(d=1, R=1.0)
    features = rng.uniform(-1, 1, (T, 1))
    # comparator: certified lower bounds on the best loss, all 2^T sequences
    # in one batched call (rows in mixture_losses leaf order)
    Y = np.array(list(all_label_sequences(T)))  # (4096, T)
    _, best = best_in_hindsight(fam, features, Y)  # (4096,)

    violations = 0
    worst_slack = math.inf
    for alpha in (0.05, 0.1, 0.25):
        cover = grid_cover(fam, alpha)
        bound = 2 * alpha * T + math.log(len(cover))
        # exact loss of the stepped mixture on every sequence (chain rule)
        slack = bound - (mixture_losses(cover.family, features, alpha) - best)
        worst_slack = min(worst_slack, float(slack.min()))
        violations += int((slack < 0).sum())
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 60
    report(2, ok, f"3 x 4096 sequences, min slack {worst_slack:.3f} nats, "
                  f"{violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 3. Truncation loss-ratio and finite-class mixture bounds, exhaustive


def test_criterion_3_truncation_ratio_and_finite_class_regret():
    start = time.monotonic()
    rng = np.random.default_rng(3)
    ratio_viol = 0
    for _ in range(20):
        T = int(rng.integers(1, 11))
        alpha = float(rng.uniform(0.02, 0.4))
        h = rng.uniform(0, 1, T)
        g = np.clip(h + rng.uniform(-alpha, alpha, T), 0, 1)
        gt = smooth_truncate(g, alpha)
        cap = T * math.log(1 + 2 * alpha)
        for y in all_label_sequences(T):
            lh = cumulative_loss(h, y)
            lg = cumulative_loss(gt, y)
            if lg - lh > cap + 1e-9:  # holds vacuously when lh is infinite
                ratio_viol += 1

    class_viol = 0
    for _ in range(10):
        T = int(rng.integers(1, 11))
        n = int(rng.integers(2, 7))
        fam = FiniteStaticFamily(rng.uniform(0.05, 0.95, (n, 1)))
        losses = mixture_losses(fam, np.zeros((T, 1)))
        # one stepped mixture as the reference, on the alternating labels 0101...,
        # whose leaf index is that binary number, (2^T - 1) // 3
        pred = MixturePredictor(fam)
        total = 0.0
        for t in range(T):
            total += log_loss(pred.step(np.zeros(1)), t % 2)
            pred.update(t % 2)
        assert abs(total - losses[(2 ** T - 1) // 3]) <= 1e-12
        for loss, y in zip(losses, all_label_sequences(T)):
            best = min(cumulative_loss([fam.table[i, 0]] * T, y) for i in range(n))
            if loss - best > math.log(n) + 1e-9:
                class_viol += 1
    elapsed = time.monotonic() - start
    ok = ratio_viol == 0 and class_viol == 0
    report(3, ok, f"ratio violations {ratio_viol}, finite-class violations "
                  f"{class_viol}, {elapsed:.1f}s")
    assert ratio_viol == 0
    assert class_viol == 0


# ---------------------------------------------------------------------------
# 4. Lattice-cover mixture at scale: logistic families, adversarial labels


def test_criterion_4_lipschitz_bound_at_scale():
    start = time.monotonic()
    failures = []
    min_slack = math.inf
    for d in (1, 2):
        for T in (32, 128, 512, 1024):
            for adversary in ("greedy", "iid:0.5"):
                cell = dict(family="logistic", algorithm="smooth_bayes",
                            T=T, d=d, R=1.0, L=1.0, alpha="auto",
                            adversary=adversary, features="ball", seed=4)
                row, _ = run_experiment(cell)
                min_slack = min(min_slack, row.slack)
                if row.slack < 0:
                    failures.append((d, T, adversary, row.slack))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120
    report(4, ok, f"16 cells, min slack {min_slack:.3f} nats, "
                  f"failures {failures}, {elapsed:.1f}s")
    assert not failures
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 5. Continuous-prior mixture at scale against the bounded-Hessian bound


def test_criterion_5_hessian_bound_at_scale():
    start = time.monotonic()
    failures = []
    min_slack = math.inf
    for d in (1, 2):
        for T in (32, 128, 512, 1024):
            for adversary in ("greedy", "iid:0.5"):
                cell = dict(family="logistic", algorithm="continuous_bayes",
                            T=T, d=d, R=1.0, adversary=adversary,
                            features="ball", seed=5)
                row, _ = run_experiment(cell)
                min_slack = min(min_slack, row.slack + row.allowance)
                if row.slack < -row.allowance:
                    failures.append((d, T, adversary, row.slack))
    elapsed = time.monotonic() - start
    ok = not failures
    report(5, ok, f"16 cells (allowance 0.1), min slack {min_slack:.3f} nats, "
                  f"failures {failures}, {elapsed:.1f}s")
    assert not failures


# ---------------------------------------------------------------------------
# 6. Power-mass family: exact sum vs closed-form lower bound, sup vs brute


def test_criterion_6_power_family_lower_bound_and_sup():
    start = time.monotonic()
    gaps = []
    for s in (1.0, 2.0):
        for T in np.unique(np.geomspace(10, 10 ** 4, 50).astype(int)):
            exact, formula = ds_lower_bound(int(T), s)
            gaps.append(exact - formula)
            assert formula == pytest.approx(power_family_lower(int(T), s))
    min_gap = min(gaps)

    worst_sup_gap = 0.0
    rng = np.random.default_rng(6)
    for s in (1.0, 2.0):
        for T in range(1, 9):
            labels = rng.integers(0, 2, T).tolist()
            closed, brute = ds_sup_verify(labels, s)
            worst_sup_gap = max(worst_sup_gap, abs(closed - brute))
    elapsed = time.monotonic() - start
    ok = min_gap >= -1e-9 and worst_sup_gap <= 1e-3 and elapsed < 60
    report(6, ok, f"min lower-bound gap {min_gap:.3f} nats, max sup gap "
                  f"{worst_sup_gap:.2e}, {elapsed:.1f}s")
    assert min_gap >= -1e-9
    assert worst_sup_gap <= 1e-3
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 7. Block-design restricted sums vs the (d/2) ln(T / d^((s+2)/s)) lead term


def test_criterion_7_block_design_lower_bound_constant():
    start = time.monotonic()
    cells = {}
    for s in (1.0, 2.0, 16.0):
        for d in (2, 4, 8):
            for n in (64, 256, 1024, 4096):
                T = d * n
                value = block_shtarkov_lower(d, T, LOGISTIC, s)
                lead = (d / 2) * math.log(T / d ** ((s + 2) / s))
                cells[(s, d, n)] = (lead - value) / d
    c_fit = max(cells.values())
    slice_fits = []
    for s in (1.0, 2.0, 16.0):
        slice_fits.append(max(v for k, v in cells.items() if k[0] == s))
    for d in (2, 4, 8):
        slice_fits.append(max(v for k, v in cells.items() if k[1] == d))
    rel_dev = max(abs(f - c_fit) / c_fit for f in slice_fits)
    # with c = c_fit every cell satisfies value >= lead - c*d by construction;
    # stability means the per-slice fits agree with the global fit
    elapsed = time.monotonic() - start
    ok = rel_dev <= 0.2
    report(7, ok, f"36 cells, fitted c {c_fit:.3f}, max slice deviation "
                  f"{100 * rel_dev:.1f}%, {elapsed:.1f}s")
    assert rel_dev <= 0.2


# ---------------------------------------------------------------------------
# 8. Mistake-bounded learner: error counts and the enumerated cover


def _enumerate_families(n_features, K, subset_iter):
    experts = np.array(list(itertools.product(range(K), repeat=n_features)))
    for subset in subset_iter(len(experts)):
        yield experts[list(subset)]


def _check_msoa_errors(table, K, T, seqs):
    from seqpa.covering import DiscretizedFamily, discretization_levels
    alpha = 1.0 / (2.0 * K)
    levels = discretization_levels(alpha)[:K]
    dfam = DiscretizedFamily(alpha=alpha, levels=levels, table=np.asarray(table))
    cache = _fat1_memo(dfam.table, dfam.K)
    d = max(0, cache.value(frozenset(range(dfam.n_experts))))
    worst = 0
    for target in range(dfam.n_experts):
        for x_cols in seqs:
            y = [int(dfam.table[target, j]) for j in x_cols]
            _, errors = msoa_run(dfam, x_cols, y, cache=cache)
            worst = max(worst, errors)
            if errors > d:
                return worst, d, False
    return worst, d, True


def test_criterion_8_msoa_errors_and_cover():
    start = time.monotonic()
    rng = np.random.default_rng(8)
    all_ok = True

    # |X|=1, K=3, T=6: every nonempty expert subset
    for fam in _enumerate_families(1, 3, lambda n: (
            s for r in range(1, n + 1) for s in itertools.combinations(range(n), r))):
        _, _, ok = _check_msoa_errors(fam, 3, 6, [[0] * 6])
        all_ok &= ok

    # |X|=2, K=2, T=4: every nonempty subset, every feature sequence
    seqs = list(itertools.product(range(2), repeat=4))
    for fam in _enumerate_families(2, 2, lambda n: (
            s for r in range(1, n + 1) for s in itertools.combinations(range(n), r))):
        _, _, ok = _check_msoa_errors(fam, 2, 4, seqs)
        all_ok &= ok

    # |X|=2, K=3, T=4: every nonempty subset of the 9 experts
    for fam in _enumerate_families(2, 3, lambda n: (
            s for r in range(1, n + 1) for s in itertools.combinations(range(n), r))):
        _, _, ok = _check_msoa_errors(fam, 3, 4, seqs)
        all_ok &= ok

    # |X|=3, K=3, T=3: the full 27-expert family plus 40 random subfamilies
    seqs3 = list(itertools.product(range(3), repeat=3))
    subsets = [tuple(range(27))]
    for _ in range(40):
        r = int(rng.integers(2, 28))
        subsets.append(tuple(sorted(rng.choice(27, size=r, replace=False))))
    for fam in _enumerate_families(3, 3, lambda n: iter(subsets)):
        _, _, ok = _check_msoa_errors(fam, 3, 3, seqs3)
        all_ok &= ok

    # cover: exhaustive coverage at scale 3*alpha plus the size bound
    T = 4
    keys = [(0.0,), (1.0,)]
    feats = np.array([[0.0], [1.0]])
    cover_ok = True
    for alpha in (0.25, 1 / 6):
        values = rng.uniform(0, 1, (5, 2))
        cover = msoa_cover(values, alpha, T, keys)
        dfam = discretize(values, alpha, feature_keys=keys)
        dfat = max(0, fat1_number(dfam.table, dfam.K)[0])
        cover_ok &= len(cover) <= cover_size_bound(T, alpha, dfat)
        for seq in itertools.product(range(2), repeat=T):
            P = prediction_matrix(cover.family, feats[list(seq)])
            target = values[:, list(seq)]
            cover_ok &= bool((np.abs(P[None] - target[:, None]).max(axis=2)
                              <= 3 * alpha + 1e-12).any(axis=1).all())
    elapsed = time.monotonic() - start
    ok = all_ok and cover_ok and elapsed < 120
    report(8, ok, f"error bound ok {all_ok}, cover ok {cover_ok}, {elapsed:.1f}s")
    assert all_ok
    assert cover_ok
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 9. Source-identification error vs the 1 - S/|P| lower bound


def test_criterion_9_identification_lower_bound():
    start = time.monotonic()
    rng = np.random.default_rng(9)
    worst_margin = math.inf
    for _ in range(100):
        m = int(rng.integers(2, 4))
        k = int(rng.integers(2, 5))
        P = rng.dirichlet(np.full(k, rng.uniform(0.3, 3.0)), size=m)
        lower, exact = identification_bound(P)
        assert exact is not None  # estimator enumeration was exhaustive
        worst_margin = min(worst_margin, exact - lower)
    elapsed = time.monotonic() - start
    ok = worst_margin >= -1e-12
    report(9, ok, f"100 instances, min (optimum - bound) {worst_margin:.2e}, "
                  f"{elapsed:.1f}s")
    assert worst_margin >= -1e-12


# ---------------------------------------------------------------------------
# 10. Hard Lipschitz construction: codebook and misidentification rate


def test_criterion_10_hard_construction_certificate():
    start = time.monotonic()
    T = 2048
    alpha = 16 * math.log(T) / T
    fam, cb = build_hard_lipschitz_class(d=1, T=T, R=1.0, L=1.0,
                                         alpha=alpha, seed=0)
    report10 = hard_class_certificate(fam, cb, trials=10 ** 4, seed=0, d=1)
    hamming_ok = cb.min_hamming >= T // 4
    mc_ok = report10.mc_error <= (report10.analytic_error_bound
                                  + 3 * report10.mc_std_err + 1e-12)
    elapsed = time.monotonic() - start
    ok = hamming_ok and mc_ok
    report(10, ok, f"M={report10.n_sources}, min Hamming {cb.min_hamming} "
                   f"(need {T // 4}), MC error {report10.mc_error:.2e} vs "
                   f"analytic {report10.analytic_error_bound:.2e}, {elapsed:.1f}s")
    assert hamming_ok
    assert mc_ok


# ---------------------------------------------------------------------------
# 11. Bench determinism: byte-identical summaries for identical config+seed


def test_criterion_11_bench_determinism(tmp_path):
    start = time.monotonic()
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("[grid]\n"
                   "family = logistic\n"
                   "algorithm = smooth_bayes, continuous_bayes\n"
                   "T = 16, 32\n"
                   "d = 1\n"
                   "adversary = greedy, iid:0.4\n"
                   "seed = 11\n")
    _, fail1 = run_bench(str(cfg), str(tmp_path / "a"))
    _, fail2 = run_bench(str(cfg), str(tmp_path / "b"))
    s1 = (tmp_path / "a" / "summary.csv").read_bytes()
    s2 = (tmp_path / "b" / "summary.csv").read_bytes()
    elapsed = time.monotonic() - start
    ok = s1 == s2 and not fail1 and not fail2
    report(11, ok, f"8-cell matrix run twice, summaries identical {s1 == s2}, "
                   f"{elapsed:.1f}s")
    assert s1 == s2
    assert not fail1
    assert not fail2
