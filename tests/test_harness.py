import math
import time

import numpy as np
import pytest

from seqpa.covering import grid_cover
from seqpa.experts import FiniteStaticFamily, best_in_hindsight, glm_family
from seqpa.harness import (
    WORST_CASE_CAP,
    ConstantPredictor,
    ReportRow,
    fixed_label_fn,
    greedy_label_fn,
    iid_label_fn,
    parse_bench_config,
    run_bench,
    run_experiment,
    run_protocol,
    worst_case_labels,
)
from seqpa.losses import pointwise_regret
from seqpa.predictors import MixturePredictor, mixture_losses
from seqpa.shtarkov import FiniteMaxOracle, shtarkov_sum


def test_constant_predictor_loss():
    features = np.zeros((5, 1))
    tr = run_protocol(ConstantPredictor(0.5), features, greedy_label_fn())
    assert tr.cumulative_loss == pytest.approx(5 * math.log(2))


def test_greedy_adversary_picks_costlier_label():
    fn = greedy_label_fn()
    assert fn(0, 0.9) == 0
    assert fn(0, 0.1) == 1
    assert fn(0, 0.5) == 1  # tie goes to 1


def test_iid_adversary_deterministic_given_seed():
    a = [iid_label_fn(0.5, np.random.default_rng(3))(t, 0.5) for t in range(20)]
    b = [iid_label_fn(0.5, np.random.default_rng(3))(t, 0.5) for t in range(20)]
    assert a == b


def test_worst_case_labels_finds_exhaustive_max():
    fam = FiniteStaticFamily(np.array([[0.25], [0.75]]))
    features = np.zeros((4, 1))
    labels, regret = worst_case_labels(lambda: MixturePredictor(fam), fam, features)
    assert len(labels) == 4
    # regret can never exceed ln 2 for a two-expert mixture
    assert 0.0 <= regret <= math.log(2) + 1e-10


def test_worst_case_over_cap_raises():
    fam = FiniteStaticFamily(np.array([[0.4], [0.6]]))
    features = np.zeros((WORST_CASE_CAP + 1, 1))
    with pytest.raises(ValueError, match=f"T={WORST_CASE_CAP + 1}.*cap {WORST_CASE_CAP}"):
        worst_case_labels(lambda: MixturePredictor(fam), fam, features)


@pytest.mark.parametrize("alpha", [None, 0.05])
def test_worst_case_regret_ladder(alpha):
    # a finite family mixed over itself: ln S_T(F) <= worst regret <= 2 alpha T + ln|F|
    rng = np.random.default_rng(21)
    keys = [(float(j),) for j in range(3)]
    fam = FiniteStaticFamily(rng.uniform(0.05, 0.95, (4, 3)), feature_keys=keys)
    T = 10
    features = rng.integers(0, 3, (T, 1)).astype(float)
    labels, regret = worst_case_labels(lambda: MixturePredictor(fam, truncation=alpha),
                                       fam, features)
    upper = math.log(4) + (0.0 if alpha is None else 2 * alpha * T)
    assert shtarkov_sum(FiniteMaxOracle(fam, features), T) <= regret + 1e-12
    assert regret <= upper + 1e-12
    # the reported regret is the stepped mixture's regret on the returned labels
    tr = run_protocol(MixturePredictor(fam, truncation=alpha), features, fixed_label_fn(labels))
    _, best = best_in_hindsight(fam, features, labels)
    assert regret == pytest.approx(pointwise_regret(tr, best), abs=1e-12)


def test_worst_case_parametric_comparator_batched():
    rng = np.random.default_rng(22)
    fam = glm_family(d=2, R=1.0)
    alpha, T = 0.25, 12
    cover = grid_cover(fam, alpha)
    features = rng.uniform(-0.7, 0.7, (T, 2))
    start = time.monotonic()
    labels, regret = worst_case_labels(
        lambda: MixturePredictor(cover.family, truncation=alpha), fam, features)
    assert time.monotonic() - start < 1.0
    assert shtarkov_sum(FiniteMaxOracle(fam, features), T) <= regret + 1e-12
    tr = run_protocol(MixturePredictor(cover.family, truncation=alpha), features,
                      fixed_label_fn(labels))
    _, best = best_in_hindsight(fam, features, labels)
    assert regret == pytest.approx(pointwise_regret(tr, best), abs=1e-12)
    # no sampled sequence has a larger regret under per-sequence solves
    loss = mixture_losses(cover.family, features, alpha)
    for j in rng.integers(0, 2 ** T, 64):
        y = [(int(j) >> (T - 1 - t)) & 1 for t in range(T)]
        assert loss[j] - best_in_hindsight(fam, features, y)[1] <= regret + 1e-12


def test_worst_case_needs_mixture_factory():
    fam = FiniteStaticFamily(np.array([[0.25], [0.75]]))
    with pytest.raises(TypeError):
        worst_case_labels(ConstantPredictor, fam, np.zeros((3, 1)))


def test_report_row_excludes_wall_time():
    row = ReportRow(digest="ab", family="f", predictor="p", adversary="g",
                    T=4, d=1, seed=0, regret=0.5, bound=1.0, slack=0.5,
                    allowance=0.0, ok=True, wall_time=123.4)
    line = row.csv_line()
    assert "123.4" not in line
    assert line.split(",") == ["ab", "f", "p", "g", "4", "1", "0",
                               "0.5", "1", "0.5", "0", "1"]


def test_run_experiment_smooth_bayes_cell(tmp_path):
    cell = dict(family="logistic", algorithm="smooth_bayes", T=16, d=1,
                R=1.0, L=1.0, alpha="auto", adversary="greedy",
                features="ball", seed=0)
    row, transcript = run_experiment(cell, out_dir=str(tmp_path))
    assert row.ok
    assert len(transcript.labels) == 16
    assert row.slack >= 0.0
    assert (tmp_path / f"transcript_{row.digest}.csv").exists()


def test_run_experiment_deterministic():
    cell = dict(family="logistic", algorithm="smooth_bayes", T=12, d=1,
                R=1.0, L=1.0, alpha="auto", adversary="iid:0.3",
                features="ball", seed=5)
    r1, _ = run_experiment(cell)
    r2, _ = run_experiment(cell)
    assert r1.csv_line() == r2.csv_line()


def test_run_experiment_rejects_understated_hessian_constant():
    # block features have norm 1: the logistic curvature is exactly 1/4
    cell = dict(family="logistic", algorithm="continuous_bayes", T=64, d=2,
                adversary="greedy", features="block", seed=0)
    for C in ("0.2", "0.05", "0.01"):
        with pytest.raises(ValueError, match=f"C={C}.*0.25"):
            run_experiment(dict(cell, C=C))
    assert run_experiment(dict(cell, C="0.25"))[0].ok


def test_run_experiment_rejects_understated_lipschitz_constant():
    cell = dict(family="logistic", algorithm="smooth_bayes", T=128, d=1,
                adversary="greedy", features="ball", seed=0)
    for L in ("0.1", "0.05"):
        with pytest.raises(ValueError, match=f"L={L}"):
            run_experiment(dict(cell, L=L))
    block = dict(cell, T=64, d=2, features="block", L="0.25")  # exactly 1/4
    assert run_experiment(block)[0].ok


def _write_config(path):
    path.write_text(
        "[grid]\n"
        "family = logistic\n"
        "algorithm = smooth_bayes\n"
        "T = 8, 12\n"
        "d = 1\n"
        "R = 1.0\n"
        "L = 1.0\n"
        "alpha = auto\n"
        "adversary = greedy\n"
        "features = ball\n"
        "seed = 0\n")


def test_parse_bench_config_cross_product(tmp_path):
    cfg = tmp_path / "bench.cfg"
    _write_config(cfg)
    cells = parse_bench_config(str(cfg))
    assert len(cells) == 2
    assert sorted(int(c["T"]) for c in cells) == [8, 12]


def test_run_bench_summary_deterministic(tmp_path):
    cfg = tmp_path / "bench.cfg"
    _write_config(cfg)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    rows1, fail1 = run_bench(str(cfg), str(out1))
    rows2, fail2 = run_bench(str(cfg), str(out2))
    assert not fail1 and not fail2
    s1 = (out1 / "summary.csv").read_bytes()
    s2 = (out2 / "summary.csv").read_bytes()
    assert s1 == s2
    assert s1.startswith(b"# schema=1\n")


# digest -> (regret, bound, ok) for the scripts/bench_small.cfg axes at T=32.
# Golden values: a change that moves them changes reported numbers and must
# say why.  The two d=2 iid:0.5 rows sit above the old hindsight grid's
# values (by 8.2e-7 and 1.18e-6): their optimum is on the ball's boundary,
# where the grid overstated the best loss.
GOLDEN_T32 = {
    "05909dc0a9f7fd92": (1.196351772001094, 3.9957322735539913, True),
    "28fc2ed3ba6c68fb": (0.5552690304071568, 2.6383330595080277, True),
    "348ca68ae4d77cc1": (0.7511307989524454, 2.6383330595080277, True),
    "46ffd7c094615bb4": (0.43032605451048767, 10.99301512293296, True),
    "49cfbb1056718f5a": (0.922784724148606, 10.99301512293296, True),
    "a693ad4e89b91781": (1.0493272471578514, 3.9957322735539913, True),
    "ac33fe0a7d374ab2": (0.29385251884881924, 6.174387269895637, True),
    "f7a49293ca640135": (0.38090486893528563, 6.174387269895637, True),
}


def test_run_bench_matches_golden_values(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "[grid]\n"
        "family = logistic\n"
        "algorithm = smooth_bayes, continuous_bayes\n"
        "T = 32\n"
        "d = 1, 2\n"
        "R = 1.0\n"
        "L = 1.0\n"
        "alpha = auto\n"
        "adversary = greedy, iid:0.5\n"
        "features = ball\n"
        "seed = 0\n")
    rows, failed = run_bench(str(cfg), str(tmp_path / "out"))
    assert not failed
    assert sorted(r.digest for r in rows) == sorted(GOLDEN_T32)
    for row in rows:
        regret, bound, ok = GOLDEN_T32[row.digest]
        assert row.ok == ok
        assert row.regret == pytest.approx(regret, abs=1e-9)
        assert row.bound == pytest.approx(bound, abs=1e-9)
