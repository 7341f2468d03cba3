import contextlib
import math
import multiprocessing
import os
import signal
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from seqpa import harness
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
    tr = run_protocol(ConstantPredictor(), features, greedy_label_fn())
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
    assert regret == pytest.approx(pointwise_regret(tr.cumulative_loss, best), abs=1e-12)


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
    assert regret == pytest.approx(pointwise_regret(tr.cumulative_loss, best), abs=1e-12)
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


def test_run_experiment_transcript_csv_accepts_paths(tmp_path):
    cell = dict(family="logistic", algorithm="smooth_bayes", T=6, d=2, seed=0)
    for out_dir in (tmp_path / "path", str(tmp_path / "str")):
        row, transcript = run_experiment(cell, out_dir=out_dir)
        written = Path(out_dir, f"transcript_{row.digest}.csv").read_bytes()
        assert written == transcript.to_csv_string().encode()


def test_run_experiment_rejects_a_block_design_d_does_not_divide():
    cell = dict(family="logistic", algorithm="smooth_bayes", T=9, d=2, features="block")
    with pytest.raises(ValueError, match=r"^block design needs d \| T \(got T=9, d=2\)$"):
        run_experiment(cell)


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


def test_run_experiment_file_adversary_plays_the_file(tmp_path):
    labels = [1, 0, 0, 1, 1, 1, 0, 1]
    path = tmp_path / "labels.txt"
    path.write_text(" ".join(map(str, labels[:4])) + "\n" + " ".join(map(str, labels[4:])))
    cell = dict(family="logistic", algorithm="smooth_bayes", T=8, d=1,
                adversary=f"file:{path}", features="ball", seed=0)
    row, transcript = run_experiment(cell)
    assert transcript.labels == labels
    assert row.adversary == f"file:{path}" and row.ok


def test_run_experiment_constant_cell_has_the_trivial_bound():
    T = 10
    cell = dict(family="logistic", algorithm="constant", T=T, d=2,
                adversary="iid:0.3", features="ball", seed=4)
    row, transcript = run_experiment(cell)
    assert transcript.predictions == [0.5] * T
    assert transcript.cumulative_loss == pytest.approx(T * math.log(2.0))
    assert row.bound == float(T) and row.allowance == 0.0 and row.ok
    _, best = best_in_hindsight(glm_family(d=2, R=1.0), transcript.features, transcript.labels)
    assert row.regret == pointwise_regret(transcript.cumulative_loss, best)


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


BENCH_SMALL = Path(__file__).resolve().parents[1] / "scripts" / "bench_small.cfg"


def _usable_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


# run_bench forks its workers, so what a test cell shares with the test
# lives in fork-context primitives or in files, never in a plain object
FORK = multiprocessing.get_context("fork")


def _pids(path):
    return {int(p.name) for p in path.iterdir()}


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the test, instead of hanging it, if the block outlasts `seconds`."""
    def hung(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_run_bench_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    run_cell, first_two = harness.run_experiment, FORK.Barrier(2, timeout=30)
    order = FORK.Value("i", 0)

    def cell_in(pids, meeting):
        def marked_cell(cell, out_dir=None):
            with order.get_lock():
                k, order.value = order.value, order.value + 1
            # the first two cells wait for each other: the barrier breaks unless they run side by side
            if meeting and k < 2:
                first_two.wait()
            (pids / str(os.getpid())).touch()
            return run_cell(cell, out_dir=out_dir)
        pids.mkdir()
        monkeypatch.setattr(harness, "run_experiment", marked_cell)
        return pids

    # more workers than cores
    _usable_cores(monkeypatch, 4)
    pids = cell_in(tmp_path / "pids_cores", meeting=True)
    run_bench(str(BENCH_SMALL), str(tmp_path / "cores"))
    assert len(_pids(pids)) > 1 and os.getpid() not in _pids(pids)

    _usable_cores(monkeypatch, 1)
    pids = cell_in(tmp_path / "pids_one", meeting=False)
    run_bench(str(BENCH_SMALL), str(tmp_path / "one"))
    assert len(_pids(pids)) == 1 and os.getpid() not in _pids(pids)

    names = sorted(p.name for p in (tmp_path / "cores").iterdir())
    assert len(names) == 17 and "summary.csv" in names
    assert names == sorted(p.name for p in (tmp_path / "one").iterdir())
    for name in names:
        assert (tmp_path / "cores" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_run_bench_raises_the_first_bad_cell_in_config_order(tmp_path, monkeypatch):
    cfg = tmp_path / "bench.cfg"
    iid = [f"iid:{k / 16}" for k in range(1, 13)]
    cfg.write_text("[grid]\nalgorithm = smooth_bayes\nT = 8\n"
                   f"adversary = greedy, bogus, worse, {', '.join(iid)}\nseed = 0\n")
    # cells 1 and 2 are bad: cell 1 raises only after cell 2 has, cell 0
    # returns only after cell 1 has raised, and the rest start after cell 0
    # and then take 0.2 s each, far longer than the error takes to reach
    # the caller, so cells are still waiting to be queued when it does
    waits_for = {"greedy": "bogus", "bogus": "worse", **{a: "greedy" for a in iid}}
    finished = {a: FORK.Event() for a in ("greedy", "bogus", "worse")}
    run_cell, started = harness.run_experiment, tmp_path / "started"
    started.mkdir()

    def staged_cell(cell, out_dir=None):
        adversary = cell["adversary"]
        (started / adversary).touch()
        if adversary in waits_for:
            assert finished[waits_for[adversary]].wait(30)
        if adversary in iid:
            time.sleep(0.2)
        try:
            return run_cell(cell, out_dir=out_dir)
        finally:
            if adversary in finished:
                finished[adversary].set()

    _usable_cores(monkeypatch, 3)
    monkeypatch.setattr(harness, "run_experiment", staged_cell)
    with pytest.raises(ValueError, match="^unknown adversary 'bogus'$"):
        run_bench(str(cfg), str(tmp_path / "out"))
    names = {p.name for p in started.iterdir()}
    assert {"greedy", "bogus", "worse"} <= names
    # the cells not queued when the error was seen were cancelled
    assert len(names) < 3 + len(iid)
    assert not multiprocessing.active_children()


def test_run_bench_cells_keep_the_callers_numpy_error_state(tmp_path, monkeypatch):
    cfg = tmp_path / "bench.cfg"
    _write_config(cfg)
    run_cell, seen = harness.run_experiment, tmp_path / "seen"
    seen.mkdir()

    def recording_cell(cell, out_dir=None):
        (seen / f"T{cell['T']}").write_text(np.geterr()["over"])
        return run_cell(cell, out_dir=out_dir)

    _usable_cores(monkeypatch, 2)
    monkeypatch.setattr(harness, "run_experiment", recording_cell)
    with np.errstate(over="raise"):
        run_bench(str(cfg), str(tmp_path / "out"))
    assert {p.name: p.read_text() for p in seen.iterdir()} == {"T8": "raise", "T12": "raise"}


def test_run_bench_reissues_cell_warnings_in_config_order(tmp_path, monkeypatch):
    cfg = tmp_path / "bench.cfg"
    _write_config(cfg)
    run_cell = harness.run_experiment

    def warning_cell(cell, out_dir=None):
        warnings.warn(f"cell T={cell['T']}", UserWarning)
        return run_cell(cell, out_dir=out_dir)

    _usable_cores(monkeypatch, 2)
    monkeypatch.setattr(harness, "run_experiment", warning_cell)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_bench(str(cfg), str(tmp_path / "out"))
    assert [(w.category, str(w.message)) for w in caught] == [
        (UserWarning, "cell T=8"), (UserWarning, "cell T=12")]
    assert all(w.filename == __file__ for w in caught)
    assert not multiprocessing.active_children()

    # an "error" filter of the caller's raises inside the cell, which stops
    # where it warned and writes no transcript
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="^cell T=8$"):
            run_bench(str(cfg), str(tmp_path / "error"))
    assert not list(tmp_path.glob("error/transcript_*"))
    assert not multiprocessing.active_children()


def test_run_bench_raises_when_a_worker_dies(tmp_path, monkeypatch):
    cfg = tmp_path / "bench.cfg"
    _write_config(cfg)
    run_cell = harness.run_experiment

    def dying_cell(cell, out_dir=None):
        if cell["T"] == "12":
            os._exit(1)
        return run_cell(cell, out_dir=out_dir)

    _usable_cores(monkeypatch, 2)
    monkeypatch.setattr(harness, "run_experiment", dying_cell)
    with _deadline(60), pytest.raises(BrokenProcessPool):
        run_bench(str(cfg), str(tmp_path / "out"))
    assert not multiprocessing.active_children()
