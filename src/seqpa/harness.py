"""Experiment runner: adversaries, predictor-vs-bound matrices, CSV reports.

The online protocol is strictly sequential: the learner predicts from the
feature prefix, then the adversary (label source) reveals the label.  The
feature sequence is always fixed up front; adversarial search is over
labels only, using either the exhaustive game tree (small horizons) or
the greedy per-step heuristic.  A block-design cell needs d | T.
"""

import configparser
import hashlib
import itertools
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bounds
from .covering import grid_cover
from .experts import best_in_hindsight, glm_family
from .losses import pointwise_regret
from .predictors import MixturePredictor, Transcript, continuous_bayes, mixture_losses
from .shtarkov import FiniteMaxOracle, block_design_features, leaf_log_sups

SCHEMA_VERSION = 1
WORST_CASE_CAP = 18


class ConstantPredictor:
    """Always predicts 1/2 (the trivial T-bound baseline)."""

    def step(self, x):
        return 0.5

    def update(self, y):
        pass


def run_protocol(predictor, features, label_fn):
    """Play the sequential protocol: predict, reveal, score."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    transcript = Transcript(features=features)
    for t in range(features.shape[0]):
        yhat = predictor.step(features[t])
        y = int(label_fn(t, yhat))
        predictor.update(y)
        transcript.append(yhat, y)
    return transcript


# ---------------------------------------------------------------------------
# Adversaries


def greedy_label_fn():
    """Pick the label with the larger instantaneous loss; ties go to 1."""
    return lambda t, yhat: 0 if yhat > 0.5 else 1


def iid_label_fn(p, rng):
    return lambda t, yhat: int(rng.uniform() < p)


def fixed_label_fn(labels):
    return lambda t, yhat: int(labels[t])


def worst_case_labels(predictor_factory, family, features, cap=WORST_CASE_CAP):
    """Exact regret-maximizing label sequence for a mixture predictor.

    `predictor_factory()` must return a `MixturePredictor`, scored on every
    sequence by `mixture_losses`.  The comparator is minus the Shtarkov
    leaves, `leaf_log_sups` of a `FiniteMaxOracle`, for a finite or the
    logistic family alike; the logistic leaves are certified upper bounds
    on ln sup, so the returned regret is an upper bound on the true one.
    Ties go to the first sequence in binary order.  Raises ValueError when
    T is over `cap`.  Returns (labels, regret).
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    T = features.shape[0]
    if T > cap:
        raise ValueError(f"T={T} is over the exhaustive worst-case cap {cap}")
    predictor = predictor_factory()
    if not isinstance(predictor, MixturePredictor):
        raise TypeError(f"worst_case_labels needs MixturePredictor factories, got {predictor!r}")
    loss = mixture_losses(predictor.family, features, predictor.truncation)
    regret = pointwise_regret(loss, -leaf_log_sups(FiniteMaxOracle(family, features), T))
    j = int(np.argmax(regret))
    return [(j >> (T - 1 - t)) & 1 for t in range(T)], float(regret[j])


# ---------------------------------------------------------------------------
# Experiment cells


@dataclass
class ReportRow:
    digest: str
    family: str
    predictor: str
    adversary: str
    T: int
    d: int
    seed: int
    regret: float
    bound: float
    slack: float
    allowance: float
    ok: bool
    wall_time: float

    CSV_FIELDS = ("digest", "family", "predictor", "adversary", "T", "d",
                  "seed", "regret", "bound", "slack", "allowance", "ok")

    def csv_line(self):
        # wall_time deliberately excluded: summaries must be byte-identical
        # across repeated runs of the same config+seed
        vals = [self.digest, self.family, self.predictor, self.adversary,
                str(self.T), str(self.d), str(self.seed),
                f"{self.regret:.12g}", f"{self.bound:.12g}", f"{self.slack:.12g}",
                f"{self.allowance:.12g}", str(int(self.ok))]
        return ",".join(vals)


def _cell_digest(cell):
    blob = ";".join(f"{k}={cell[k]}" for k in sorted(cell))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _ball_features(rng, T, d):
    g = rng.normal(size=(T, d))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-12)
    return g * rng.uniform(size=(T, 1)) ** (1.0 / d)


def _build_features(cell, rng, T, d):
    kind = cell.get("features", "ball")
    if kind == "ball":
        return _ball_features(rng, T, d)
    if kind == "block":
        return block_design_features(d, T)
    raise ValueError(f"unknown feature design {kind!r}")


def _build_label_fn(cell, rng):
    kind = cell.get("adversary", "greedy")
    if kind == "greedy":
        return greedy_label_fn()
    if kind.startswith("iid:"):
        return iid_label_fn(float(kind.split(":", 1)[1]), rng)
    if kind.startswith("file:"):
        labels = [int(v) for v in Path(kind.split(":", 1)[1]).read_text().split()]
        return fixed_label_fn(labels)
    raise ValueError(f"unknown adversary {kind!r}")


def _check_constant(name, value, family_value):
    """ValueError unless the cell's constant is at least the family's own."""
    if not value >= family_value:
        raise ValueError(f"cell constant {name}={value:g} is below the logistic family's "
                         f"{family_value:.6g} on these features; the bound would not hold")


def run_experiment(cell, out_dir=None):
    """Run one experiment cell; returns (ReportRow, Transcript).

    The cell is a flat dict of strings (one point of the bench matrix).
    A transcript CSV (`Transcript.to_csv_string`) is written to `out_dir`
    when given.  Raises ValueError for T or d below 1 and for a block
    design whose d does not divide T.
    """
    start = time.monotonic()
    digest = _cell_digest(cell)
    T = int(cell["T"])
    d = int(cell.get("d", 1))
    if T < 1 or d < 1:
        raise ValueError(f"T and d must be positive integers, got T={T}, d={d}")
    R = float(cell.get("R", 1.0))
    L = float(cell.get("L", 1.0))
    seed = int(cell.get("seed", 0))
    fam_kind = cell.get("family", "logistic")
    algo = cell.get("algorithm", "smooth_bayes")

    rng = np.random.default_rng([seed, int(digest[:8], 16)])
    features = _build_features(cell, rng, T, d)

    if fam_kind != "logistic":
        raise ValueError(f"unknown family {fam_kind!r} for bench cells")
    family = glm_family(d=d, R=R, s=2.0, lipschitz=L)
    # the logistic family's Lipschitz constant and curvature on these features
    max_norm = float(np.linalg.norm(features, axis=1).max())

    allowance = 0.0
    if algo == "smooth_bayes":
        _check_constant("L", L, max_norm / 4.0)
        alpha_raw = cell.get("alpha", "auto")
        alpha = d / T if alpha_raw == "auto" else float(alpha_raw)
        cover = grid_cover(family, alpha)
        predictor = MixturePredictor(cover.family, truncation=alpha)
        bound = bounds.lipschitz_upper(T, d, R, L)
    elif algo == "continuous_bayes":
        C = float(cell.get("C", 0.25))
        _check_constant("C", C, max_norm ** 2 / 4.0)
        predictor = continuous_bayes(family, T, C)
        bound = bounds.hessian_upper(T, d, R, C)
        allowance = 0.1
    elif algo == "constant":
        predictor = ConstantPredictor()
        bound = float(T)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")

    transcript = run_protocol(predictor, features, _build_label_fn(cell, rng))
    _, best = best_in_hindsight(family, features, transcript.labels)
    regret = pointwise_regret(transcript.cumulative_loss, best)
    slack = bound - regret
    row = ReportRow(digest=digest, family=fam_kind, predictor=algo,
                    adversary=cell.get("adversary", "greedy"), T=T, d=d,
                    seed=seed, regret=regret, bound=bound, slack=slack,
                    allowance=allowance, ok=slack >= -allowance,
                    wall_time=time.monotonic() - start)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"transcript_{digest}.csv").write_text(transcript.to_csv_string(), newline="")
    return row, transcript


# ---------------------------------------------------------------------------
# Bench matrices


def parse_bench_config(path):
    """Parse a key=value sectioned config into a list of experiment cells.

    Every comma-separated value is a matrix axis; the cell list is the
    cross product over all axes, flattened across sections.
    """
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys like T and R are case-sensitive
    with open(path) as fh:
        cp.read_file(fh)
    axes = []
    for section in cp.sections():
        for key, raw in cp.items(section):
            values = [v.strip() for v in raw.split(",")] if "," in raw else [raw.strip()]
            axes.append((key, values))
    keys = [k for k, _ in axes]
    cells = []
    for combo in itertools.product(*(vals for _, vals in axes)):
        cells.append(dict(zip(keys, combo)))
    return cells


def _run_cell(cell, out_dir):
    """One bench cell in a worker process: (ReportRow, warnings it raised).

    The transcript goes to `out_dir` and is never sent back.  Warnings are
    recorded under the filters the worker inherited, so an "error" filter
    still raises here, and come back as (message, category, filename,
    lineno) for the caller to re-issue.
    """
    with warnings.catch_warnings(record=True) as caught:
        row = run_experiment(cell, out_dir=out_dir)[0]
    return row, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def run_bench(config_path, out_dir):
    """Run every cell of a bench config; returns (rows, any_failure).

    Writes transcript CSVs and a summary CSV (rows keyed and sorted by
    config digest, so assembly order is irrelevant).

    Cells run in forked worker processes, one per usable core and at most
    one per cell (Linux `fork`, like `os.sched_getaffinity`).  A worker
    inherits the caller's numpy error state and warning filters, so both
    hold inside each cell; warnings a cell raises are re-issued here in
    config order.  Each cell builds its own RNG, family, cover and
    predictor and writes its own transcript, so the bytes written do not
    depend on the worker count.  Peak memory is per worker process: the
    caller's own `ru_maxrss` includes no cell.  A bad cell raises the first
    bad cell's error in config order, the cells not yet queued are
    cancelled, and a worker that dies raises `BrokenProcessPool`.  No
    worker outlives the call.
    """
    cells = parse_bench_config(config_path)
    rows = []
    # fork, not spawn: a worker must start with the caller's numpy error
    # state and warning filters.  The pool forks all its workers before it
    # starts its own threads.
    with ProcessPoolExecutor(min(len(cells), len(os.sched_getaffinity(0))),
                             mp_context=multiprocessing.get_context("fork")) as pool:
        # map yields in config order and cancels the cells not yet queued
        # when one raises
        for row, caught in pool.map(_run_cell, cells, itertools.repeat(out_dir)):
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno)
            rows.append(row)
    rows.sort(key=lambda r: r.digest)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = out_dir / "summary.csv"
    with open(summary, "w", newline="") as fh:
        fh.write(f"# schema={SCHEMA_VERSION}\n")
        fh.write(",".join(ReportRow.CSV_FIELDS) + "\n")
        for row in rows:
            fh.write(row.csv_line() + "\n")
    return rows, any(not r.ok for r in rows)
