"""Span recording for the traced benchmark run.

The tracer rebinds public seqpa functions, from outside the package, to
wrappers that record one span per call: name, start, end, parent span, task
and pass, plus the counts measured at that boundary.  Spans stay in memory
and are written out when the run ends.  A span's self time is its duration
minus the time its direct child spans cover.
"""

import csv
import functools
import inspect
import json
import resource
import statistics
import time
from collections import defaultdict

import numpy as np

from seqpa import bounds, cli, covering, experts, harness, predictors, shtarkov


def _maxrss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_online(out, a):
    if not isinstance(a["predictor"], predictors.MixturePredictor):
        return None
    return {"expert_steps": a["predictor"].family.n_experts * len(out.labels),
            "mixture_runs": 1}


def _count_worst_case(out, a):
    T = np.atleast_2d(a["features"]).shape[0]
    return {"sequences": 2 ** T if T <= a["cap"] else 1}


def _count_ds_grid(out, a):
    k = sum(int(y) for y in a["labels"])
    return {"grid_points": 0 if k == 0 else max(2, int(a["grid_cap"] ** (1.0 / k))) ** k}


def _count_mc(out, a):
    M = a["family"].table.shape[0]
    return {"mc_samples": max(1, a["trials"] // M) * M}


def _count_members(key):
    return lambda out, a: {"members": len(out) if key is None else getattr(out, key).n_experts}


# (owner, attribute, span name, counter, track peak RSS).  A counter gets
# the call's result and its arguments by name, defaults filled in.  Names
# are rebound where the caller looks them up: harness imports grid_cover,
# run_protocol, best_in_hindsight and continuous_bayes into its own
# namespace, and Transcript.append calls the log_loss bound in
# seqpa.predictors.
HOOKS = (
    (cli, "main", "cli.main", None, False),
    (harness, "run_bench", "harness.run_bench", None, False),
    (harness, "run_experiment", "harness.cell", None, False),
    (harness, "worst_case_labels", "harness.worst_case", _count_worst_case, False),
    (harness, "grid_cover", "covering.grid_cover", _count_members(None), False),
    (harness, "continuous_bayes", "predictors.continuous_grid", _count_members("family"), False),
    (harness, "run_protocol", "predictors.online", _count_online, False),
    (harness, "best_in_hindsight", "experts.hindsight", None, False),
    (predictors, "log_loss", "losses.log_loss", None, False),
    (predictors, "nml_predict", "predictors.nml", None, False),
    (predictors.NmlPredictor, "run", "predictors.nml", None, False),
    (shtarkov, "minimax_value", "shtarkov.minimax",
     lambda out, a: {"leaves": 2 ** out.horizon}, True),
    (shtarkov, "ds_sup_verify", "shtarkov.ds_sup_verify", _count_ds_grid, False),
    (shtarkov, "shtarkov_sum", "shtarkov.closed_form", None, False),
    (shtarkov, "ds_lower_bound", "shtarkov.closed_form", None, False),
    (shtarkov, "block_shtarkov_lower", "shtarkov.closed_form", None, False),
    (shtarkov, "hard_class_certificate", "shtarkov.hard_cert", _count_mc, False),
    (shtarkov, "identification_bound", "shtarkov.identification", None, False),
    (experts, "build_hard_lipschitz_class", "experts.hard_class_build", None, False),
    (covering, "fat1_number", "covering.fat1", None, False),
    (covering, "msoa_run", "covering.msoa_run", None, False),
    (covering, "msoa_cover", "covering.msoa_cover", _count_members(None), False),
    (covering, "fat_shattering_number", "covering.fat_shattering", None, False),
    (bounds, "evaluate_bound", "bounds.evaluate", None, False),
)

# Span fields, in the order a span record holds them.
FIELDS = ("id", "parent", "name", "task", "pass", "start", "end", "counts")


class Tracer:
    """Records spans while installed; `task` and `pass_index` label them."""

    def __init__(self):
        self.spans = []
        self.task = None
        self.pass_index = 0
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, counter, track_rss):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, self.task,
                   self.pass_index, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rss = _maxrss_mib() if track_rss else 0.0
            rec[5] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[6] = clock()
                stack.pop()
            counts = None
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(out, bound.arguments)
            if track_rss:
                counts = dict(counts or {}, rss_growth_mib=_maxrss_mib() - rss)
            rec[7] = counts
            return out

        return wrapper

    def install(self):
        for owner, attr, name, counter, track_rss in HOOKS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, counter, track_rss))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, spans_path, table_path):
        """Write every span (JSON lines) and the per-task layer self times (CSV)."""
        with open(spans_path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, rec))) + "\n")
        self_s = _self_times(self.spans)
        rows = defaultdict(lambda: [0, 0.0])
        for rec in self.spans:
            row = rows[(rec[4], rec[3], rec[2].split(".")[0])]
            row[0] += 1
            row[1] += self_s[rec[0]]
        with open(table_path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["pass", "task", "layer", "calls", "self_s"])
            for (pass_index, task, layer), (calls, secs) in sorted(rows.items()):
                out.writerow([pass_index, task, layer, calls, repr(secs)])


def _self_times(spans):
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[1] >= 0:
            covered[rec[1]] += rec[6] - rec[5]
    return [rec[6] - rec[5] - covered[rec[0]] for rec in spans]


def _pass_summary(spans, self_s):
    """Per span name: calls, self time, inclusive durations and summed counts."""
    out = defaultdict(lambda: {"calls": 0, "self": 0.0, "durations": [], "counts": defaultdict(float)})
    for rec in spans:
        agg = out[rec[2]]
        agg["calls"] += 1
        agg["self"] += self_s[rec[0]]
        agg["durations"].append(rec[6] - rec[5])
        for key, value in (rec[7] or {}).items():
            if key == "rss_growth_mib":
                agg["counts"][key] = max(agg["counts"][key], value)
            else:
                agg["counts"][key] += value
    return out


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def _layer_metrics(s):
    """Per-layer metrics of one traced pass, from its span summary `s`
    (a defaultdict, so a span name the pass never saw reads as zero)."""
    def self_of(*names):
        return sum(s[n]["self"] for n in names)

    def calls(name):
        return s[name]["calls"]

    def count(name, key):
        return s[name]["counts"][key]

    cells = s["harness.cell"]["durations"]
    grid_s = self_of("covering.grid_cover")
    online_s = self_of("predictors.online")
    hindsight_s = self_of("experts.hindsight")
    minimax_s = self_of("shtarkov.minimax")
    return {
        "cli.self_s": self_of("cli.main"),
        "harness.cells": len(cells),
        "harness.cell_p50_s": statistics.median(cells) if cells else 0.0,
        "harness.cell_max_s": max(cells, default=0.0),
        "harness.self_s": self_of("harness.run_bench", "harness.cell", "harness.worst_case"),
        "harness.worst_case_s": sum(s["harness.worst_case"]["durations"]),
        "harness.worst_case_sequences": count("harness.worst_case", "sequences"),
        "covering.grid_cover_s": grid_s,
        "covering.cover_members": count("covering.grid_cover", "members"),
        "covering.members_per_s": _ratio(count("covering.grid_cover", "members"), grid_s),
        "covering.fat1_s": self_of("covering.fat1"),
        "covering.msoa_run_s": self_of("covering.msoa_run"),
        "covering.msoa_runs": calls("covering.msoa_run"),
        "covering.msoa_cover_s": self_of("covering.msoa_cover"),
        "covering.msoa_cover_members": count("covering.msoa_cover", "members"),
        "covering.fat_shattering_s": self_of("covering.fat_shattering"),
        "predictors.online_s": online_s,
        "predictors.expert_steps": count("predictors.online", "expert_steps"),
        "predictors.ns_per_expert_step": 1e9 * _ratio(online_s, count("predictors.online", "expert_steps")),
        "predictors.continuous_grid_s": self_of("predictors.continuous_grid"),
        "predictors.grid_members": count("predictors.continuous_grid", "members"),
        "predictors.mixture_runs": count("predictors.online", "mixture_runs"),
        "predictors.nml_s": self_of("predictors.nml"),
        "experts.hindsight_s": hindsight_s,
        "experts.hindsight_calls": calls("experts.hindsight"),
        "experts.hindsight_s_per_call": _ratio(hindsight_s, calls("experts.hindsight")),
        "experts.hard_class_build_s": self_of("experts.hard_class_build"),
        "shtarkov.minimax_s": minimax_s,
        "shtarkov.leaves": count("shtarkov.minimax", "leaves"),
        "shtarkov.leaves_per_s": _ratio(count("shtarkov.minimax", "leaves"), minimax_s),
        "shtarkov.minimax_rss_growth_mib": count("shtarkov.minimax", "rss_growth_mib"),
        "shtarkov.ds_sup_verify_s": self_of("shtarkov.ds_sup_verify"),
        "shtarkov.ds_grid_points": count("shtarkov.ds_sup_verify", "grid_points"),
        "shtarkov.closed_form_s": self_of("shtarkov.closed_form"),
        "shtarkov.hard_cert_s": self_of("shtarkov.hard_cert"),
        "shtarkov.mc_samples": count("shtarkov.hard_cert", "mc_samples"),
        "shtarkov.identification_s": self_of("shtarkov.identification"),
        "bounds.evaluations": calls("bounds.evaluate"),
        "bounds.evaluate_s": self_of("bounds.evaluate"),
        "losses.log_loss_calls": calls("losses.log_loss"),
        "losses.self_s": self_of("losses.log_loss"),
    }


def layer_metrics(spans):
    """Median over traced passes of each per-layer metric; RSS growth takes the max.

    ru_maxrss only grows, so the growth shows in the first pass that reaches
    a new peak and reads 0 afterwards.
    """
    self_s = _self_times(spans)
    by_pass = defaultdict(list)
    for rec in spans:
        by_pass[rec[4]].append(rec)
    per_pass = [_layer_metrics(_pass_summary(recs, self_s)) for recs in by_pass.values()]
    out = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        out[key] = max(values) if key.endswith("rss_growth_mib") else statistics.median(values)
    return out
