"""The traced benchmark rebinds seqpa names listed in perfbench/tracing.py
and its workloads read seqpa names in perfbench/workloads.py, passing some
of them keyword arguments; a rename or deletion of one of those names or
parameters must fail here, not only there."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import seqpa.cli  # noqa: F401  (loads every module the tracer rebinds)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _load_tracing():
    # exec the source rather than import it, so nothing is written under perfbench/
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _seqpa_modules(tree):
    """The names a source binds with `from seqpa import ...`."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "seqpa"
            for alias in node.names}


def _seqpa_reads(path):
    """(module, name) for every `<module>.<name>` read of a module the
    source imports with `from seqpa import ...`."""
    tree = ast.parse(path.read_text())
    modules = _seqpa_modules(tree)
    return {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def _seqpa_keywords(path):
    """(module, name, keyword) for every named argument of a `<module>.<name>(...)`
    call to a module the source imports with `from seqpa import ...`."""
    tree = ast.parse(path.read_text())
    modules = _seqpa_modules(tree)
    return {(node.func.value.id, node.func.attr, kw.arg) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
            for kw in node.keywords if kw.arg is not None}


def _keys_read(node):
    """String keys a counter reads from its arguments mapping (the second
    parameter of every function or lambda inside `node`)."""
    keys = set()
    for fn in ast.walk(node):
        if isinstance(fn, (ast.FunctionDef, ast.Lambda)) and len(fn.args.args) == 2:
            arg = fn.args.args[1].arg
            keys |= {sub.slice.value for sub in ast.walk(fn)
                     if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                     and sub.value.id == arg and isinstance(sub.slice, ast.Constant)}
    return keys


def _counter_keys():
    """For each HOOKS entry, in order, the argument names its counter reads."""
    tree = ast.parse(TRACING.read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    hooks = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "HOOKS" for t in node.targets))
    out = []
    for entry in hooks.elts:
        counter = entry.elts[3]
        if isinstance(counter, ast.Call):  # a counter factory such as _count_members(key)
            counter = counter.func
        if isinstance(counter, ast.Name):
            counter = functions[counter.id]
        out.append(_keys_read(counter))
    return out


def test_every_traced_name_resolves_to_a_callable():
    hooks = _load_tracing().HOOKS
    assert hooks
    for owner, attr, *_ in hooks:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is not callable"


def test_every_seqpa_name_the_workloads_read_resolves():
    reads = _seqpa_reads(WORKLOADS) | _seqpa_reads(TRACING)
    assert ("covering", "cover_size_bound") in reads
    assert ("shtarkov", "minimax_value") in reads
    missing = [f"{mod}.{name}" for mod, name in sorted(reads)
               if not hasattr(importlib.import_module(f"seqpa.{mod}"), name)]
    assert not missing, f"perfbench reads names seqpa no longer has: {missing}"


def test_every_argument_a_counter_reads_is_a_parameter():
    hooks = _load_tracing().HOOKS
    keys = _counter_keys()
    assert len(keys) == len(hooks)
    assert {"cap", "grid_cap", "trials", "labels", "features", "family",
            "predictor"} <= set().union(*keys)
    for (owner, attr, *_), read in zip(hooks, keys):
        params = inspect.signature(getattr(owner, attr)).parameters
        absent = sorted(read - params.keys())
        assert not absent, f"{owner.__name__}.{attr} has no parameters {absent}"


def test_every_keyword_perfbench_passes_is_a_parameter():
    calls = _seqpa_keywords(WORKLOADS) | _seqpa_keywords(TRACING)
    assert {("covering", "msoa_run", "cache"), ("shtarkov", "hard_class_certificate", "trials"),
            ("covering", "DiscretizedFamily", "levels"),
            ("predictors", "MixturePredictor", "truncation")} <= calls
    absent = []
    for mod, name, keyword in sorted(calls):
        callee = getattr(importlib.import_module(f"seqpa.{mod}"), name)
        if keyword not in inspect.signature(callee).parameters:
            absent.append(f"{mod}.{name}({keyword}=...)")
    assert not absent, f"perfbench passes keywords seqpa no longer takes: {absent}"
