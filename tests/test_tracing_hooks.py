"""The traced benchmark rebinds seqpa names listed in perfbench/tracing.py;
a rename or deletion of one of them must fail here, not only there."""

import types
from pathlib import Path

import seqpa.cli  # noqa: F401  (loads every module the tracer rebinds)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    # exec the source rather than import it, so nothing is written under perfbench/
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves_to_a_callable():
    hooks = _load_tracing().HOOKS
    assert hooks
    for owner, attr, *_ in hooks:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is not callable"
