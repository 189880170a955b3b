"""The benchmark's tracer binds engine functions by name; keep those names."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_trace_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    absent = []
    for _, target, _, _ in tracing.HOOKS:
        modname, attr = target.split(":")
        if not callable(getattr(importlib.import_module(modname), attr, None)):
            absent.append(target)
    assert tracing.HOOKS and absent == []
