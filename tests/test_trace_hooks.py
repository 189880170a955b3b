"""The benchmark's tracer binds engine functions by name; keep those names."""

import importlib
import importlib.util
from pathlib import Path

from polysyz import betti_table, build_ring, koszul, ranks

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


def test_every_block_rank_goes_through_the_traced_name(cubic_triangle, monkeypatch):
    # the tracer times `koszul.rank`; an engine that ranks blocks under
    # another name, or falls back to the modular kernel, would zero its metrics
    def no_modulus(rows, p):
        raise AssertionError("the engine reached the modular kernel")

    monkeypatch.setattr(ranks, "rank_mod_p", no_modulus)
    traced = koszul.rank
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return traced(*args, **kwargs)

    monkeypatch.setattr(koszul, "rank", counted)
    table = betti_table(build_ring(cubic_triangle, 2, 5), 4, 4)
    assert table.get(4, 6) == 20  # N_4 fails, as the paper finds
    assert len(calls) > 0
