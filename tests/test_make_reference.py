"""`perfbench/make_reference.py` recomputes the benchmark's recorded answers
with certified ranks; check that it still reproduces them, without running
its `main` or writing anything."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from polysyz import LatticePolytope

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.fixture(scope="module")
def make_reference():
    # the script puts src/ and perfbench/ on sys.path and imports `workloads`
    # from there; both are put back as they were afterwards
    path, modules = list(sys.path), set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_make_reference", PERFBENCH / "make_reference.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            del sys.modules[name]


def test_certified_windows_match_the_reference(make_reference):
    recorded = REFERENCE["windows"]
    assert [w["name"] for w in recorded] == [w[0] for w in make_reference.WINDOWS]
    for window in recorded:
        P = LatticePolytope.from_points(map(tuple, window["vertices"]))
        _, table = make_reference.certified_table(
            P, window["c"], window["max_i"], window["max_slope"]
        )
        assert make_reference.table_key(table.entries) == window["table"], window["name"]


def test_certified_sweep_tables_match_the_reference(make_reference):
    # every recorded sweep table, each at the pick it was recorded for
    checked = 0
    for entry in REFERENCE["sweep"]:
        P = LatticePolytope.from_points(map(tuple, entry["vertices"]))
        for d, p, _ in entry["picks"]:
            if str(d) in entry["tables"]:
                _, table = make_reference.certified_table(P, d, p, P.dim + 2)
                assert make_reference.table_key(table.entries) == entry["tables"][str(d)], entry
                checked += 1
    assert checked == sum(len(entry["tables"]) for entry in REFERENCE["sweep"]) > 50
