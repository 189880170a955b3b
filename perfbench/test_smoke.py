"""Smoke tests of the benchmark itself: tiny inputs, one pass or two.

Run with: python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                     "--trace", str(trace), "--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    stamp = json.loads(lines[-2])
    return {**stamp["env"], **stamp["run"]}, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_metric_with_its_unit(capsys, workload, trace, section):
    env, result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == 0:
        assert all(result["metrics"][name]["value"] > 0 for name in expected)
    assert env["seed"] == 7 and env["python"] and env["nproc"] >= 1


def _off_by_one_betti(original):
    def wrong(ring, i, j, *args, **kwargs):
        return original(ring, i, j, *args, **kwargs) + (1 if (i, j) == (0, 0) else 0)

    return wrong


def _corrupt_hits(original):
    def corrupt(cache_dir, key):
        cached, path = original(cache_dir, key)
        return (cached + " " if cached is not None else None), path

    return corrupt


def patch_each_import(monkeypatch, change):
    """Apply `change` to every fresh import of polysyz that the run makes."""
    original = run.import_tree

    def import_tree(*args, **kwargs):
        api = original(*args, **kwargs)
        change(sys.modules)
        return api

    monkeypatch.setattr(run, "import_tree", import_tree)


@pytest.mark.parametrize("workload, target, fault", [
    ("windows", "polysyz.koszul:koszul_betti", _off_by_one_betti),
    ("sweep", "polysyz.koszul:koszul_betti", _off_by_one_betti),
    ("cli", "polysyz.cli:_cache_lookup", _corrupt_hits),
])
def test_wrong_answer_raises_fail_ratio(capsys, monkeypatch, workload, target, fault):
    name, attr = target.split(":")

    def inject(modules):
        monkeypatch.setattr(modules[name], attr, fault(getattr(modules[name], attr)))

    patch_each_import(monkeypatch, inject)
    _, result = bench(capsys, workload, 0)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert result["metrics"]["ok_ratio"]["value"] == 1 - result["failed"] / result["attempted"] < 1


def test_missing_hook_targets_read_as_absent(capsys, monkeypatch):
    # the smoke windows have no block above the exact threshold, so the
    # modular kernel is never called and can go, as it may in a later tree
    def remove(modules):
        monkeypatch.delattr(modules["polysyz.ranks"], "rank_mod_p")
        monkeypatch.delattr(modules["polysyz.ranks"], "BACKEND")

    patch_each_import(monkeypatch, remove)
    env, result = bench(capsys, "windows", 1)
    assert result["correct"]
    assert result["metrics"]["ranks.modp.calls"]["value"] == 0
    assert env["rank_backend"] is None
    assert env["absent_hooks"] == ["polysyz.ranks:rank_mod_p"]
