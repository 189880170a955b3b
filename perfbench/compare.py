"""Summarize benchmark runs, or compare two sets of them.

Usage:
    python3 perfbench/compare.py BASE [CHANGE]

BASE and CHANGE are files (or directories of files) holding the stdout of
`run.py` runs, one or more runs per file.  For each workload and metric it
prints the median, the quartiles (`statistics.quantiles(values, n=4)`) and
the spread (q3 - q1) / median.  With CHANGE it also prints the change of the
median in the metric's "worse" direction, as a share of BASE's median, next
to the bound from BENCHMARK.json, and warns when the two sides ran different
rank kernels or Python versions: such a comparison does not measure the code.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# environment fields that must agree for two sides to be comparable
KERNEL_FIELDS = ("rank_backend", "rank_kernel", "compiled_kernels", "python", "nproc")


def load(path):
    """{(workload, trace): {"runs": [metrics...], "envs": [env...]}} from run output."""
    files = sorted(p for p in Path(path).rglob("*") if p.is_file()) if Path(path).is_dir() else [Path(path)]
    groups = defaultdict(lambda: {"runs": [], "envs": []})
    for f in files:
        env = None
        for line in f.read_text().splitlines():
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "env" in obj:
                env = obj["env"]
            elif "metrics" in obj and env is not None:
                group = groups[(env["workload"], env["trace"])]
                group["runs"].append({k: v["value"] for k, v in obj["metrics"].items()})
                group["envs"].append(env)
                if not obj["correct"]:
                    print(f"warning: {f}: {obj['failed']} of {obj['attempted']} ops wrong")
    return groups


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def kernels(envs):
    return {tuple((k, json.dumps(e.get(k))) for k in KERNEL_FIELDS) for e in envs}


def main(argv):
    if not 1 <= len(argv) <= 2:
        raise SystemExit(__doc__)
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load(argv[0])
    change = load(argv[1]) if len(argv) == 2 else None
    for key in sorted(base):
        workload, trace = key
        runs = base[key]["runs"]
        print(f"\n{workload} (trace {trace}), {len(runs)} runs")
        if change is not None and key in change:
            a, b = kernels(base[key]["envs"]), kernels(change[key]["envs"])
            if len(a | b) > 1:
                print(f"WARNING: sides ran different kernels or Pythons: {sorted(a | b)}")
        for name in runs[0]:
            med, q1, q3, spread = stats([r[name] for r in runs])
            meta = bounds.get(name, {})
            line = f"  {name:28s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:6.3f}"
            if "bound" in meta:
                line += f"  bound {meta['bound']}"
            if change is not None and key in change:
                other = statistics.median(r[name] for r in change[key]["runs"])
                worse = (other - med) / med if med else 0.0
                if meta.get("better") == "higher":
                    worse = -worse
                line += f"  change {other:<12.6g} worse by {worse:+.3f}"
                if "bound" in meta and worse > meta["bound"]:
                    line += "  REGRESSION"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
