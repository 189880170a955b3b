"""polysyz engine benchmark: paper windows, criteria sweep and a CLI session.

Usage:
    python3 perfbench/run.py --workload {windows,sweep,cli} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from anywhere inside a checkout; polysyz is imported from the checkout's
`src`, as the tier-1 tests import it.  One process, one thread, one workload.

A run sets the workload up five times, each time importing polysyz afresh
(setup_s is the median), then runs whole passes over the workload for about
`--seconds`.  Every op is
checked against the recorded answers in `reference.json`; a wrong answer or an
exception counts as a failed op.  Times are scaled to the reference machine
speed of `calibrate.py`, pass by pass; op times are each op slot's median
over the passes and wall_s is the median pass.

`--trace 0` prints the end-to-end metrics.
`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics of `tracing.py`: per-pass medians of each layer's calls, self time and
counters, plus trace coverage and overhead.  `--smoke` shrinks every workload
to a few small inputs, for the benchmark's own tests.

The last line of stdout is the result object; the line before it stamps the
environment (rank kernel, Python, nproc, commit, source digest, seed).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from tracing import PER_LAYER, Tracer, unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
# tail percentile: the highest of these with at least 10 op slots beyond it
TAIL_LADDER = (99, 95, 90, 75, 50)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms",
    "peak_rss_mb": "MB", "ok_ratio": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    return ap.parse_args(argv)


def import_tree(fresh=False):
    """Import polysyz from this checkout's src, and refuse any other copy.

    With `fresh`, polysyz's modules are dropped first and run again; the
    third-party modules they import stay loaded.
    """
    if not (SRC / "polysyz" / "__init__.py").is_file():
        raise SystemExit(f"error: no polysyz source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [n for n in sys.modules if n == "polysyz" or n.startswith("polysyz.")]:
            del sys.modules[name]
    import polysyz
    import polysyz.cli  # noqa: F401  (the CLI workload's entry point)

    where = Path(polysyz.__file__).resolve().parent
    if where != (SRC / "polysyz").resolve():
        raise SystemExit(f"error: polysyz imported from {where}, not from {SRC}")
    return polysyz


def git_head():
    """The checked-out commit, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args):
    """Which rank kernel ran, on what; compare.py flags mismatched sides."""
    ranks = sys.modules.get("polysyz.ranks")
    kernel = getattr(ranks, "_kernel", None)
    kernel_file = getattr(kernel, "__file__", None)
    if kernel_file:
        kernel_file = os.path.relpath(kernel_file, ROOT)
    numpy = sys.modules.get("numpy")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rank_backend": getattr(ranks, "BACKEND", None),
        "rank_kernel": kernel_file,
        "compiled_kernels": sorted(str(p.relative_to(ROOT)) for p in SRC.rglob("_fastrank*.so")),
        "numpy": getattr(numpy, "__version__", None),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_head(),
        "src_sha256": source_digest(),
    }


class Pass:
    def __init__(self, wall, records, kernel, layers):
        self.wall = wall  # seconds, calibration excluded
        self.records = records  # [(slot, kind, seconds, error or None)]
        self.kernel = kernel  # calibration kernel times taken during the pass
        self.scale = calibrate.scale(kernel)
        self.layers = layers  # per-layer metrics of a traced pass, else None
        # peak resident set so far, in MB (Linux reports ru_maxrss in KiB)
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(workload, tracer=None):
    records, kernel = [], []
    clock = time.perf_counter
    last = [0.0]

    def calibrate_now():
        kernel.append(calibrate.sample())
        last[0] = clock()

    def op(slot, kind, fn):
        if clock() - last[0] >= calibrate.EVERY_S:
            calibrate_now()
        if tracer is not None:
            fn = tracer.wrap("op", fn)
        t = clock()
        try:
            error = fn()
        except Exception as exc:  # a raising op is a failed op, not a failed run
            error = f"{type(exc).__name__}: {exc}"
        records.append((slot, kind, clock() - t, error))

    with tracer if tracer is not None else contextlib.nullcontext():
        calibrate_now()
        start = clock()
        workload.run_pass(op)
        wall = clock() - start - sum(kernel[1:])
        calibrate_now()
    layers = tracer.summary(wall) if tracer is not None else None
    return Pass(wall, records, kernel, layers)


def measure(workload, seconds, trace):
    """Whole passes until a pass of median length would overrun `seconds`.

    With tracing, passes alternate untraced/traced and there is one of each.
    """
    passes, absent = [], []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        passes.append(run_pass(workload, tracer))
        if tracer is not None:
            absent = tracer.absent
        if trace and len(passes) < 2:
            continue
        typical = statistics.median(p.wall + sum(p.kernel) for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes, absent


def slot_times(passes, kinds=None):
    """Each op slot's median scaled time over the passes, for the given kinds."""
    times = defaultdict(list)
    for p in passes:
        for slot, kind, secs, _ in p.records:
            if kinds is None or kind in kinds:
                times[slot].append(secs * p.scale)
    return sorted(statistics.median(v) for v in times.values())


def scaled_wall(passes):
    return statistics.median(p.wall * p.scale for p in passes)


def tail(values):
    """(label, value): the highest ladder percentile with >= 10 values beyond it,
    or the maximum when there are fewer than 20 values."""
    n = len(values)
    for q in TAIL_LADDER:
        if n * (100 - q) / 100 >= 10:
            return f"p{q}", statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return "max", max(values)


def end_to_end(passes, setup_s, attempted, failed):
    ops = slot_times(passes)
    label, tail_value = tail(ops)
    metrics = {
        "setup_s": setup_s,
        "wall_s": scaled_wall(passes),
        "op_ms_p50": statistics.median(ops) * 1000,
        "op_ms_tail": tail_value * 1000,
        # after set-up and one pass: the in-process CLI harness keeps a few
        # objects per request, which a real one-shot CLI process never would
        "peak_rss_mb": passes[0].peak_rss_mb,
        "ok_ratio": 1 - failed / attempted,
    }
    info = {"tail": label, "op_slots": len(ops), "passes": len(passes),
            "op_samples": sum(len(p.records) for p in passes),
            "unscaled_wall_s": statistics.median(p.wall for p in passes)}
    return metrics, info


def per_layer(workload, untraced, traced):
    metrics = {}
    for name in PER_LAYER:
        values = [p.layers[name] * (p.scale if unit_of(name) == "s" else 1)
                  for p in traced if name in p.layers]
        metrics[name] = statistics.median(values) if values else 0
    is_cli = workload.name == "cli"
    metrics["cli.requests"] = len(traced[0].records) if is_cli else 0
    for kind in ("hit", "miss"):
        times = slot_times(untraced, {kind})
        metrics[f"cli.{kind}_ms_p50"] = statistics.median(times) * 1000 if times else 0.0
    metrics["trace.overhead_s"] = scaled_wall(traced) - scaled_wall(untraced)
    metrics["machine.kernel_ms"] = statistics.median(
        k for p in untraced + traced for k in p.kernel) * 1000
    info = {"passes": len(untraced), "traced_passes": len(traced)}
    return {name: metrics[name] for name in PER_LAYER}, info


def main(argv=None):
    args = parse_args(argv)
    ref = json.loads((HERE / "reference.json").read_text())
    make = WORKLOADS[args.workload]

    # The first import also loads click and numpy, once per process; each
    # timed set-up then imports polysyz afresh and builds the workload.
    kernel = [calibrate.sample() for _ in range(3)]
    t0 = time.perf_counter()
    import_tree()
    cold_import_s = time.perf_counter() - t0
    setups, workload = [], None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        t = time.perf_counter()
        api = import_tree(fresh=True)
        workload = make(api, ref, args.seed, smoke=args.smoke, workdir=ROOT)
        setups.append(time.perf_counter() - t)
        kernel.append(calibrate.sample())
    setup_s = statistics.median(setups) * calibrate.scale(kernel)

    try:
        passes, absent = measure(workload, args.seconds, args.trace)
    finally:
        workload.close()

    records = [r for p in passes for r in p.records]
    errors = [r[3] for r in records if r[3] is not None]
    for message in errors[:5]:
        print(f"wrong answer: {message}", file=sys.stderr)
    untraced = [p for p in passes if p.layers is None]
    if args.trace:
        metrics, info = per_layer(workload, untraced, [p for p in passes if p.layers is not None])
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics, info = end_to_end(untraced, setup_s, len(records), len(errors))
        units = END_TO_END_UNITS
    info["unscaled_setup_s"] = statistics.median(setups)
    info["cold_import_s"] = cold_import_s
    info["kernel_ms"] = statistics.median(k for p in passes for k in p.kernel) * 1000
    info["absent_hooks"] = absent
    print(json.dumps({"env": environment(args), "run": info}))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(records),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
