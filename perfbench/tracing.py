"""Outside-in tracer: spans and counters around polysyz's module-level functions.

Nothing in the package is edited.  While a `Tracer` is active, each hooked
function is replaced, in every polysyz module namespace that holds it, by a
wrapper that records a span ``(layer, start, end, parent)``.  Hooks are bound
by name: a target that no longer exists is reported in `absent` and its
metrics read 0 instead of crashing the run.

Work the tracer does on a call's arguments or result (matrix fingerprints,
non-zero counts) is itself recorded as a ``trace`` span, so it is charged to
the tracer and not to the layer that made the call.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict


def _count_out(tracer, args, result):
    tracer.counters["lattice.points.out"] += len(result)


def _count_blocks(tracer, args, result):
    tracer.counters["koszul.blocks.count"] += len(result)


def _count_nnz(tracer, args, result):
    tracer.counters["koszul.diff.nnz"] += sum(len(col) for col in result)


def _count_zero(tracer, args, result):
    if result == 0:
        tracer.counters["koszul.strand.zero"] += 1


def _note_read(tracer, args, result):
    cached, path = result
    c = tracer.counters
    if path is not None:
        c["cli.cache.lookups"] += 1
    if cached is not None:
        c["cli.cache.hits"] += 1
        c["cli.cache.bytes"] += len(cached.encode())


def _note_write(tracer, args, result):
    if args[0] is not None:
        tracer.counters["cli.cache.bytes"] += len(args[1].encode())


DIM_BINS = ((16, "ranks.dim_lt16"), (49, "ranks.dim_16_48"), (128, "ranks.dim_49_127"))


def _note_matrix(tracer, args, result):
    rows = args[0]
    if not isinstance(rows, list) or (rows and not isinstance(rows[0], list)):
        return  # not the dense list-of-rows format; shape metrics skip it
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    c = tracer.counters
    c["ranks.shaped"] += 1
    c["ranks.cells"] += nrows * ncols
    big = max(nrows, ncols)
    c[next((name for limit, name in DIM_BINS if big < limit), "ranks.dim_ge128")] += 1
    tracer.distinct.add(hash((ncols, tuple(map(tuple, rows)))))


# (layer, "module:function", counter hook or None, bind in every polysyz module)
# exact_rank is bound in `ranks` only: the hull code calls the same function,
# and those calls are not Koszul ranks.
HOOKS = (
    ("lattice.points", "polysyz.lattice:lattice_points", _count_out, True),
    ("lattice.points", "polysyz.lattice:interior_lattice_points", _count_out, True),
    ("lattice.hull", "polysyz.lattice:normalize_full_dim", None, True),
    ("lattice.hull", "polysyz.lattice:convex_hull_facets", None, True),
    ("ehrhart", "polysyz.ehrhart:ehrhart_polynomial", None, True),
    ("ehrhart", "polysyz.ehrhart:integer_root_count", None, True),
    ("ehrhart", "polysyz.ehrhart:r_of_polytope", None, True),
    ("normality", "polysyz.normality:is_normal", None, True),
    ("criteria", "polysyz.criteria:cor1", None, True),
    ("criteria", "polysyz.criteria:cor_hilbert", None, True),
    ("criteria", "polysyz.criteria:cor_polytope", None, True),
    ("criteria", "polysyz.criteria:cor_prodproj", None, True),
    ("criteria", "polysyz.criteria:cor_canonical_product", None, True),
    ("cohomology", "polysyz.cohomology:ample_power_profile", None, True),
    ("cohomology", "polysyz.cohomology:coh_dim_ample_power", None, True),
    ("cohomology", "polysyz.cohomology:is_regular_single", None, True),
    ("cohomology", "polysyz.cohomology:product_profile", None, True),
    ("cohomology", "polysyz.cohomology:coh_dim_product", None, True),
    ("cohomology", "polysyz.cohomology:is_regular_product", None, True),
    ("cohomology", "polysyz.cohomology:predict_np_main", None, True),
    ("koszul.ring", "polysyz.koszul:build_ring", None, True),
    ("koszul.strand", "polysyz.koszul:koszul_betti", _count_zero, True),
    ("koszul.blocks", "polysyz.koszul:_level_blocks", _count_blocks, True),
    ("koszul.diff", "polysyz.koszul:_differential_columns", _count_nnz, True),
    ("koszul.dense", "polysyz.koszul:_dense", None, True),
    ("koszul.verify", "polysyz.koszul:k_polynomial_checksum", None, True),
    ("koszul.verify", "polysyz.koszul:compose_is_zero", None, True),
    ("ranks", "polysyz.koszul:rank", _note_matrix, True),
    ("ranks.exact", "polysyz.ranks:exact_rank", None, False),
    ("ranks.modp", "polysyz.ranks:rank_mod_p", None, True),
    ("serialize", "polysyz.serialize:load_polytope", None, True),
    ("serialize", "polysyz.serialize:dumps", None, True),
    ("serialize", "polysyz.serialize:betti_to_json", None, True),
    ("serialize", "polysyz.serialize:betti_text_table", None, True),
    ("serialize", "polysyz.serialize:verdicts_to_json", None, True),
    ("serialize", "polysyz.serialize:ehrhart_to_json", None, True),
    ("serialize", "polysyz.serialize:normality_to_json", None, True),
    ("serialize", "polysyz.serialize:criterion_to_json", None, True),
    ("serialize", "polysyz.serialize:canonical_key", None, True),
    ("serialize", "polysyz.serialize:content_hash", None, True),
    ("cli.cache.read", "polysyz.cli:_cache_lookup", _note_read, True),
    ("cli.cache.write", "polysyz.cli:_cache_store", _note_write, True),
)

# layers whose time including children is reported next to their self time
INCLUSIVE = ("ranks", "koszul.strand", "koszul.verify")

TIMED_LAYERS = (
    "op", "ranks", "ranks.exact", "ranks.modp", "koszul.dense", "koszul.diff",
    "koszul.blocks", "koszul.strand", "koszul.verify", "koszul.ring",
    "lattice.points", "lattice.hull", "ehrhart", "normality", "criteria",
    "cohomology", "serialize", "trace",
)

# every per-layer metric a traced run prints, in output order
PER_LAYER = (
    [f"{layer}.calls" for layer in TIMED_LAYERS if layer not in ("op", "trace")]
    + [f"{layer}.s" for layer in TIMED_LAYERS]
    + [f"{layer}.incl_s" for layer in INCLUSIVE]
    + [name for _, name in DIM_BINS] + ["ranks.dim_ge128", "ranks.cells", "ranks.distinct_ratio"]
    + ["koszul.diff.nnz", "koszul.blocks.count", "koszul.strand.zero_ratio", "lattice.points.out"]
    + ["cli.requests", "cli.hit_ms_p50", "cli.miss_ms_p50", "cli.cache.hit_ratio",
       "cli.cache.read_s", "cli.cache.write_s", "cli.cache.bytes"]
    + ["trace.spans", "trace.coverage", "trace.overhead_s", "machine.kernel_ms"]
)

UNITS = {"calls": "count", "s": "s", "incl_s": "s", "read_s": "s", "write_s": "s",
         "overhead_s": "s", "bytes": "bytes", "hit_ms_p50": "ms", "miss_ms_p50": "ms",
         "kernel_ms": "ms"}


def unit_of(metric: str) -> str:
    tail = metric.rsplit(".", 1)[1]
    if tail.endswith("ratio") or tail == "coverage":
        return "ratio"
    return UNITS.get(tail, "count")


class Tracer:
    """Spans and counters for one traced pass; `with tracer:` binds the hooks."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self.distinct = set()
        self.absent = []
        self._restore = []

    def wrap(self, layer, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent)
            if note is not None:
                note(self, args, result)
                spans.append(("trace", end, clock(), parent))
            return result

        return traced

    def __enter__(self):
        for layer, target, note, everywhere in HOOKS:
            modname, attr = target.split(":")
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(target)
                continue
            wrapper = self.wrap(layer, original, note)
            homes = [m for name, m in list(sys.modules.items())
                     if everywhere and (name == "polysyz" or name.startswith("polysyz."))]
            for home in homes or [module]:
                if vars(home).get(attr) is original:
                    self._restore.append((home, attr, original))
                    setattr(home, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for home, attr, original in reversed(self._restore):
            setattr(home, attr, original)
        self._restore.clear()
        return False

    def summary(self, wall: float) -> dict:
        """Per-layer metrics of the recorded pass, which took `wall` seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = Counter()
        top = 0.0
        for idx in range(len(spans) - 1, -1, -1):  # children follow their parents
            layer, start, end, parent = spans[idx]
            dur = end - start
            self_s[layer] += dur - child[idx]
            calls[layer] += 1
            if parent < 0:
                top += dur
            else:
                child[parent] += dur
            if parent < 0 or spans[parent][0] != layer:
                incl_s[layer] += dur
        c = self.counters
        out = {f"{layer}.calls": calls[layer] for layer in TIMED_LAYERS if layer not in ("op", "trace")}
        out.update({f"{layer}.s": self_s[layer] for layer in TIMED_LAYERS})
        out.update({f"{layer}.incl_s": incl_s[layer] for layer in INCLUSIVE})
        for name in [n for _, n in DIM_BINS] + ["ranks.dim_ge128", "ranks.cells",
                                                   "koszul.diff.nnz", "koszul.blocks.count",
                                                   "lattice.points.out", "cli.cache.bytes"]:
            out[name] = c[name]
        out["ranks.distinct_ratio"] = len(self.distinct) / c["ranks.shaped"] if c["ranks.shaped"] else 0.0
        strands = calls["koszul.strand"]
        out["koszul.strand.zero_ratio"] = c["koszul.strand.zero"] / strands if strands else 0.0
        lookups = c["cli.cache.lookups"]
        out["cli.cache.hit_ratio"] = c["cli.cache.hits"] / lookups if lookups else 0.0
        out["cli.cache.read_s"] = incl_s["cli.cache.read"]
        out["cli.cache.write_s"] = incl_s["cli.cache.write"]
        out["trace.spans"] = len(spans)
        out["trace.coverage"] = top / wall if wall > 0 else 0.0
        return out
