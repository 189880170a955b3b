"""The three benchmark workloads.

Each workload is built from a seed and the recorded inputs in
`reference.json`, and runs one *pass* at a time.  A pass calls
``op(slot, kind, fn)`` once per operation; `fn` does the work through the
public API or the CLI and returns None when the answer is right, or a string
saying what is wrong.  Slots are the op's position in the pass, the same in
every pass, so the runner can take per-slot medians over passes.

The seed picks a small unimodular map (a signed coordinate permutation plus a
translation) for every polytope, and the order of the sweep and the CLI
session.  It never picks which inputs run: the amount of work must not depend
on the seed, or the spread between runs would measure the seed and not the
code.  Betti tables, criteria and lattice point counts are invariant under
these maps, so one set of recorded answers checks every seed.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from pathlib import Path

# Sweep slice: criterion-6 jobs whose ring has at most this many degree-1
# lattice points.  The criterion-6 limit is 24 for both dimensions; one 3-D
# job at that limit takes over a minute, so the slice keeps each pass at a few
# seconds while still mixing 2-D and 3-D rings.
SLICE_MAX_POINTS = {2: 14, 3: 11}
SWEEP_MAX_POINTS = 24


def map_points(rng: random.Random, points):
    """Image of `points` under a random signed permutation plus a shift."""
    n = len(points[0])
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    shift = [rng.randint(-2, 2) for _ in range(n)]
    return [tuple(signs[k] * p[perm[k]] + shift[k] for k in range(n)) for p in points]


def table_key(entries) -> dict:
    return {f"{i},{j}": b for (i, j), b in sorted(entries.items())}


def check_verdicts(verdicts, holds=(), fails=()):
    """None if every p in `holds` is not FAILS and every p in `fails` is FAILS.

    PROVEN and VERIFIED_UP_TO both count as "not FAILS".
    """
    status = {v.p: v.status for v in verdicts}
    for p in holds:
        if status.get(p) in (None, "FAILS"):
            return f"N_{p} expected to hold, got {status.get(p)}"
    for p in fails:
        if status.get(p) != "FAILS":
            return f"N_{p} expected to fail, got {status.get(p)}"
    return None


class Windows:
    """The four paper windows, each through the whole public pipeline."""

    name = "windows"

    def __init__(self, api, ref, seed, smoke=False, workdir=None):
        rng = random.Random(seed)
        windows = ref["windows"]
        if smoke:
            windows = [w for w in windows if w["name"] in ("cubic_c1", "triangle_c2")]
        self.api = api
        self.items = [
            (w, api.LatticePolytope.from_points(map_points(rng, w["vertices"])))
            for w in windows
        ]

    def run_pass(self, op):
        for slot, (w, P) in enumerate(self.items):
            op(slot, "op", lambda w=w, P=P: self.window(w, P))

    def window(self, w, P):
        api = self.api
        c, max_i, slope = w["c"], w["max_i"], w["max_slope"]
        ring = api.build_ring(P, c, slope + 1)
        table = api.betti_table(ring, max_i, slope)
        verdicts = api.np_level(ring, max_i, slope, table=table)
        checksum = api.k_polynomial_checksum(table)
        dd = all(
            api.compose_is_zero(ring, i, j)
            for i in range(1, max_i + 1)
            for j in range(i, i + slope + 1)
        )
        if table_key(table.entries) != w["table"]:
            return f"{w['name']}: table {table_key(table.entries)} != {w['table']}"
        if not checksum:
            return f"{w['name']}: K-polynomial checksum fails"
        if not dd:
            return f"{w['name']}: d o d != 0"
        return check_verdicts(verdicts, w["holds"], w["fails"])

    def close(self):
        pass


def criteria_pick(api, P):
    """The criterion-6 choice: for each d, the largest p a criterion guarantees.

    Returns [(d, p, |dP cap Z^n|)] for the d whose lattice point count is
    within the sweep limit.
    """
    n = P.dim
    guarantees = {}
    for d in range(1, 5):
        for p in (0, 1, 2):
            results = [api.cor1(n, d, p)]
            if p >= 1:
                results.append(api.cor_hilbert(P, d, p))
            if any(r.guaranteed for r in results):
                guarantees[d] = max(guarantees.get(d, -1), p)
    rp = api.cor_polytope(P, crosscheck=False)
    if rp.guaranteed and 1 <= rp.threshold <= 4:
        guarantees[rp.threshold] = max(guarantees.get(rp.threshold, -1), 0)
    picked = []
    for d, p in sorted(guarantees.items()):
        count = len(api.lattice_points(P, d))
        if count <= SWEEP_MAX_POINTS:
            picked.append((d, p, count))
    return picked


class Sweep:
    """A slice of the criterion-6 soundness sweep over the mixed 2-D/3-D corpus."""

    name = "sweep"

    def __init__(self, api, ref, seed, smoke=False, workdir=None):
        rng = random.Random(seed)
        corpus = list(ref["sweep"][:3] if smoke else ref["sweep"])
        rng.shuffle(corpus)
        self.max_points = {2: 6, 3: 6} if smoke else SLICE_MAX_POINTS
        self.api = api
        self.items = [
            (e, api.LatticePolytope.from_points(map_points(rng, e["vertices"])))
            for e in corpus
        ]

    def run_pass(self, op):
        slot = 0
        for entry, P in self.items:
            picked = []
            op(slot, "op", lambda e=entry, P=P, out=picked: self.pick(e, P, out))
            slot += 1
            for d, p, count in picked:
                if count > self.max_points[P.dim]:
                    continue
                op(slot, "op", lambda e=entry, P=P, d=d, p=p: self.job(e, P, d, p))
                slot += 1

    def pick(self, entry, P, out):
        out.extend(criteria_pick(self.api, P))
        expected = [tuple(x) for x in entry["picks"]]
        if out != expected:
            return f"criteria picked {out}, recorded {expected}"
        return None

    def job(self, entry, P, d, p):
        api = self.api
        slope = P.dim + 2
        ring = api.build_ring(P, d, slope + 1)
        table = api.betti_table(ring, p, slope)
        checksum = api.k_polynomial_checksum(table)
        verdicts = api.np_level(ring, p, slope, table=table)
        expected = entry["tables"].get(str(d))
        if expected is None:
            return f"d={d}: no recorded table for this job"
        if table_key(table.entries) != expected:
            return f"d={d}: table {table_key(table.entries)} != {expected}"
        if not checksum:
            return f"d={d}: K-polynomial checksum fails"
        return check_verdicts(verdicts, holds=range(p + 1))

    def close(self):
        pass


# cheap requests, run once per pool polytope per session
CHEAP = (
    ["count", "{f}", "--d", "2"],
    ["ehrhart", "{f}"],
    ["roots", "{f}"],
    ["normality", "{f}"],
    ["cohomology", "{f}", "--d", "-2"],
    ["regularity", "{f}", "--m", "1"],
    ["predict", "{f}", "--w1", "2", "--p", "1"],
    ["criteria", "{f}", "--d", "2", "--p", "1"],
)
PRODUCT = (
    ["cohomology", "--product", "1,2", "--d", "1,1"],
    ["regularity", "--product", "2,2", "--m", "0,0"],
    ["criteria", "--product", "2,2", "--d", "2,2", "--p", "2"],
)
# small c=1 windows; each is requested this many times per session
WINDOWS = (["betti", "{f}", "--c", "1"], ["np", "{f}", "--c", "1"])
REPEATS = 3


class CliSession:
    """In-process CLI requests; a fresh cache directory for every pass."""

    name = "cli"

    def __init__(self, api, ref, seed, smoke=False, workdir=None):
        from click.testing import CliRunner
        from polysyz.cli import cli

        rng = random.Random(seed)
        pool = ref["cli"][:2] if smoke else ref["cli"]
        self.cli = cli
        self.runner = CliRunner()
        self.work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=workdir))
        requests = [list(args) for args in PRODUCT]
        for k, vertices in enumerate(pool):
            f = self.work / f"p{k}.json"
            f.write_text(json.dumps({"vertices": [list(v) for v in map_points(rng, vertices)]}))
            fill = lambda args: [str(f) if a == "{f}" else a for a in args]  # noqa: E731
            requests += [fill(args) for args in CHEAP]
            requests += [fill(args) for args in WINDOWS for _ in range(REPEATS)]
        rng.shuffle(requests)
        seen = set()
        self.requests = []
        for args in requests:
            cached = args[0] in ("betti", "np")
            key = tuple(args)
            kind = "op" if not cached else ("hit" if key in seen else "miss")
            seen.add(key)
            self.requests.append((args, kind))
        self.passes = 0

    def run_pass(self, op):
        cache = self.work / f"cache{self.passes}"
        self.passes += 1
        first = {}
        for slot, (args, kind) in enumerate(self.requests):
            if kind != "op":
                args = args + ["--cache-dir", str(cache)]
            op(slot, kind, lambda a=args, k=kind: self.request(a, k, first))
        shutil.rmtree(cache, ignore_errors=True)

    def request(self, args, kind, first):
        result = self.runner.invoke(self.cli, args)
        out = result.stdout
        if result.exit_code != 0:
            return f"{args[0]} exited {result.exit_code}: {result.output.strip()[:200]}"
        try:
            json.loads(out)
        except ValueError:
            return f"{args[0]} printed no JSON: {out[:200]!r}"
        key = tuple(args)
        if kind == "miss":
            first[key] = out
        elif kind == "hit" and first.get(key) != out:
            return f"{args[0]} cache hit differs from its miss"
        return None

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Windows, Sweep, CliSession)}
