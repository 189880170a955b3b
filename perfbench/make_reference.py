"""Regenerate `reference.json`: the benchmark's inputs and recorded answers.

Usage: python3 perfbench/make_reference.py

Every Betti table is computed with exact arithmetic in every rank
(`RankPolicy(certify=True)`), and the paper windows are checked against the
paper's (N_p) claims before anything is written.  The inputs are plain vertex
lists, so the benchmark does not depend on the package's corpus generator.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import polysyz  # noqa: E402
from polysyz.corpus import generate_corpus  # noqa: E402
from workloads import SLICE_MAX_POINTS, check_verdicts, criteria_pick, table_key  # noqa: E402

CUBIC = [(1, 0), (0, 1), (1, 1), (2, 2)]
SIMPLEX112 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)]
TRIANGLE = [(0, 0), (1, 0), (0, 1)]
SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]

# the paper's worked windows: (name, vertices, c, max_i, max_slope, holds, fails)
WINDOWS = (
    ("cubic_c1", CUBIC, 1, 1, 3, [0], [1]),
    ("cubic_c2", CUBIC, 2, 4, 4, [0, 1, 2, 3], [4]),
    ("simplex112_c2", SIMPLEX112, 2, 2, 5, [0, 1], [2]),
    ("triangle_c2", TRIANGLE, 2, 2, 4, [0, 1, 2], []),
)
EXACT = polysyz.RankPolicy(certify=True)


def certified_table(P, c, max_i, slope):
    ring = polysyz.build_ring(P, c, slope + 1)
    return ring, polysyz.betti_table(ring, max_i, slope, policy=EXACT)


def main():
    ref = {"windows": [], "sweep": [], "cli": []}
    for name, verts, c, max_i, slope, holds, fails in WINDOWS:
        P = polysyz.LatticePolytope.from_points(verts)
        ring, table = certified_table(P, c, max_i, slope)
        verdicts = polysyz.np_level(ring, max_i, slope, table=table)
        problem = check_verdicts(verdicts, holds, fails)
        if problem:
            raise SystemExit(f"{name}: {problem}")
        ref["windows"].append({
            "name": name, "vertices": [list(v) for v in verts], "c": c,
            "max_i": max_i, "max_slope": slope, "holds": holds, "fails": fails,
            "table": table_key(table.entries),
        })
        print(name, table_key(table.entries), flush=True)

    # the criterion-6 corpus of the acceptance suite
    corpus = generate_corpus(11, 30, 2, 3) + generate_corpus(7, 20, 3, 2)
    for P in corpus:
        picks = criteria_pick(polysyz, P)
        tables = {}
        for d, p, count in picks:
            if count <= SLICE_MAX_POINTS[P.dim]:
                _, table = certified_table(P, d, p, P.dim + 2)
                tables[str(d)] = table_key(table.entries)
        ref["sweep"].append({
            "vertices": [list(v) for v in P.vertices],
            "picks": [list(x) for x in picks],
            "tables": tables,
        })
        print(P.vertices, picks, flush=True)

    # CLI pool: the repository's example polytopes and the smallest 2-D corpus ones
    small = [P for P in generate_corpus(11, 30, 2, 3) if len(polysyz.lattice_points(P, 1)) <= 5]
    pool = [CUBIC, SIMPLEX112, SQUARE, TRIANGLE] + [P.vertices for P in small]
    ref["cli"] = [[list(v) for v in verts] for verts in pool]

    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
