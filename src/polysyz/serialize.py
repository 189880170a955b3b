"""JSON interchange with exact fraction strings (never floating point)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from fractions import Fraction
from typing import Any, Dict, List

from .errors import DegenerateInput
from .koszul import BettiTable, NpVerdict
from .lattice import LatticePolytope, normalize_full_dim
from .normality import NormalityReport


def frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def polytope_from_json(data: Any) -> LatticePolytope:
    """Parse {"vertices": [[int,...],...]} and normalize to full dimension."""
    if not isinstance(data, dict) or "vertices" not in data:
        raise DegenerateInput('polytope JSON must be {"vertices": [[int,...],...]}')
    verts = data["vertices"]
    if not isinstance(verts, list):
        raise DegenerateInput("vertices must be a list")
    for v in verts:
        # type, not isinstance: bool is an int subclass, and true is no coordinate
        if not isinstance(v, list) or not all(type(c) is int for c in v):
            raise DegenerateInput(f"bad vertex {v!r}: expected a list of ints")
    return normalize_full_dim(verts)


def polytope_to_json(P: LatticePolytope) -> Dict[str, Any]:
    return {"vertices": [list(v) for v in P.vertices]}


def load_polytope(path: str) -> LatticePolytope:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # malformed JSON or undecodable text
            raise DegenerateInput(f"invalid JSON in {path}: {exc}") from exc
    return polytope_from_json(data)


def ehrhart_to_json(h) -> Dict[str, Any]:
    return {"coeffs": [frac_str(c) for c in h.coeffs], "degree": h.degree}


def normality_to_json(rep: NormalityReport) -> Dict[str, Any]:
    out: Dict[str, Any] = {"normal": rep.normal, "checked_up_to": rep.checked_up_to}
    if rep.witness is not None:
        point, m = rep.witness
        out["witness"] = {"point": list(point), "m": m}
    else:
        out["witness"] = None
    return out


def betti_to_json(table: BettiTable) -> Dict[str, Any]:
    return {
        "window": {"max_i": table.max_i, "max_slope": table.max_slope},
        "entries": {
            f"{i},{j}": v for (i, j), v in sorted(table.entries.items())
        },
    }


def betti_text_table(table: BettiTable) -> str:
    """Aligned text table: rows = slope j - i, columns = i."""
    cols = range(table.max_i + 1)
    lines = []
    header = ["slope\\i"] + [str(i) for i in cols]
    rows = []
    for s in range(table.max_slope + 1):
        row = [str(s)] + [
            str(table.get(i, i + s)) if table.get(i, i + s) else "."
            for i in cols
        ]
        rows.append(row)
    widths = [max(len(r[k]) for r in [header] + rows) for k in range(len(header))]
    for r in [header] + rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


def verdicts_to_json(verdicts: List[NpVerdict]) -> List[Dict[str, Any]]:
    """Each verdict's fields in declaration order, without the unset ones."""
    return [{k: x for k, x in asdict(v).items() if x is not None} for v in verdicts]


def criterion_to_json(res) -> Dict[str, Any]:
    """All fields in declaration order; json writes the tuple threshold of
    the adjoint criterion as a list."""
    return asdict(res)


def canonical_key(obj: Any) -> bytes:
    """Stable bytes for cache keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def content_hash(obj: Any) -> str:
    return hashlib.sha256(canonical_key(obj)).hexdigest()


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"
