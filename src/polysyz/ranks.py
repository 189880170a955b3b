"""Exact ranks of integer matrices given by their sparse columns.

`rank` reduces the columns over the integers, one after another, against the
pivot columns found so far, each keyed by its leading (largest) row, until a
column vanishes or becomes a new pivot; the rank is the number of pivots
(the "standard algorithm" of persistent homology, Zomorodian-Carlsson 2005,
with no modulus).  Against a pivot whose leading entry p is +-1 the column
loses f * p times the pivot; against any other p it becomes p * column -
f * pivot, divided by the gcd of its entries: a nonzero rational multiple
of the column plus a combination of pivots, so the span over Q, and with it
the rank, is unchanged.  Python ints never overflow, so every rank is exact.
The engine ranks the Morse maps of Koszul blocks (`koszul`): each entry is
a sum over gradient paths of products of +-1, so any integer, though the
matrices are small and sparse.

Passing certify=True ranks the dense rows of the same matrix by Bareiss
elimination instead (`intlinalg.exact_rank`), an independent exact reference.

`rank_mod_p` and `BACKEND` have no engine caller: the benchmark's tracer
(perfbench/tracing.py) pins both names, and they go when it stops doing so.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, Tuple

from .intlinalg import exact_rank

BACKEND = "python"


@dataclass(frozen=True)
class RankPolicy:
    certify: bool = False  # Bareiss on dense rows instead of the sparse kernel


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) of an integer matrix given as a list of rows."""
    # pivot rows are keyed by their leading (largest) column and stored
    # scaled so that entry is 1, with the entry itself left out
    pivots: Dict[int, Dict[int, int]] = {}
    for row in rows:
        r = {j: w for j, v in enumerate(row) if v and (w := v % p)}
        while r:
            lead = max(r)
            f = r.pop(lead)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(f, -1, p)
                pivots[lead] = {j: v * inv % p for j, v in r.items()}
                break
            for j, v in piv.items():
                w = (r.get(j, 0) - f * v) % p
                if w:
                    r[j] = w
                else:
                    del r[j]
    return len(pivots)


def rank(matrix, policy: RankPolicy = RankPolicy()) -> int:
    """Rank over Q of an integer matrix.

    `matrix` is a list of sparse columns {row: value}, or, under
    policy.certify, the same matrix as a list of dense rows.
    """
    if policy.certify:
        return exact_rank(matrix)
    # pivot columns keyed by their leading row: (leading entry, the rest)
    pivots: Dict[int, Tuple[int, Dict[int, int]]] = {}
    for col in matrix:
        c = {i: v for i, v in col.items() if v}
        while c:
            lead = max(c)
            f = c.pop(lead)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = (f, c)
                break
            p, rest = pivot
            unit = p == 1 or p == -1
            if unit:
                f *= p
            else:
                c = {i: p * v for i, v in c.items()}
            for i, v in rest.items():
                w = c.get(i, 0) - f * v
                if w:
                    c[i] = w
                else:
                    del c[i]
            if not unit and c:
                g = gcd(*c.values())
                if g > 1:
                    c = {i: v // g for i, v in c.items()}
    return len(pivots)
