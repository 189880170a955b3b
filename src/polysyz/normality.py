"""Normality of lattice polytopes via incremental sumset enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import DegenerateInput
from .lattice import LatticePoint, LatticePolytope, contains, lattice_points


@dataclass(frozen=True)
class NormalityReport:
    normal: bool
    checked_up_to: int
    witness: Optional[Tuple[LatticePoint, int]]


def is_normal(P: LatticePolytope, mmax: Optional[int] = None) -> NormalityReport:
    """Decide whether every point of mP is a sum of m points of P.

    The default bound m <= max(dim P - 1, 2) suffices for lattice polytopes
    (decompositions in higher degrees exist once they exist through n-1);
    checked_up_to records the bound actually used so callers can raise it.
    """
    n = P.dim
    if mmax is None:
        mmax = max(n - 1, 2)
    elif mmax < 0:
        raise DegenerateInput(f"need mmax >= 0, got {mmax}")
    gens = lattice_points(P, 1)
    sums = set(gens)
    for m in range(2, mmax + 1):
        sums = {
            tuple(a + b for a, b in zip(s, g)) for s in sums for g in gens
        }
        missing = sorted(set(lattice_points(P, m)) - sums)
        if missing:
            return NormalityReport(normal=False, checked_up_to=m, witness=(missing[0], m))
    return NormalityReport(normal=True, checked_up_to=mmax, witness=None)


def decompose(
    P: LatticePolytope, x: LatticePoint, m: int
) -> Optional[List[LatticePoint]]:
    """A decomposition x = p_1 + ... + p_m with p_i in P, or None.

    Exhaustive backtracking over the sorted generators with nondecreasing
    indices, pruning remainders that leave (m-k)P.
    """
    if not contains(P, m, x):
        raise ValueError(f"{x} does not lie in {m}P")
    gens = lattice_points(P, 1)

    def search(rem: LatticePoint, k: int, start: int):
        if k == 1:
            return [rem] if contains(P, 1, rem) else None
        for i in range(start, len(gens)):
            g = gens[i]
            nxt = tuple(a - b for a, b in zip(rem, g))
            if not contains(P, k - 1, nxt):
                continue
            tail = search(nxt, k - 1, i)
            if tail is not None:
                return [g] + tail
        return None

    return search(x, m, 0)
