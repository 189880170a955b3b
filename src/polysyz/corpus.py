"""Reproducible pseudo-random polytope corpus for the property suites."""

from __future__ import annotations

import random
from typing import List

from .errors import DegenerateInput
from .lattice import LatticePolytope, normalize_full_dim


def generate_corpus(
    seed: int, count: int, dim: int, coord_bound: int
) -> List[LatticePolytope]:
    """Deterministic list of `count` distinct normalized dim-polytopes.

    Random vertex sets in [0, coord_bound]^dim, normalized to full dimension
    and deduplicated by their canonical (sorted) vertex tuple.
    """
    if not (1 <= dim <= 4 and 1 <= coord_bound <= 6) or count < 0:
        raise DegenerateInput(
            "corpus generation is desk-scale: 1 <= dim <= 4, 1 <= bound <= 6, count >= 0"
        )
    rng = random.Random(seed)
    seen = set()
    out: List[LatticePolytope] = []
    attempts = 0
    while len(out) < count:
        if attempts == 10000 * count:
            raise DegenerateInput(
                f"found {len(out)} of {count} distinct {dim}-polytopes in "
                f"[0, {coord_bound}]^{dim} after {attempts} attempts"
            )
        attempts += 1
        npts = rng.randint(dim + 1, dim + 3)
        pts = [
            tuple(rng.randint(0, coord_bound) for _ in range(dim))
            for _ in range(npts)
        ]
        P = normalize_full_dim(pts)
        if P.dim != dim:
            continue
        key = P.vertices
        if key in seen:
            continue
        seen.add(key)
        out.append(P)
    return out
