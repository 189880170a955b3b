"""Ehrhart/Hilbert polynomials, integer roots and reciprocity."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import ConsistencyError, DegenerateInput
from .lattice import LatticePolytope, interior_lattice_points, lattice_points


@dataclass(frozen=True)
class EhrhartPolynomial:
    """Rational polynomial counting |dP| at integer dilations d.

    coeffs are lowest-degree-first; constant term is always 1.
    """

    coeffs: Tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, d: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * d + c
        return acc


@dataclass(frozen=True)
class RootData:
    r: int
    integer_roots: Tuple[int, ...]


def ehrhart_polynomial(P: LatticePolytope) -> EhrhartPolynomial:
    """Interpolate the counting polynomial through d = 0..dim P."""
    n = P.dim
    counts = [len(lattice_points(P, d)) for d in range(n + 1)]
    # Newton forward differences; exact over Q.
    table = [Fraction(c) for c in counts]
    diffs = [table[0]]
    for level in range(1, n + 1):
        table = [table[i + 1] - table[i] for i in range(len(table) - 1)]
        diffs.append(table[0])
    # sum_k diffs[k] * binomial(d, k), expanded into monomial coefficients
    coeffs = [Fraction(0)] * (n + 1)
    falling = [Fraction(1)]  # coefficients of d(d-1)...(d-k+1)
    from math import factorial

    for k, dk in enumerate(diffs):
        if k > 0:
            # multiply falling factorial by (d - (k-1))
            new = [Fraction(0)] * (len(falling) + 1)
            for i, c in enumerate(falling):
                new[i + 1] += c
                new[i] -= c * (k - 1)
            falling = new
        scale = dk / factorial(k)
        for i, c in enumerate(falling):
            coeffs[i] += scale * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    h = EhrhartPolynomial(tuple(coeffs))
    if h.coeffs[0] != 1 or h.coeffs[-1] <= 0:
        raise ConsistencyError(f"invalid Ehrhart polynomial {coeffs}")
    return h


def integer_root_count(h: EhrhartPolynomial) -> RootData:
    """Largest s with h(-1) = ... = h(-s) = 0; roots counted as a set."""
    s = 0
    while s < h.degree and h(-(s + 1)) == 0:
        s += 1
    return RootData(r=s, integer_roots=tuple(range(-1, -s - 1, -1)))


def r_of_polytope(P: LatticePolytope) -> int:
    """Largest r such that rP has no interior lattice point."""
    if P.dim < 1:
        raise DegenerateInput("r(P) needs dim >= 1")
    r = 0
    while r <= P.dim and not interior_lattice_points(P, r + 1):
        r += 1
    if __debug__:
        alt = integer_root_count(ehrhart_polynomial(P)).r
        if alt != r:
            raise ConsistencyError(
                f"interior search gives r={r}, Hilbert roots give r={alt}"
            )
    return r


def reciprocity_check(P: LatticePolytope, dmax: int) -> bool:
    """(-1)^n h(-d) must equal the interior count of dP for 1 <= d <= dmax."""
    n = P.dim
    h = ehrhart_polynomial(P)
    for d in range(1, dmax + 1):
        if (-1) ** n * h(-d) != len(interior_lattice_points(P, d)):
            return False
    return True
