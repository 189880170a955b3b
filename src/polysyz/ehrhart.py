"""Ehrhart/Hilbert polynomials, integer roots and reciprocity."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from typing import Tuple

from .errors import ConsistencyError
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

    @cached_property
    def _scaled(self) -> Tuple[Tuple[int, ...], int]:
        """The coefficients times their common denominator, highest degree
        first, and that denominator, which divides n! for n the degree."""
        den = lcm(*(c.denominator for c in self.coeffs))
        return tuple(c.numerator * (den // c.denominator) for c in reversed(self.coeffs)), den

    def __call__(self, d: int) -> Fraction:
        """h(d) by integer Horner on the scaled coefficients, then one division."""
        nums, den = self._scaled
        acc = 0
        for c in nums:
            acc = acc * d + c
        return Fraction(acc, den)

    @cached_property
    def _roots(self) -> RootData:
        """The answer of `integer_root_count`, found on first use."""
        s = 0
        while s < self.degree and self(-(s + 1)) == 0:
            s += 1
        return RootData(r=s, integer_roots=tuple(range(-1, -s - 1, -1)))


@dataclass(frozen=True)
class RootData:
    r: int
    integer_roots: Tuple[int, ...]


def ehrhart_polynomial(P: LatticePolytope) -> EhrhartPolynomial:
    """The counting polynomial of P, computed once per polytope object and
    kept on it (`LatticePolytope.ehrhart`).

    It is interpolated through d = 0..dim P.  With D_k the k-th forward
    difference of the counts at d = 0, the polynomial is
    sum_k D_k binomial(d, k).  Times n! it is Q_0 in the integer Horner
    scheme Q_n = D_n, Q_k = (n!/k!) D_k + (d - k) Q_{k+1}, so only the final
    division by n! leaves the integers.
    """
    if P.ehrhart is None:
        # the field is not part of P's value, so filling it leaves P's
        # equality and hash as they were
        object.__setattr__(P, "ehrhart", _interpolate(P))
    return P.ehrhart


def _interpolate(P: LatticePolytope) -> EhrhartPolynomial:
    n = P.dim
    counts = [len(lattice_points(P, d)) for d in range(n + 1)]
    diffs = []
    while counts:
        diffs.append(counts[0])
        counts = [b - a for a, b in zip(counts, counts[1:])]
    q = []  # coefficients of Q_{k+1}, lowest degree first
    weight = 1  # n!/k!
    for k in range(n, -1, -1):
        q = [a - k * b for a, b in zip([0] + q, q + [0])]
        q[0] += weight * diffs[k]
        weight *= k
    # the leading coefficient is vol(P) > 0 for a full-dimensional P
    coeffs = [Fraction(c, factorial(n)) for c in q]
    h = EhrhartPolynomial(tuple(coeffs))
    if h.coeffs[0] != 1 or h.coeffs[-1] <= 0:
        raise ConsistencyError(f"invalid Ehrhart polynomial {coeffs}")
    return h


def integer_root_count(h: EhrhartPolynomial) -> RootData:
    """Largest s with h(-1) = ... = h(-s) = 0; roots counted as a set.
    Kept on h, whose coefficients never change, after the first call."""
    return h._roots


def r_of_polytope(P: LatticePolytope) -> int:
    """Largest r such that rP has no interior lattice point (0 for a point,
    which is its own interior)."""
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
