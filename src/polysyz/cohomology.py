"""Combinatorial sheaf cohomology and regularity predicates.

Two contexts are supported: powers of a single ample bundle given by its
lattice polytope (sections = lattice points, negative twists concentrated in
top degree via Serre duality / reciprocity), and products of projective
spaces via the Kunneth rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, Optional, Sequence, Tuple

from .errors import DegenerateInput
from .lattice import LatticePolytope, interior_lattice_points, lattice_points


@dataclass(frozen=True)
class CohomologyProfile:
    context: str
    query: Tuple[int, ...]
    dims: Dict[int, int]

    def euler(self) -> int:
        return sum((-1) ** i * d for i, d in self.dims.items())


def coh_dim_ample_power(P: LatticePolytope, d: int, i: int) -> int:
    """dim H^i of the d-th power of the ample bundle with polytope P."""
    n = P.dim
    if i < 0 or i > n:
        return 0
    if d >= 0:
        return len(lattice_points(P, d)) if i == 0 else 0
    return len(interior_lattice_points(P, -d)) if i == n else 0


def ample_power_profile(P: LatticePolytope, d: int) -> CohomologyProfile:
    return CohomologyProfile(
        context="ample_power",
        query=(d,),
        dims={i: coh_dim_ample_power(P, d, i) for i in range(P.dim + 1)},
    )


def is_regular_single(P: LatticePolytope, m: int) -> bool:
    """O_X-regularity of L^m with respect to L (the ell = 1 case)."""
    return all(coh_dim_ample_power(P, m - i, i) == 0 for i in range(1, P.dim + 1))


def _proj_space_dim(n: int, a: int, i: int) -> int:
    """dim H^i(P^n, O(a))."""
    if i == 0 and a >= 0:
        return comb(a + n, n)
    if i == n and a <= -n - 1:
        return comb(-a - 1, n)
    return 0


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def check_product(n: Sequence[int], a: Sequence[int]) -> None:
    """Refuse a product of projective spaces P^{n_1} x ... x P^{n_l} with a
    twist of another length than n, or with a factor dimension below 1."""
    if len(n) != len(a):
        raise DegenerateInput("factor dimensions and twist lengths differ")
    if any(nk < 1 for nk in n):
        raise DegenerateInput(f"factor dimensions must be at least 1, got {list(n)}")


def coh_dim_product(
    n: Sequence[int], a: Sequence[int], i: int
) -> int:
    """dim H^i(P^{n_1} x ... x P^{n_l}, O(a)) by the Kunneth formula."""
    check_product(n, a)
    if i < 0 or i > sum(n):
        return 0
    total = 0
    for comp in _compositions(i, len(n)):
        term = 1
        for nk, ak, ik in zip(n, a, comp):
            term *= _proj_space_dim(nk, ak, ik)
            if term == 0:
                break
        total += term
    return total


def product_profile(n: Sequence[int], a: Sequence[int]) -> CohomologyProfile:
    check_product(n, a)
    return CohomologyProfile(
        context="product",
        query=tuple(a),
        dims={i: coh_dim_product(n, a, i) for i in range(sum(n) + 1)},
    )


def is_regular_product(n: Sequence[int], a: Sequence[int]) -> bool:
    """O_X-regularity of O(a) on a product of projective spaces.

    Checks H^i(O(a - u)) = 0 for every i >= 1 and every u in N^l with
    |u| = i; the range of i is bounded by the total dimension.
    """
    check_product(n, a)
    ell = len(n)
    for i in range(1, sum(n) + 1):
        for u in _compositions(i, ell):
            twist = tuple(ak - uk for ak, uk in zip(a, u))
            if coh_dim_product(n, twist, i) != 0:
                return False
    return True


@dataclass(frozen=True)
class WeightPlan:
    """Weight sequence w_1, ..., w_p with partial sums m_i = w_1 + ... + w_i."""

    ell: int
    weights: Tuple[Tuple[int, ...], ...]
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise DegenerateInput(f"p must be at least 1, got {self.p}")
        if len(self.weights) < self.p:
            raise DegenerateInput("need at least p weight vectors")
        if any(len(w) != self.ell for w in self.weights):
            raise DegenerateInput("weight vector of wrong length")

    def m(self, i: int) -> Tuple[int, ...]:
        acc = (0,) * self.ell
        for w in self.weights[:i]:
            acc = tuple(a + b for a, b in zip(acc, w))
        return acc

    def membership_ok(self) -> bool:
        """Sufficient test that B^{w_i} (x) B_j^{-1} stays in the semigroup:
        every weight vector has all coordinates >= 1."""
        return all(all(c >= 1 for c in w) for w in self.weights[: self.p])


def predict_np_main(
    plan: WeightPlan, regular_m1: bool, membership_ok: bool
) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """If the hypotheses hold, the twist m_p is predicted to satisfy (N_p).

    The prediction is one-directional: no prediction is not a failure.
    """
    if not (regular_m1 and membership_ok):
        return None
    return plan.p, plan.m(plan.p)


def single_plan(w1: int, p: int) -> WeightPlan:
    """ell = 1 plan with first weight w1 and subsequent weights 1."""
    return WeightPlan(
        ell=1, weights=((w1,),) + ((1,),) * max(p - 1, 0), p=p
    )
