"""The sufficiency criteria for (N_p), as auditable certificates.

Each predicate echoes the invariants it computed (dimension, Hilbert degree,
root count, thresholds) so that predicted-vs-verified comparisons can be
reported.  All criteria are one-directional: "not guaranteed" never means
the property fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from .cohomology import check_product
from .ehrhart import ehrhart_polynomial, integer_root_count, r_of_polytope
from .errors import DegenerateInput
from .lattice import LatticePolytope, dilate
from .normality import is_normal


@dataclass(frozen=True)
class CriterionResult:
    criterion: str
    inputs: Dict[str, Any] = field(compare=False)
    guaranteed_p: Optional[int] = None
    threshold: Any = None

    @property
    def guaranteed(self) -> bool:
        return self.guaranteed_p is not None


def cor1(n: int, d: int, p: int) -> CriterionResult:
    """L^d satisfies (N_p) on an n-dimensional toric variety once d >= n-1+p."""
    if p < 0:
        raise DegenerateInput("the dimension criterion requires p >= 0")
    threshold = n - 1 + p
    return CriterionResult(
        criterion="dimension_bound",
        inputs={"n": n, "d": d, "p": p},
        guaranteed_p=p if d >= threshold else None,
        threshold=threshold,
    )


def cor_hilbert(P: LatticePolytope, d: int, p: int) -> CriterionResult:
    """Sharper bound d >= max(deg h - r + p - 1, p) using the Hilbert data."""
    if p < 1:
        raise DegenerateInput("the Hilbert-root criterion requires p >= 1")
    h = ehrhart_polynomial(P)
    r = integer_root_count(h).r
    threshold = max(h.degree - r + p - 1, p)
    return CriterionResult(
        criterion="hilbert_roots",
        inputs={"n": P.dim, "deg_h": h.degree, "r": r, "d": d, "p": p},
        guaranteed_p=p if d >= threshold else None,
        threshold=threshold,
    )


def cor_polytope(P: LatticePolytope, crosscheck: bool = True) -> CriterionResult:
    """The dilation (n - r(P)) P is normal; vacuous when the factor is 0.

    With crosscheck=True the claim is re-verified by the sumset engine.
    """
    n = P.dim
    r = r_of_polytope(P)
    factor = n - r
    inputs: Dict[str, Any] = {"n": n, "r": r, "factor": factor}
    if factor == 0:
        inputs["vacuous"] = True
        return CriterionResult(
            criterion="polytope_normality", inputs=inputs, threshold=factor
        )
    if crosscheck:
        report = is_normal(dilate(P, factor))
        inputs["crosscheck_normal"] = report.normal
    return CriterionResult(
        criterion="polytope_normality",
        inputs=inputs,
        guaranteed_p=0,
        threshold=factor,
    )


def cor_prodproj(
    n: Sequence[int], d: Sequence[int], p: int
) -> CriterionResult:
    """O(d_1,...,d_l) on a product of projective spaces satisfies (N_p)
    for p up to the minimum of the nonzero d_i."""
    if p < 0:
        raise DegenerateInput("the Segre-Veronese criterion requires p >= 0")
    check_product(n, d)
    nz = [di for di in d if di != 0]
    threshold = min(nz) if nz else None
    ok = threshold is not None and p <= threshold
    return CriterionResult(
        criterion="segre_veronese",
        inputs={"n": list(n), "d": list(d), "p": p},
        guaranteed_p=p if ok else None,
        threshold=threshold,
    )


def cor_canonical_product(
    n: Sequence[int], m: Sequence[int], p: int
) -> CriterionResult:
    """Adjoint criterion on a product of projective spaces, unit weights.

    K_X = O(-n_1-1, ..., -n_l-1); with w_i = (1,...,1) the bundle
    K_X (x) B^{m_k} satisfies (N_p) for k = N+p summed weights (N+1+p when
    the product is a single projective space).  O(m) is guaranteed once
    m >= k*(1,...,1) + K coordinatewise.
    """
    if p < 1:
        raise DegenerateInput("the adjoint criterion requires p >= 1")
    check_product(n, m)
    ell = len(n)
    total = sum(n)
    count = total + p if ell >= 2 else total + 1 + p
    threshold = tuple(count - nk - 1 for nk in n)
    ok = all(mk >= tk for mk, tk in zip(m, threshold))
    return CriterionResult(
        criterion="adjoint_product",
        inputs={"n": list(n), "m": list(m), "p": p, "summed_weights": count},
        guaranteed_p=p if ok else None,
        threshold=threshold,
    )
