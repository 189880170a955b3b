"""Lattice polytopes with exact integer arithmetic.

Points are plain tuples of ints.  A polytope is stored by its irredundant
vertex set together with a minimal inequality description; all dilations
share the facet normals (the offset scales with the dilation factor).

The lattice points of dP are enumerated fibre by fibre, the one-step case of
project-and-lift enumeration (as in Normaliz, Bruns-Ichim-Soeger): fixing all
coordinates but the last turns every facet inequality into a bound on the
last coordinate, read off in exact integer arithmetic, so the walk visits the
points of dP and one interval per prefix, never the rest of the bounding box.

The lattice automorphism group Aut(P) is the set of unimodular affine maps
x -> A x + b (A in GL_n(Z), b in Z^n) with A P + b = P.  Such a map sends
vertices to vertices and edges to edges of the same lattice length (the gcd
of the edge vector's coordinates), and it is fixed by where it sends one
vertex v0 and the ends w_1, ..., w_n of n linearly independent edges at v0:
with E the matrix of the edge vectors w_k - v0 and E' that of their
images, A = E' E^{-1} = E' adj(E) / det(E) and b = v0' - A v0.  So
`automorphisms` takes for v0 a vertex whose signature (the number of facets
through it and the lengths of its edges) the fewest vertices share, and the
first n edges at it with det(E) != 0; it tries every vertex v0' of that
signature and every injective choice of edges at v0' with the lengths of
the chosen ones, and keeps a map when E' adj(E) is divisible by det(E) and
A, b then permute the vertices off the base (they send the base where it
was chosen to go by construction).  Those two tests suffice: an affine map that permutes the vertices maps P onto P
and so preserves volume, |det A| = 1, and an integral A of determinant +-1
is unimodular.  Everything is integer arithmetic.  Two vertices span an edge
exactly when no third vertex lies on every facet through both (the facets
through both cut out the least face holding them), a test that holds in
every dimension, 0 and 1 included.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd
from operator import mul, sub
from typing import Any, Iterable, List, Tuple

from .errors import DegenerateInput, DimensionMismatch
from .intlinalg import adjugate, exact_rank, kernel_basis, solve_in_hnf_basis

LatticePoint = Tuple[int, ...]
# x -> A x + b, with A as its rows
AffineMap = Tuple[Tuple[LatticePoint, ...], LatticePoint]


@dataclass(frozen=True)
class HalfSpace:
    """The closed half-space {x : <normal, x> >= offset}."""

    normal: LatticePoint
    offset: int

    def eval(self, x: LatticePoint) -> int:
        return sum(a * b for a, b in zip(self.normal, x)) - self.offset


@dataclass(frozen=True)
class LatticePolytope:
    vertices: Tuple[LatticePoint, ...]
    facets: Tuple[HalfSpace, ...]
    ambient_dim: int
    dim: int
    # the Ehrhart polynomial, stored by `ehrhart.ehrhart_polynomial` on first
    # use; it is not part of the polytope's value, its repr or its hash
    ehrhart: Any = field(default=None, init=False, repr=False, hash=False, compare=False)
    # Aut(P), stored by `automorphisms` on first use, kept out of the
    # polytope's value the same way
    symmetries: Any = field(default=None, init=False, repr=False, hash=False, compare=False)

    @classmethod
    def from_points(cls, points: Iterable[LatticePoint]) -> "LatticePolytope":
        """Build a full-dimensional polytope from a spanning point set.

        Raises DegenerateInput if the points do not span the ambient space;
        run normalize_full_dim first in that case.

        The facets through a point cut out the least face that holds it, and
        every face is the hull of the input points on it.  So a point is a
        vertex exactly when no other input point lies on every facet it lies
        on, tested as inclusion of facet bitmasks.
        """
        pts, _ = _point_set(points)
        n = len(pts[0])
        if n == 0:
            return _POINT
        facets = tuple(convex_hull_facets(pts))
        tight = [sum(1 << k for k, f in enumerate(facets) if f.eval(p) == 0) for p in pts]
        verts = tuple(
            p for a, (p, mask) in enumerate(zip(pts, tight))
            if not any(b != a and other & mask == mask for b, other in enumerate(tight))
        )
        return cls(vertices=verts, facets=facets, ambient_dim=n, dim=n)


# the one 0-dimensional polytope: a point in the 0-dimensional lattice
_POINT = LatticePolytope(vertices=((),), facets=(), ambient_dim=0, dim=0)


def _point_set(
    points: Iterable[LatticePoint],
) -> Tuple[List[LatticePoint], List[LatticePoint]]:
    """(pts, diffs): the distinct points as sorted int tuples, and each later
    point minus the first.  Refuses an empty set and points of mixed length."""
    pts = sorted({tuple(int(c) for c in p) for p in points})
    if not pts:
        raise DegenerateInput("empty point set")
    p0 = pts[0]
    if any(len(p) != len(p0) for p in pts):
        raise DimensionMismatch("points of mixed dimension")
    return pts, [tuple(map(sub, p, p0)) for p in pts[1:]]


def convex_hull_facets(points: Iterable[LatticePoint]) -> List[HalfSpace]:
    """Minimal H-representation of a full-dimensional hull.

    Exhaustive search over dim-element point subsets with a one-sidedness
    check.  Exact and perfectly adequate at desk scale (<= ~30 points).
    A subset's normal is the saturated integer kernel of its dim - 1
    differences: one primitive vector exactly when the subset is affinely
    independent.  Normals point inward; facets sort by (normal, offset).
    """
    pts, diffs = _point_set(points)
    n = len(pts[0])
    if n == 0:
        return []
    if exact_rank(diffs) < n:
        raise DegenerateInput(
            "point set is not full-dimensional; normalize_full_dim first"
        )
    found = {}
    for p0, *rest in itertools.combinations(pts, n):
        kernel = kernel_basis([list(map(sub, p, p0)) for p in rest], ncols=n)
        if len(kernel) != 1:
            continue
        normal = tuple(kernel[0])
        h = sum(map(mul, normal, p0))
        vals = [sum(map(mul, normal, p)) for p in pts]
        if min(vals) < h:
            if max(vals) > h:
                continue
            normal, h = tuple(-a for a in normal), -h
        found[normal, h] = HalfSpace(normal, h)
    return sorted(found.values(), key=lambda f: (f.normal, f.offset))


def normalize_full_dim(points: Iterable[LatticePoint]) -> LatticePolytope:
    """Re-embed a point set so its affine lattice span fills the ambient lattice.

    The new coordinates are taken with respect to a basis of the *saturated*
    lattice Z^n intersected with the affine span, so lattice point counts of
    every dilation are preserved.  Already full-dimensional input is returned
    unchanged (no translation); a single point becomes the 0-dimensional
    polytope.  Raises DimensionMismatch on points of mixed length.
    """
    pts, diffs = _point_set(points)
    n = len(pts[0])
    if exact_rank(diffs) == n:
        return LatticePolytope.from_points(pts)
    equations = kernel_basis(diffs, ncols=n)
    basis = kernel_basis(equations, ncols=n)
    new_pts = [solve_in_hnf_basis(basis, d) for d in [(0,) * n] + diffs]
    return LatticePolytope.from_points(new_pts)


def _fibre_walk(P: LatticePolytope, d: int, strict: bool) -> List[LatticePoint]:
    """Lattice points x of dP, in lexicographic order, with
    <normal, x> >= d * offset on every facet, or > when `strict`.

    Normals and offsets are integers, so the strict test is the closed one
    with the threshold t = d * offset + 1.  The prefixes x' = (x_1, ...,
    x_{n-1}) run over the bounding box of dP; for each, a facet
    <a', x'> + a_n * y >= t bounds the last coordinate y by rest = t - <a', x'>:
    a_n > 0 gives y >= ceil(rest / a_n), a_n < 0 gives y <= floor(rest / a_n),
    and a_n = 0 holds for every y or for none, as rest <= 0 or not.  The fibre
    is the interval these bounds leave inside the box, so only points of dP
    are visited.  In ambient dimension 0 the one point () is returned.
    """
    if d < 0:
        raise DegenerateInput("dilation must be nonnegative")
    n = P.ambient_dim
    if n == 0:
        return [()]
    los = [d * min(v[i] for v in P.vertices) for i in range(n)]
    his = [d * max(v[i] for v in P.vertices) for i in range(n)]
    cuts = [(f.normal[:-1], f.normal[-1], d * f.offset + int(strict)) for f in P.facets]
    out = []
    for x in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los[:-1], his[:-1]))):
        lo, hi = los[-1], his[-1]
        for head, a, t in cuts:
            rest = t - sum(map(mul, head, x))
            if a > 0:
                lo = max(lo, -(-rest // a))
            elif a < 0:
                hi = min(hi, rest // a)
            elif rest > 0:
                break
        else:
            out.extend(x + (y,) for y in range(lo, hi + 1))
    return out


def lattice_points(P: LatticePolytope, d: int) -> List[LatticePoint]:
    """All lattice points of the dilation dP, sorted lexicographically."""
    return _fibre_walk(P, d, strict=False)


def interior_lattice_points(P: LatticePolytope, d: int) -> List[LatticePoint]:
    """Lattice points in the relative interior of dP: the closed points on
    no facet hyperplane.  A single point is its own relative interior."""
    return _fibre_walk(P, d, strict=True)


def contains(P: LatticePolytope, d: int, x: LatticePoint) -> bool:
    """Membership of x in the closed dilation dP, for d >= 0."""
    if d < 0:
        raise DegenerateInput("dilation must be nonnegative")
    if len(x) != P.ambient_dim:
        raise DimensionMismatch(
            f"point of length {len(x)} in ambient dimension {P.ambient_dim}"
        )
    return all(
        sum(a * b for a, b in zip(f.normal, x)) >= d * f.offset for f in P.facets
    )


def dilate(P: LatticePolytope, k: int) -> LatticePolytope:
    """The polytope kP (vertices scaled by k)."""
    if k < 1:
        raise DegenerateInput("dilation factor must be >= 1")
    return LatticePolytope.from_points(
        tuple(k * c for c in v) for v in P.vertices
    )


def automorphisms(P: LatticePolytope) -> Tuple[AffineMap, ...]:
    """Aut(P), every (A, b) with x -> A x + b unimodular and A P + b = P,
    sorted; found once per polytope object and kept on it
    (`LatticePolytope.symmetries`).  The search is in the module docstring."""
    if P.symmetries is None:
        object.__setattr__(P, "symmetries", _find_automorphisms(P))
    return P.symmetries


def _find_automorphisms(P: LatticePolytope) -> Tuple[AffineMap, ...]:
    verts, n = P.vertices, P.ambient_dim
    m = len(verts)
    tight = [sum(1 << k for k, f in enumerate(P.facets) if f.eval(v) == 0) for v in verts]
    # edges[a]: (the other end b, the edge vector b - a, its lattice length)
    edges = [[] for _ in verts]
    for a, b in itertools.combinations(range(m), 2):
        common = tight[a] & tight[b]
        if not any(k != a and k != b and t & common == common for k, t in enumerate(tight)):
            e = tuple(map(sub, verts[b], verts[a]))
            length = gcd(*e)
            edges[a].append((b, e, length))
            edges[b].append((a, tuple(-x for x in e), length))
    sig = [(t.bit_count(), sorted(x for _, _, x in e)) for t, e in zip(tight, edges)]
    # the base: the vertex v0 with the fewest candidate images, and the first
    # n edges at it with det E != 0
    a0 = min(range(m), key=lambda a: (sig.count(sig[a]), a))
    v0 = verts[a0]
    for base in itertools.combinations(edges[a0], n):
        det, adj = adjugate(list(zip(*(e for _, e, _ in base))))
        if det:
            break
    adj_cols = list(zip(*adj))
    lengths = [x for _, _, x in base]
    # the map sends v0 to v1 and each base end to its image by construction,
    # so only the other vertices are checked
    rest = [v for a, v in enumerate(verts) if a != a0 and all(a != w for w, _, _ in base)]
    found = []
    for a1, v1 in enumerate(verts):
        if sig[a1] != sig[a0]:
            continue
        for images in itertools.permutations(edges[a1], n):
            if any(x != y for (_, _, x), y in zip(images, lengths)):
                continue
            # A det = E' adj(E), E' with the columns w'_k - v1
            A = [[sum(map(mul, row, col)) for col in adj_cols]
                 for row in zip(*(e for _, e, _ in images))]
            if any(x % det for row in A for x in row):
                continue
            A = [[x // det for x in row] for row in A]
            b = [y - sum(map(mul, row, v0)) for y, row in zip(v1, A)]
            left = set(verts).difference([v1], (verts[w] for w, _, _ in images))
            if {tuple(sum(map(mul, row, v)) + y for row, y in zip(A, b)) for v in rest} == left:
                found.append((tuple(map(tuple, A)), tuple(b)))
    return tuple(sorted(found))
