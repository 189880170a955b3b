"""Property tests (hypothesis) against the brute-force oracles.

Examples are derandomized and no example database is kept, so the suite
runs the same cases every time; `conftest.py` keeps hypothesis' on-disk
cache out of the working tree.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polysyz import koszul
from polysyz import (
    DegenerateInput,
    LatticePolytope,
    betti_table,
    build_ring,
    compose_is_zero,
    interior_lattice_points,
    koszul_betti,
    lattice_points,
)
from polysyz.lattice import normalize_full_dim

from .oracles import box_points, dense_betti, dense_compose_is_zero

PROPERTY = settings(derandomize=True, database=None, deadline=None)


@st.composite
def polygons(draw, bound, max_points):
    """A lattice polygon in [0, bound]^2 with at most `max_points` lattice points."""
    coord = st.integers(0, bound)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=5, unique=True))
    P = normalize_full_dim(pts)
    assume(P.dim == 2 and len(lattice_points(P, 1)) <= max_points)
    return P


@st.composite
def lattice_polytopes(draw):
    """A full-dimensional lattice polytope in 1, 2 or 3 dimensions with
    coordinates in [-2, 2]: the hull of random points, or a prism over one,
    whose side facets are parallel to the last axis (last normal entry 0)."""
    n = draw(st.integers(1, 3))
    coord = st.integers(-2, 2)
    if n > 1 and draw(st.booleans()):
        base = draw(st.lists(st.tuples(*[coord] * (n - 1)), min_size=n, max_size=4, unique=True))
        lo, hi = sorted(draw(st.lists(coord, min_size=2, max_size=2, unique=True)))
        pts = [b + (lo,) for b in base] + [b + (hi,) for b in base]
    else:
        pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=6, unique=True))
    try:
        return LatticePolytope.from_points(pts)
    except DegenerateInput:
        assume(False)


@settings(PROPERTY, max_examples=150)
@given(lattice_polytopes())
def test_fibre_walk_is_the_box_filter(P):
    for d in range(5):
        assert lattice_points(P, d) == box_points(P, d, strict=False), d
        assert interior_lattice_points(P, d) == box_points(P, d, strict=True), d


# these generate GL2(Z); short words give small entries
GENERATORS = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1)))


def _product(word):
    m = ((1, 0), (0, 1))
    for g in word:
        m = tuple(
            tuple(sum(m[r][k] * g[k][c] for k in range(2)) for c in range(2))
            for r in range(2)
        )
    return m


unimodular = st.lists(st.sampled_from(GENERATORS), max_size=4).map(_product)
translations = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(PROPERTY, max_examples=30)
@given(polygons(bound=2, max_points=5))
def test_koszul_matches_dense_oracle(P):
    # c = 1, i <= 2, j - i <= 2; koszul_betti clamps above reg, the oracle never does
    ring = build_ring(P, 1, 3)
    for i in range(3):
        for j in range(i, i + 3):
            assert koszul_betti(ring, i, j) == dense_betti(ring, i, j), (i, j)


@settings(PROPERTY, max_examples=30)
@given(polygons(bound=2, max_points=5))
def test_compose_matches_dense_oracle(P):
    # c = 1, i <= 3, j - i <= 2: the grouped d o d check against the product
    # of the dense strand matrices
    ring = build_ring(P, 1, 3)
    for i in range(4):
        for j in range(i, i + 3):
            assert compose_is_zero(ring, i, j) == dense_compose_is_zero(ring, i, j), (i, j)


@settings(PROPERTY, max_examples=40)
@given(polygons(bound=3, max_points=8), unimodular, translations)
def test_betti_table_is_unimodular_invariant(P, A, t):
    image = [
        tuple(sum(A[r][k] * v[k] for k in range(2)) + t[r] for r in range(2))
        for v in P.vertices
    ]
    Q = normalize_full_dim(image)
    assert Q.dim == 2

    def entries(R):
        return betti_table(build_ring(R, 1, 4), 3, 3).entries

    assert entries(Q) == entries(P)


@settings(PROPERTY, max_examples=25)
@given(data=st.data())
def test_betti_table_is_independent_of_the_matching_order(corpus50, data):
    # any order of the element matchings is acyclic, so the table cannot
    # depend on it; the corpus rings with dim V <= 8 at c = 1, 2
    rings = [
        (P, c) for P in corpus50[::3] for c in (1, 2) if len(lattice_points(P, c)) <= 8
    ]
    P, c = data.draw(st.sampled_from(rings))
    ring = build_ring(P, c, P.dim + 3)
    order = data.draw(st.permutations(range(ring.dim_V)))
    expected = betti_table(ring, 2, P.dim + 1).entries
    asked = []

    def drawn_order(count):
        asked.append(True)
        return [v for v in order if count[v]]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(koszul, "_matching_order", drawn_order)
        assert betti_table(ring, 2, P.dim + 1).entries == expected
    assert asked
