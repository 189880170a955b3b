from fractions import Fraction
from math import factorial

import pytest

from polysyz import (
    ConsistencyError,
    EhrhartPolynomial,
    LatticePolytope,
    ehrhart_polynomial,
    integer_root_count,
    lattice_points,
    normalize_full_dim,
    r_of_polytope,
    reciprocity_check,
)
from polysyz import ehrhart
from polysyz.corpus import generate_corpus


def test_unit_simplices_binomial():
    from math import comb

    for n in range(1, 5):
        verts = [(0,) * n] + [
            tuple(1 if k == i else 0 for k in range(n)) for i in range(n)
        ]
        h = ehrhart_polynomial(LatticePolytope.from_points(verts))
        assert h.degree == n
        for d in range(8):
            assert h(d) == comb(d + n, n)


def test_cubic_triangle_polynomial(cubic_triangle):
    h = ehrhart_polynomial(cubic_triangle)
    assert h.coeffs == (Fraction(1), Fraction(3, 2), Fraction(3, 2))


def test_one_polynomial_per_polytope(cubic_triangle):
    P = LatticePolytope.from_points(cubic_triangle.vertices)
    fresh = LatticePolytope.from_points(cubic_triangle.vertices)
    assert P.ehrhart is None  # from_points leaves it to the first use
    h = ehrhart_polynomial(P)
    assert ehrhart_polynomial(P) is h
    # the filled memo is not part of the polytope's value
    assert fresh.ehrhart is None
    assert P == fresh and hash(P) == hash(fresh) and repr(P) == repr(fresh)


def test_unit_square_polynomial(unit_square):
    h = ehrhart_polynomial(unit_square)
    assert [h(d) for d in range(5)] == [(d + 1) ** 2 for d in range(5)]


def test_integer_roots():
    tri = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)])
    data = integer_root_count(ehrhart_polynomial(tri))
    assert data.r == 2 and data.integer_roots == (-1, -2)

    sq = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    data = integer_root_count(ehrhart_polynomial(sq))
    assert data.r == 1 and data.integer_roots == (-1,)

    cubic = LatticePolytope.from_points([(1, 0), (0, 1), (1, 1), (2, 2)])
    assert integer_root_count(ehrhart_polynomial(cubic)).r == 0


def test_r_of_polytope(unit_triangle, cubic_triangle, simplex112):
    assert r_of_polytope(unit_triangle) == 2
    assert r_of_polytope(cubic_triangle) == 0
    assert r_of_polytope(simplex112) == 1
    # the point is its own interior, so already 1P has an interior point
    point = normalize_full_dim([(5, 7)])
    assert r_of_polytope(point) == 0
    assert integer_root_count(ehrhart_polynomial(point)).r == 0


def test_r_matches_root_count(corpus50):
    for P in corpus50[:15]:
        assert r_of_polytope(P) == integer_root_count(ehrhart_polynomial(P)).r


def test_reciprocity(unit_triangle, unit_square):
    assert reciprocity_check(unit_triangle, 3)
    assert reciprocity_check(unit_square, 4)
    # h = 1, and the point is its own interior in every dilation
    assert reciprocity_check(normalize_full_dim([(5, 7)]), 4)


def test_wrong_polynomial_is_seen(unit_square):
    # the unit square's (d + 1)^2 planted on a fresh unit triangle: its
    # reciprocity fails at d = 2, and its one root -1 gives r = 1, not 2
    triangle = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)])
    object.__setattr__(triangle, "ehrhart", ehrhart_polynomial(unit_square))
    assert not reciprocity_check(triangle, 2)
    with pytest.raises(ConsistencyError, match="Hilbert roots give r=1"):
        r_of_polytope(triangle)


def test_wrong_counts_are_refused(monkeypatch):
    # two points in every dilation interpolate to h = 2, whose constant
    # term is not 1
    monkeypatch.setattr(ehrhart, "lattice_points", lambda P, d: [(0, 0)] * 2)
    with pytest.raises(ConsistencyError, match="invalid Ehrhart polynomial"):
        ehrhart_polynomial(LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)]))


def test_out_of_sample_counts(corpus50):
    # the 4-D polytopes give degree-4 polynomials
    corpus4d = generate_corpus(seed=3, count=3, dim=4, coord_bound=2)
    for P in corpus50[:10] + corpus4d:
        h = ehrhart_polynomial(P)
        n = P.dim
        assert h.degree == n
        for d in (n + 1, n + 2):
            assert h(d) == len(lattice_points(P, d))


def test_structure_invariants(corpus50):
    for P in corpus50[:15]:
        h = ehrhart_polynomial(P)
        assert h(0) == 1 == h.coeffs[0]
        vol = h.coeffs[-1] * factorial(h.degree)
        assert vol.denominator == 1 and vol > 0


def test_integer_evaluation_matches_fraction_horner(corpus50):
    def fraction_horner(coeffs, d):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * d + c
        return acc

    for P in corpus50:
        h = ehrhart_polynomial(P)
        assert all(isinstance(c, Fraction) for c in h.coeffs)
        for d in range(-6, 11):
            value = h(d)
            assert isinstance(value, Fraction)
            assert value == fraction_horner(h.coeffs, d), (P.vertices, d)


def test_root_count_is_kept_on_the_polynomial(corpus50):
    # the memoized answer equals a fresh evaluation on a new polynomial object
    def fresh(coeffs):
        h = EhrhartPolynomial(coeffs)
        s = 0
        while s < h.degree and h(-(s + 1)) == 0:
            s += 1
        return s

    for P in corpus50:
        h = ehrhart_polynomial(P)
        data = integer_root_count(h)
        assert integer_root_count(h) is data
        assert data.r == fresh(h.coeffs), P.vertices
        assert data.integer_roots == tuple(range(-1, -data.r - 1, -1))
