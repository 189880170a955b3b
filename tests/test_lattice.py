import itertools
from math import gcd

import pytest

from polysyz import (
    DegenerateInput,
    DimensionMismatch,
    LatticePolytope,
    contains,
    convex_hull_facets,
    dilate,
    interior_lattice_points,
    lattice_points,
    normalize_full_dim,
)

from .oracles import hull_area_twice, in_hull


def facet_set(P):
    return {(f.normal, f.offset) for f in P.facets}


class TestConvexHullFacets:
    def test_unit_triangle(self, unit_triangle):
        assert facet_set(unit_triangle) == {
            ((1, 0), 0),
            ((0, 1), 0),
            ((-1, -1), -1),
        }

    def test_cubic_triangle(self, cubic_triangle):
        # x+y >= 1, x-2y >= -2, 2x-y <= 2
        assert facet_set(cubic_triangle) == {
            ((1, 1), 1),
            ((1, -2), -2),
            ((-2, 1), -2),
        }

    def test_simplex112(self, simplex112):
        # z >= 0, 2x-z >= 0, 2y-z >= 0, 2x+2y-z <= 2
        assert facet_set(simplex112) == {
            ((0, 0, 1), 0),
            ((2, 0, -1), 0),
            ((0, 2, -1), 0),
            ((-2, -2, 1), -2),
        }

    def test_facets_against_membership_oracle(self, cubic_triangle, corpus2d, corpus3d):
        # the facets cut out the hull on its bounding box plus a margin of 1,
        # and every normal is primitive
        for P in [cubic_triangle] + corpus2d + corpus3d:
            n = P.ambient_dim
            box = itertools.product(*(
                range(min(v[i] for v in P.vertices) - 1, max(v[i] for v in P.vertices) + 2)
                for i in range(n)
            ))
            for x in box:
                assert contains(P, 1, x) == in_hull(P.vertices, x)
            assert all(gcd(*f.normal) == 1 for f in P.facets)

    def test_degenerate_reported(self):
        with pytest.raises(DegenerateInput):
            convex_hull_facets([(0, 0, 0), (1, 1, 0), (0, 0, 2)])

    def test_mixed_dimension_refused(self):
        with pytest.raises(DimensionMismatch):
            convex_hull_facets([(0, 0), (1, 0, 0), (0, 1), (1, 1)])

    def test_redundant_input_points_dropped(self):
        P = LatticePolytope.from_points([(0, 0), (2, 0), (0, 2), (1, 1), (1, 0)])
        assert P.vertices == ((0, 0), (0, 2), (2, 0))


class TestVertices:
    # the exhaustive barycentric search costs C(m - 1, n + 1) solves for each
    # vertex of an m-point set, so it runs on the sets of at most 12 points
    ORACLE_POINTS = 12

    def test_vertices_of_lattice_point_sets(self, corpus2d, corpus3d):
        # the vertices of kP read off the facets of its lattice points, and
        # each point a vertex exactly when the other points' hull misses it
        checked = 0
        for P in corpus2d + corpus3d[::4]:
            for k in (1, 2):
                pts = lattice_points(P, k)
                verts = LatticePolytope.from_points(pts).vertices
                assert verts == tuple(sorted(tuple(k * x for x in v) for v in P.vertices))
                if len(pts) <= self.ORACLE_POINTS:
                    for a, x in enumerate(pts):
                        assert (x in verts) == (not in_hull(pts[:a] + pts[a + 1:], x)), (P, k, x)
                    checked += 1
        assert checked > 40, checked


class TestNormalizeFullDim:
    def test_already_full_dimensional_unchanged(self):
        P = normalize_full_dim([(0, 0), (2, 0), (0, 2)])
        assert P.dim == 2
        assert P.vertices == ((0, 0), (0, 2), (2, 0))

    def test_planar_in_3d_preserves_counts(self):
        verts = [(0, 0, 0), (1, 1, 0), (0, 0, 2)]
        P = normalize_full_dim(verts)
        assert P.dim == 2 and P.ambient_dim == 2
        for d in range(4):
            brute = sum(
                1
                for x in _box(verts, d)
                if in_hull(verts, x, d)
            )
            assert len(lattice_points(P, d)) == brute

    def test_single_point(self):
        P = normalize_full_dim([(5, 7)])
        assert P.dim == 0
        assert lattice_points(P, 3) == [()]

    def test_mixed_dimension_refused(self):
        # zip would truncate the longer point and leave a 1-D segment
        with pytest.raises(DimensionMismatch):
            normalize_full_dim([(0, 0), (1, 0, 0)])

    def test_idempotent_facets(self, cubic_triangle):
        again = normalize_full_dim(cubic_triangle.vertices)
        assert facet_set(again) == facet_set(cubic_triangle)


def _box(verts, d):
    n = len(verts[0])
    los = [d * min(v[i] for v in verts) for i in range(n)]
    his = [d * max(v[i] for v in verts) for i in range(n)]
    return itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his)))


class TestLatticePoints:
    def test_cubic_triangle_d1(self, cubic_triangle):
        assert lattice_points(cubic_triangle, 1) == [(0, 1), (1, 0), (1, 1), (2, 2)]

    def test_unit_triangle_d2(self, unit_triangle):
        assert len(lattice_points(unit_triangle, 2)) == 6

    def test_simplex112_d1(self, simplex112):
        assert lattice_points(simplex112, 1) == [
            (0, 0, 0),
            (0, 1, 0),
            (1, 0, 0),
            (1, 1, 2),
        ]

    def test_d0_is_origin(self, cubic_triangle):
        assert lattice_points(cubic_triangle, 0) == [(0, 0)]

    def test_sorted_lexicographically(self, unit_square):
        pts = lattice_points(unit_square, 3)
        assert pts == sorted(pts)

    def test_at_least_vertices(self, corpus50):
        for P in corpus50[:12]:
            assert len(lattice_points(P, 1)) >= len(P.vertices)

    def test_oracle_equivalence(self, corpus2d, corpus3d):
        # membership by barycentric coordinates, which never reads a facet
        for P in corpus2d[:6] + corpus3d[:10]:
            verts = P.vertices
            for d in (1, 2):
                pts = set(lattice_points(P, d))
                for x in _box(verts, d):
                    assert (x in pts) == in_hull(verts, x, d)


class TestInterior:
    def test_unit_triangle(self, unit_triangle):
        assert interior_lattice_points(unit_triangle, 3) == [(1, 1)]
        assert interior_lattice_points(unit_triangle, 2) == []

    def test_simplex112_2p(self, simplex112):
        assert (1, 1, 1) in interior_lattice_points(simplex112, 2)

    def test_closed_points_off_every_facet(self, corpus50):
        for P in corpus50[::5]:
            for d in range(4):
                off_facets = [
                    x
                    for x in lattice_points(P, d)
                    if all(
                        sum(a * b for a, b in zip(f.normal, x)) != d * f.offset
                        for f in P.facets
                    )
                ]
                assert interior_lattice_points(P, d) == off_facets

    def test_edge_cases(self, unit_triangle):
        with pytest.raises(ValueError):
            lattice_points(unit_triangle, -1)
        point = normalize_full_dim([(5, 7)])
        assert lattice_points(point, 2) == [()]
        # the closed points on no facet hyperplane: the point has no facet
        assert interior_lattice_points(point, 2) == [()]

    @pytest.mark.parametrize("walk", [lattice_points, interior_lattice_points])
    def test_negative_dilation_refused(self, unit_triangle, walk):
        for P in (unit_triangle, normalize_full_dim([(5, 7)])):
            with pytest.raises(DegenerateInput, match="dilation must be nonnegative"):
                walk(P, -1)


class TestContains:
    def test_examples(self, unit_triangle, simplex112):
        assert contains(unit_triangle, 1, (0, 0))
        assert not contains(unit_triangle, 1, (2, 0))
        assert contains(simplex112, 2, (1, 1, 1))

    def test_point(self):
        point = normalize_full_dim([(5, 7)])
        assert contains(point, 3, ())
        assert dilate(point, 4) == point
        with pytest.raises(DegenerateInput, match="dilation factor must be >= 1"):
            dilate(point, 0)

    def test_dimension_mismatch(self, unit_triangle):
        with pytest.raises(DimensionMismatch):
            contains(unit_triangle, 1, (0, 0, 0))

    def test_negative_dilation_refused(self, unit_triangle):
        # (0, 0) lies in -P, which the facet test cannot see
        for P, x in ((unit_triangle, (0, 0)), (normalize_full_dim([(5, 7)]), ())):
            with pytest.raises(DegenerateInput, match="dilation must be nonnegative"):
                contains(P, -1, x)


class TestPick:
    def test_pick_on_corpus(self, corpus2d):
        for P in corpus2d:
            twice_area = hull_area_twice(P.vertices)
            boundary = len(lattice_points(P, 1)) - len(interior_lattice_points(P, 1))
            for d in range(6):
                count = len(lattice_points(P, d))
                assert 2 * count == twice_area * d * d + boundary * d + 2
