import importlib.util
import itertools
import json
import random
from math import gcd
from operator import mul
from pathlib import Path

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

from polysyz.lattice import automorphisms
from polysyz.serialize import load_polytope

from .oracles import brute_automorphisms, hull_area_twice, in_hull

ROOT = Path(__file__).resolve().parent.parent


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

    def test_point_of_dimension_zero_has_no_facets(self):
        assert convex_hull_facets([()]) == []

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


def _apply(g, x):
    A, b = g
    return tuple(sum(map(mul, row, x)) + y for row, y in zip(A, b))


def _compose(g, h):
    """g after h: x -> A_g (A_h x + b_h) + b_g."""
    (Ag, _), (Ah, bh) = g, h
    A = tuple(tuple(sum(map(mul, row, col)) for col in zip(*Ah)) for row in Ag)
    return A, _apply(g, bh)


def _identity(n):
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n)), (0,) * n


def _polytopes(corpus50):
    """The data files, the corpus, and three small cases: an interval, the
    point, and a triangle whose affine symmetries (all six vertex
    permutations, every edge of lattice length 1) are not all lattice maps."""
    return (
        [load_polytope(str(path)) for path in sorted((ROOT / "data").glob("*.json"))]
        + list(corpus50)
        + [LatticePolytope.from_points([(0,), (3,)]),
           LatticePolytope.from_points([()]),
           LatticePolytope.from_points([(0, 0), (1, 0), (2, 5)])]
    )


class TestAutomorphisms:
    def test_orders(self, unit_triangle, unit_square, cubic_triangle, simplex112):
        # S3, D4, S3 and S4; an interval has its flip, a point only the
        # identity, and the triangle of edge lengths 1 and normalized area 5
        # keeps 2 of its 6 affine symmetries
        for P, order in ((unit_triangle, 6), (unit_square, 8), (cubic_triangle, 6),
                         (simplex112, 24)):
            assert len(automorphisms(P)) == order
        assert automorphisms(LatticePolytope.from_points([(0,), (3,)])) == (
            (((-1,),), (3,)), (((1,),), (0,)),
        )
        assert automorphisms(LatticePolytope.from_points([()])) == (((), ()),)
        assert len(automorphisms(LatticePolytope.from_points([(0, 0), (1, 0), (2, 5)]))) == 2

    def test_matches_brute_force_oracle(self, corpus50):
        for P in _polytopes(corpus50):
            assert list(automorphisms(P)) == brute_automorphisms(P.vertices), P.vertices

    def test_is_a_group(self, corpus50):
        # the identity is in it and it is closed under composition, so, being
        # finite, under inverses too; every element maps P onto P
        for P in _polytopes(corpus50):
            G = set(automorphisms(P))
            assert _identity(P.dim) in G, P.vertices
            for g in G:
                assert {_apply(g, v) for v in P.vertices} == set(P.vertices)
                for h in G:
                    assert _compose(g, h) in G, (P.vertices, g, h)

    def test_kept_on_the_polytope_outside_its_value(self, cubic_triangle):
        P = LatticePolytope.from_points(cubic_triangle.vertices)
        assert P.symmetries is None  # from_points leaves it to the first use
        G = automorphisms(P)
        assert automorphisms(P) is G and P.symmetries is G
        fresh = LatticePolytope.from_points(cubic_triangle.vertices)
        assert P == fresh and hash(P) == hash(fresh) and repr(P) == repr(fresh)
        assert "symmetries" not in repr(P)

    def test_order_is_invariant_under_the_benchmark_maps(self, corpus50):
        # the group of an image under perfbench's `map_points` is conjugate
        # to the group of the polytope, so it has the same order; the
        # benchmark's CLI pool is checked too
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        pool = json.loads((ROOT / "perfbench" / "reference.json").read_text())["cli"]
        polytopes = _polytopes(corpus50) + [normalize_full_dim(v) for v in pool]
        rng = random.Random(5)
        orders = set()
        for P in polytopes:
            order = len(automorphisms(P))
            orders.add(order)
            for _ in range(3):
                Q = LatticePolytope.from_points(workloads.map_points(rng, P.vertices))
                assert len(automorphisms(Q)) == order, P.vertices
        assert orders >= {1, 2, 3, 6, 8, 24}
