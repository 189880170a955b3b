from math import ceil

import pytest

from polysyz import (
    ConsistencyError,
    LatticePolytope,
    RankPolicy,
    WindowExceeded,
    betti_table,
    build_ring,
    compose_is_zero,
    k_polynomial_checksum,
    koszul_betti,
    lattice_points,
    np_level,
)
from polysyz import koszul
from polysyz.ehrhart import r_of_polytope
from polysyz.koszul import _strand_betti

from .oracles import dense_betti


class TestBuildRing:
    def test_cubic_dims(self, cubic_triangle):
        ring = build_ring(cubic_triangle, 1, 3)
        assert [ring.dim(d) for d in range(4)] == [1, 4, 10, 19]

    def test_unit_triangle_dims(self, unit_triangle):
        ring = build_ring(unit_triangle, 1, 2)
        assert [ring.dim(d) for d in range(3)] == [1, 3, 6]

    def test_cubic_c2_dims(self, cubic_triangle):
        ring = build_ring(cubic_triangle, 2, 3)
        assert [ring.dim(d) for d in range(4)] == [1, 10, 31, 64]

    def test_multiplication_closed(self, cubic_triangle):
        ring = build_ring(cubic_triangle, 1, 3)
        for a in range(3):
            for u in ring.bases[a]:
                for v in ring.bases[1]:
                    s = tuple(x + y for x, y in zip(u, v))
                    assert s in ring.index[a + 1]


class TestCodes:
    def test_codes_are_additive(self, simplex112):
        ring = build_ring(simplex112, 2, 3)
        for a in range(3):
            for r, u in enumerate(ring.bases[a]):
                for s, v in enumerate(ring.bases[1]):
                    w = tuple(x + y for x, y in zip(u, v))
                    k = ring.code_index[a + 1][ring.codes[a][r] + ring.codes[1][s]]
                    assert ring.bases[a + 1][k] == w

    def test_radix_covers_every_multidegree(self, cubic_triangle, simplex112, corpus3d):
        # a multidegree is at most dim V generators plus one point of bases[d],
        # d <= dmax; two of them differ by less than M in every coordinate
        far = cubic_triangle.translate((-(10**6), 10**6))
        for P in [cubic_triangle, simplex112, far] + corpus3d[:5]:
            ring = build_ring(P, 2, 3)
            reach = ring.dim_V * max(abs(x) for p in ring.bases[1] for x in p) + max(
                abs(x) for p in ring.bases[ring.dmax] for x in p
            )
            assert koszul._radix(ring.bases, ring.dmax) > 2 * reach

    def test_collision_is_refused(self, cubic_triangle, monkeypatch):
        # radix 1 codes a point by its coordinate sum: (0, 1) and (1, 0) collide
        monkeypatch.setattr(koszul, "_radix", lambda bases, dmax: 1)
        with pytest.raises(ConsistencyError, match="share a code"):
            build_ring(cubic_triangle, 1, 2)

    @pytest.mark.parametrize("shift", [(10**6, -(10**6)), (-(10**6), 10**6 + 3)])
    def test_translated_cubic(self, cubic_triangle, shift):
        far = cubic_triangle.translate(shift)
        assert min(min(v) for v in far.vertices) < 0
        near = betti_table(build_ring(cubic_triangle, 2, 4), 2, 3)
        assert betti_table(build_ring(far, 2, 4), 2, 3).entries == near.entries

    def test_translated_simplex(self, simplex112):
        far = simplex112.translate((-(10**6), 10**6, -(10**6) - 7))
        near = betti_table(build_ring(simplex112, 2, 5), 2, 4)
        assert len(near.entries) > 1
        assert betti_table(build_ring(far, 2, 5), 2, 4).entries == near.entries

    def test_translated_against_dense_oracle(self, cubic_triangle):
        ring = build_ring(cubic_triangle.translate((10**6, -(10**6))), 1, 4)
        for i in range(3):
            for j in range(i, i + 4):
                assert koszul_betti(ring, i, j) == dense_betti(ring, i, j)


class TestRegularity:
    def test_fixtures(self, unit_triangle, unit_square, cubic_triangle, simplex112):
        cases = [
            (unit_triangle, 1, 0),
            (unit_triangle, 2, 1),
            (unit_square, 1, 1),
            (cubic_triangle, 1, 2),
            (cubic_triangle, 2, 2),
            (simplex112, 2, 3),
        ]
        for P, c, reg in cases:
            assert build_ring(P, c, 1).reg == reg

    def test_matches_interior_points(self, corpus50):
        # reg comes from the Hilbert roots of h; r_of_polytope searches interiors
        for P in corpus50:
            r = r_of_polytope(P)
            for c in (1, 2, 3):
                assert build_ring(P, c, 1).reg == P.dim + 1 - ceil((r + 1) / c)

    def test_bound_is_sharp(self, cubic_triangle):
        ring = build_ring(cubic_triangle, 1, 4)
        assert ring.reg == 2
        assert koszul_betti(ring, 1, 1 + ring.reg) == 1

    def test_unclamped_strands_vanish(self, corpus50):
        # the engine never builds these strands; check that the theorem holds
        checked = 0
        for P in corpus50:
            n = P.dim
            for c in (1, 2):
                if len(lattice_points(P, c)) > 10:  # dim_V of the ring
                    continue
                ring = build_ring(P, c, n + 3)
                for i in range(3):
                    for slope in range(ring.reg + 1, n + 3):
                        assert _strand_betti(ring, i, i + slope, RankPolicy()) == 0
                        checked += 1
        assert checked > 0


class TestKoszulBetti:
    def test_unit_member(self, cubic_triangle):
        ring = build_ring(cubic_triangle, 1, 4)
        assert koszul_betti(ring, 0, 0) == 1

    def test_cubic_hypersurface(self, cubic_triangle):
        ring = build_ring(cubic_triangle, 1, 4)
        assert koszul_betti(ring, 1, 3) == 1
        assert koszul_betti(ring, 1, 2) == 0

    def test_polynomial_ring_acyclic(self, unit_triangle):
        ring = build_ring(unit_triangle, 1, 5)
        table = betti_table(ring, 3, 3)
        assert table.entries == {(0, 0): 1}

    def test_quadric(self, unit_square):
        ring = build_ring(unit_square, 1, 5)
        table = betti_table(ring, 4, 3)
        assert table.entries == {(0, 0): 1, (1, 2): 1}

    def test_simplex112_missing_section(self, simplex112):
        ring = build_ring(simplex112, 1, 4)
        assert koszul_betti(ring, 0, 2) == 1

    def test_against_dense_oracle(self, cubic_triangle, unit_square, simplex112, corpus2d):
        from polysyz import lattice_points

        smallest = min(corpus2d, key=lambda P: len(lattice_points(P, 1)))
        rings = [
            build_ring(cubic_triangle, 1, 4),
            build_ring(unit_square, 1, 4),
            build_ring(simplex112, 1, 4),
            build_ring(smallest, 1, 4),
        ]
        for ring in rings:
            for i in range(3):
                for j in range(i, i + 4):
                    assert koszul_betti(ring, i, j) == dense_betti(ring, i, j)

    def test_strand_positivity_and_minimality(self, cubic_triangle):
        ring = build_ring(cubic_triangle, 1, 4)
        table = betti_table(ring, 4, 3)
        for i in range(1, 5):
            assert table.get(i, i) == 0
        assert all(j >= i for (i, j) in table.entries)

    def test_window_violation_reported(self, cubic_triangle):
        ring = build_ring(cubic_triangle, 1, 2)
        with pytest.raises(WindowExceeded):
            koszul_betti(ring, 1, 4)
        with pytest.raises(WindowExceeded):
            betti_table(ring, 2, 4)

    def test_modular_matches_exact(self, simplex112):
        # exact_threshold=0 sends every block through the GF(p) kernel
        ring = build_ring(simplex112, 2, 5)
        exact = betti_table(ring, 3, 3, policy=RankPolicy(certify=True))
        assert len(exact.entries) == 6
        for fast in (RankPolicy(exact_threshold=4), RankPolicy(exact_threshold=0)):
            assert betti_table(ring, 3, 3, policy=fast).entries == exact.entries


class TestComplexIntegrity:
    def test_differential_squares_to_zero(self, cubic_triangle, simplex112):
        for ring in (build_ring(cubic_triangle, 1, 5), build_ring(simplex112, 1, 5)):
            for i in range(1, 4):
                for j in range(i, i + 4):
                    assert compose_is_zero(ring, i, j)

    @pytest.mark.parametrize("j", [2, 3])
    def test_wrong_sign_is_caught(self, cubic_triangle, monkeypatch, j):
        ring = build_ring(cubic_triangle, 1, 4)
        assert compose_is_zero(ring, 1, j)
        original = koszul._differential_columns
        flipped = []

        def one_wrong_sign(*args):
            cols = original(*args)
            if not flipped:
                row, v = next(iter(cols[0].items()))
                cols[0][row] = -v
                flipped.append(row)
            return cols

        monkeypatch.setattr(koszul, "_differential_columns", one_wrong_sign)
        assert compose_is_zero(ring, 1, j) is False
        assert len(flipped) == 1

    def test_checksum(self, cubic_triangle, unit_square, unit_triangle):
        for P in (cubic_triangle, unit_square, unit_triangle):
            ring = build_ring(P, 1, 4)
            assert k_polynomial_checksum(betti_table(ring, 3, 3))

    def test_determinism_under_vertex_order(self, cubic_triangle):
        reordered = LatticePolytope.from_points([(2, 2), (1, 1), (0, 1), (1, 0)])
        t1 = betti_table(build_ring(cubic_triangle, 1, 4), 2, 3)
        t2 = betti_table(build_ring(reordered, 1, 4), 2, 3)
        assert t1.entries == t2.entries

    def test_threads_do_not_change_output(self, cubic_triangle):
        ring = build_ring(cubic_triangle, 1, 4)
        assert (
            betti_table(ring, 3, 3).entries
            == betti_table(ring, 3, 3, threads=4).entries
        )


class TestNpLevel:
    def test_cubic_c1(self, cubic_triangle):
        ring = build_ring(cubic_triangle, 1, 4)
        verdicts = np_level(ring, 1, 3)
        assert verdicts[0].status == "VERIFIED_UP_TO"
        assert verdicts[1].status == "FAILS"
        assert verdicts[1].certificate == (1, 3, 1)

    def test_simplex112_c1_fails_n0(self, simplex112):
        ring = build_ring(simplex112, 1, 5)
        verdicts = np_level(ring, 1, 4)
        assert verdicts[0].status == "FAILS"
        assert verdicts[0].certificate == (0, 2, 1)
        # monotone: failure propagates upward
        assert verdicts[1].status == "FAILS"

    def test_monotone(self, cubic_triangle):
        ring = build_ring(cubic_triangle, 1, 4)
        verdicts = np_level(ring, 3, 3)
        failed = False
        for v in verdicts:
            if v.status == "FAILS":
                failed = True
            assert not failed or v.status == "FAILS"
