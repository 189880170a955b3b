import itertools
import random
import tracemalloc
from collections import Counter
from math import ceil
from operator import mul
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

from polysyz import (
    BettiTable,
    ConsistencyError,
    DegenerateInput,
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
from polysyz import lattice
from polysyz.intlinalg import exact_rank
from polysyz.koszul import _strand_betti
from polysyz.lattice import automorphisms
from polysyz.serialize import load_polytope

from .oracles import (
    block_matrix,
    box_points,
    brute_automorphisms,
    dense_betti,
    dense_compose_is_zero,
    element_matching,
    fraction_rank,
    level_blocks,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def _translate(P, t):
    """P moved by the lattice vector t."""
    return LatticePolytope.from_points(tuple(a + b for a, b in zip(v, t)) for v in P.vertices)


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

    def test_c_and_dmax_below_one_refused(self, cubic_triangle):
        for c, dmax in ((0, 1), (1, 0)):
            with pytest.raises(DegenerateInput, match="need c >= 1 and dmax >= 1"):
                build_ring(cubic_triangle, c, dmax)

    def test_multiplication_closed(self, cubic_triangle):
        ring = build_ring(cubic_triangle, 1, 3)
        for a in range(3):
            above = {p: k for k, p in enumerate(ring.degree(a + 1).basis)}
            for u in ring.degree(a).basis:
                for v in ring.degree(1).basis:
                    s = tuple(x + y for x, y in zip(u, v))
                    assert s in above


class TestDegreesOnFirstUse:
    @staticmethod
    def spy_dilations(monkeypatch, drop_at=None):
        """Record every dilation the ring enumerates; at `drop_at`, lose a point."""
        seen = []

        def spy(P, d):
            seen.append(d)
            pts = lattice_points(P, d)
            return pts[:-1] if d == drop_at else pts

        monkeypatch.setattr(koszul, "lattice_points", spy)
        return seen

    def test_clamped_window_reads_at_most_reg_plus_one(self, cubic_triangle, monkeypatch):
        seen = self.spy_dilations(monkeypatch)
        ring = build_ring(cubic_triangle, 1, 5)
        assert seen == []
        # slope 1 <= reg = 2, then slope 4, whose strands above reg are clamped;
        # a strand reads its middle degree j - i <= reg and the degrees below
        for max_i, max_slope in [(1, 1), (2, 4)]:
            table = betti_table(ring, max_i, max_slope)
            assert k_polynomial_checksum(table)
            np_level(ring, max_i, max_slope, table=table)
        assert ring.reg == 2 and max(seen) == ring.c * ring.reg
        assert len(seen) == len(set(seen))  # each degree is built once

    def test_late_degree_is_still_checked(self, cubic_triangle, monkeypatch):
        self.spy_dilations(monkeypatch, drop_at=3)
        ring = build_ring(cubic_triangle, 1, 4)
        assert [ring.dim(d) for d in range(3)] == [1, 4, 10]
        with pytest.raises(ConsistencyError, match="Ehrhart predicts"):
            ring.degree(3).basis

    def test_degrees_outside_the_ring(self, cubic_triangle):
        ring = build_ring(cubic_triangle, 1, 2)
        assert ring.dmax == 2 and ring.dim(-1) == 0
        for d in (-1, 3):
            with pytest.raises(IndexError):
                ring.degree(d).basis


class TestCodes:
    def test_codes_are_additive(self, simplex112):
        ring = build_ring(simplex112, 2, 3)
        for a in range(3):
            low, gens, up = ring.degree(a), ring.degree(1), ring.degree(a + 1)
            index = {code: k for k, code in enumerate(up.codes)}
            for r, u in enumerate(low.basis):
                for s, v in enumerate(gens.basis):
                    w = tuple(x + y for x, y in zip(u, v))
                    k = index[low.codes[r] + gens.codes[s]]
                    assert up.basis[k] == w

    def test_radix_covers_every_multidegree(self, cubic_triangle, simplex112, corpus3d):
        # a multidegree is at most dim V generators plus one point of bases[d],
        # d <= dmax; two of them differ by less than M in every coordinate
        far = _translate(cubic_triangle, (-(10**6), 10**6))
        for P in [cubic_triangle, simplex112, far] + corpus3d[:5]:
            ring = build_ring(P, 2, 3)
            reach = ring.dim_V * max(abs(x) for p in ring.degree(1).basis for x in p) + max(
                abs(x) for p in ring.degree(ring.dmax).basis for x in p
            )
            assert ring.radix == koszul._radix(P, ring.c, ring.dmax, ring.dim_V)
            assert ring.radix > 2 * reach

    def test_collision_is_refused(self, cubic_triangle, monkeypatch):
        # radix 1 codes a point by its coordinate sum: (0, 1) and (1, 0) collide
        monkeypatch.setattr(koszul, "_radix", lambda P, c, dmax, dim_V: 1)
        ring = build_ring(cubic_triangle, 1, 2)
        assert ring.degree(0).codes == (0,)
        with pytest.raises(ConsistencyError, match="share a code"):
            ring.degree(1).codes

    @pytest.mark.parametrize("shift", [(10**6, -(10**6)), (-(10**6), 10**6 + 3)])
    def test_translated_cubic(self, cubic_triangle, shift):
        far = _translate(cubic_triangle, shift)
        assert min(min(v) for v in far.vertices) < 0
        near = betti_table(build_ring(cubic_triangle, 2, 4), 2, 3)
        assert betti_table(build_ring(far, 2, 4), 2, 3).entries == near.entries

    def test_translated_simplex(self, simplex112):
        far = _translate(simplex112, (-(10**6), 10**6, -(10**6) - 7))
        near = betti_table(build_ring(simplex112, 2, 5), 2, 4)
        assert len(near.entries) > 1
        assert betti_table(build_ring(far, 2, 5), 2, 4).entries == near.entries

    def test_translated_against_dense_oracle(self, cubic_triangle):
        ring = build_ring(_translate(cubic_triangle, (10**6, -(10**6))), 1, 4)
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


class TestProjectiveDimension:
    def test_fixtures(self, unit_triangle, unit_square, cubic_triangle, simplex112):
        # pd R = dim V - dim P - 1: the polynomial ring, a quadric and a
        # cubic hypersurface; at c = 1 the (1,1,2)-simplex has only its 4
        # vertices, so R = S + S(-2) is free over S = Sym V
        cases = [
            (unit_triangle, 1, 0),
            (unit_square, 1, 1),
            (cubic_triangle, 1, 1),
            (cubic_triangle, 2, 7),
            (simplex112, 1, 0),
        ]
        for P, c, pd in cases:
            assert build_ring(P, c, 1).pd == pd

    def test_unclamped_strands_vanish(self, corpus50):
        # the engine never builds strands with i > pd below the regularity;
        # check that the theorem holds on them
        checked = 0
        for P in corpus50:
            for c in (1, 2):
                if len(lattice_points(P, c)) > 10:  # dim_V of the ring
                    continue
                ring = build_ring(P, c, P.dim + 3)
                for i in range(ring.pd + 1, min(ring.pd + 2, ring.dim_V) + 1):
                    for slope in range(min(ring.reg, P.dim + 1) + 1):
                        assert _strand_betti(ring, i, i + slope, RankPolicy()) == 0
                        assert koszul_betti(ring, i, i + slope) == 0
                        checked += 1
        assert checked > 100

    def test_linear_strand_vanishes(self, corpus50):
        # beta_{i,i} = 0 for i >= 1 (R_1 = V, so I has no linear form);
        # koszul_betti skips the strand, _strand_betti computes it
        checked = 0
        for P in corpus50:
            for c in (1, 2):
                if len(lattice_points(P, c)) > 10:  # dim_V of the ring
                    continue
                ring = build_ring(P, c, 2)
                for i in range(1, ring.dim_V + 1):
                    assert _strand_betti(ring, i, i, RankPolicy()) == 0
                    assert koszul_betti(ring, i, i) == 0
                    checked += 1
        assert checked > 100

    def test_first_degree_one_strand_is_skipped(self, corpus50, monkeypatch):
        # beta_{0,1} = 0 by definition, V (x) R_0 -> R_1 being the identity on
        # the basis: _strand_betti computes it, koszul_betti builds no block
        rings = [build_ring(P, c, 2) for P in corpus50[:10] for c in (1, 2)]
        assert all(_strand_betti(ring, 0, 1, RankPolicy()) == 0 for ring in rings)

        def refuse(*args):
            raise AssertionError("beta_{0,1} built a level")

        monkeypatch.setattr(koszul, "_level_blocks", refuse)
        assert all(koszul_betti(ring, 0, 1) == 0 for ring in rings)

    def test_window_is_checked_first(self, unit_triangle):
        # i > pd still needs the window, as every strand up to dim V does;
        # beyond dim V the strand is 0 with no window check, as before
        ring = build_ring(unit_triangle, 1, 2)
        assert ring.pd == 0 and ring.dim_V == 3
        assert koszul_betti(ring, 1, 2) == 0
        with pytest.raises(WindowExceeded):
            koszul_betti(ring, 1, 3)
        assert koszul_betti(ring, 4, 9) == 0


def _bits(S):
    """The generators of the face S, a bitmask, in increasing order."""
    return tuple(s for s in range(S.bit_length()) if S >> s & 1)


def _multidegree(ring, u, S, d):
    """The multidegree of block u of wedge^q V (x) R_d, as a lattice point,
    read off one of its faces S: the sum of the generators of S and of the
    point of R_d whose code is u minus theirs."""
    gens = ring.degree(1)
    level = ring.degree(d)
    point = level.basis[level.codes.index(u - sum(gens.codes[s] for s in _bits(S)))]
    return tuple(x + sum(gens.basis[s][a] for s in _bits(S)) for a, x in enumerate(point))


def _code(ring, x):
    """The code of the lattice point x, from the ring's radix."""
    return sum(ring.radix**k * a for k, a in enumerate(x))


def _oracle_blocks(ring, q, d):
    """The oracle's split of wedge^q V (x) R_d (`level_blocks`), keyed by
    the code of each block's multidegree."""
    return {_code(ring, x): cells for x, cells in level_blocks(ring, q, d).items()}


def _delta_faces(ring, u, q, j):
    """The q-faces F of Delta_u = {F : u - sum F in the semigroup} in degree
    j, found from the lattice points, not from the codes."""
    if not 0 <= j - q <= ring.dmax:
        return set()
    points = {p: k for k, p in enumerate(ring.degree(j - q).basis)}
    gens = ring.degree(1).basis
    faces = set()
    for F in itertools.combinations(range(ring.dim_V), q):
        w = tuple(x - sum(gens[s][k] for s in F) for k, x in enumerate(u))
        if w in points:
            faces.add(frozenset(F))
    return faces


class _Block(NamedTuple):
    u: int
    critical: int  # critical middle cells left by the matching
    decided: bool  # no critical middle cell, or none at either end: nothing to rank
    at_count: bool  # a cone, decided at the matching's first step (`_morse_count` is None)
    b: int  # the block Betti number, both full maps ranked by Bareiss
    morse_b: Optional[int]  # an open block's Betti number from its Morse maps, by Bareiss
    ranked: int  # the Morse maps with a critical source and a critical target cell
    mid: list
    src: Optional[list]
    tgt: Optional[list]


def _morse_blocks(ring, i, j):
    """(u, faces, `_morse_count` of the block) for each block of strand
    (i, j)."""
    for u, (faces, downs) in koszul._level_blocks(ring, i, j - i).items():
        yield u, faces, koszul._morse_count(faces, downs, False)


def _matched_blocks(ring, i, j):
    """A `_Block` for each block of strand (i, j), every full map of the
    oracle's block of the same multidegree ranked whether or not the
    matching decides the block."""
    d = j - i
    src, tgt = ({u: faces for u, (faces, _) in koszul._level_blocks(ring, i + k, d - k).items()}
                for k in (1, -1))
    high, middle, low = (_oracle_blocks(ring, i + k, d - k) for k in (1, 0, -1))
    for u, mid, morse in _morse_blocks(ring, i, j):
        b = len(middle[u])
        for cells, e, targets in ((middle[u], d, low.get(u)), (high.get(u), d - 1, middle[u])):
            if cells and targets:
                b -= exact_rank(block_matrix(ring, cells, e, targets))
        critical, decided, morse_b, ranked = 0, True, None, 0
        if morse is not None:
            critical = len(morse.middle)
            decided = not morse.middle or not (morse.low or morse.high)
        if not decided:
            morse_b = critical
            for cells, lower in ((morse.middle, morse.low), (morse.high, morse.middle)):
                if cells and lower:
                    cols = koszul._differential_columns(cells, lower, morse.up)
                    morse_b -= exact_rank(koszul._dense(cols))
                    ranked += 1
        yield _Block(u, critical, decided, morse is None, b, morse_b, ranked,
                     mid, src.get(u), tgt.get(u))


def _cells(block):
    """The faces of one block of `_level_blocks`, or of none, as bitmasks."""
    return set(block[0]) if block else set()


def _oracle_orbits(ring, i, j):
    """The Aut(P)-orbit of each block of strand (i, j), as a set of block
    codes: the oracle's group acts on the block's multidegree, read off its
    first face, by u -> A u + c * j * b."""
    d = j - i
    M = ring.radix
    group = brute_automorphisms(ring.polytope.vertices)
    orbits = {}
    for u, (faces, _) in koszul._level_blocks(ring, i, d).items():
        x = _multidegree(ring, u, faces[0], d)
        orbits[u] = {
            sum(M**e * (sum(map(mul, row, x)) + ring.c * j * y)
                for e, (row, y) in enumerate(zip(A, b)))
            for A, b in group
        }
    return orbits


def _representatives(blocks, orbits):
    """The codes of the first block of each orbit, in level order."""
    firsts, covered = set(), set()
    for block in blocks:
        if block.u not in covered:
            firsts.add(block.u)
            covered |= orbits[block.u]
    return firsts


class TestMorseMatching:
    # the data files at c = 1 and 2, with the window each is checked in
    WINDOWS = [
        ("cubic_triangle", 1, 3, 3),
        ("cubic_triangle", 2, 2, 2),
        ("simplex_112", 1, 3, 3),
        ("simplex_112", 2, 2, 2),
        ("unit_square", 1, 3, 3),
        ("unit_square", 2, 2, 2),
        ("unit_triangle", 1, 3, 3),
        ("unit_triangle", 2, 2, 2),
    ]

    @staticmethod
    def _rings(corpus50):
        for name, c, max_i, max_slope in TestMorseMatching.WINDOWS:
            P = load_polytope(str(DATA / f"{name}.json"))
            yield name, c, build_ring(P, c, max_slope + 2), max_i, max_slope
        # every fifth corpus polytope at c = 1, small rings only
        for k, P in enumerate(corpus50[::5]):
            if len(lattice_points(P, 1)) <= 10:
                yield f"corpus{k}", 1, build_ring(P, 1, P.dim + 3), 2, P.dim + 1

    def test_blocks_agree_with_their_ranks(self, corpus50):
        # decided: b is the critical count; open: the count bounds b
        seen = Counter()
        for name, c, ring, max_i, max_slope in self._rings(corpus50):
            for i in range(max_i + 1):
                for j in range(i, i + max_slope + 1):
                    for block in _matched_blocks(ring, i, j):
                        where = (name, c, i, j, block.u)
                        assert 0 <= block.b <= block.critical, where
                        if block.decided:
                            assert block.b == block.critical, where
                        else:
                            # the Morse complex has the homology of the block
                            assert block.morse_b == block.b, where
                        if not block.decided:
                            kind = "open"
                        elif block.at_count:
                            kind = "cone"
                        else:
                            kind = "nonzero" if block.b else "zero"
                        seen[kind] += 1
                        seen[name, c, kind] += 1
        assert seen["cone"] > 1000 and seen["zero"] > 100 and seen["open"] > 100
        # nonzero blocks are decided by count too, not only zero ones
        assert seen["cubic_triangle", 2, "nonzero"] >= 10

    def test_cone_test_matches_its_definition(self, cubic_triangle, simplex112):
        # the matching stops at its first step, returning None, exactly when
        # some v has F + {v} in the source level for every middle face F
        # without v
        seen = set()
        for P, c, max_i, max_slope in ((cubic_triangle, 1, 3, 3),
                                       (cubic_triangle, 2, 2, 2),
                                       (simplex112, 1, 3, 3)):
            ring = build_ring(P, c, max_slope + 2)
            n = ring.dim_V
            for i in range(max_i + 1):
                for j in range(i, i + max_slope + 1):
                    for block in _matched_blocks(ring, i, j):
                        mid, src = block.mid, block.src
                        u = _multidegree(ring, block.u, mid[0], j - i)
                        mid_faces = _delta_faces(ring, u, i, j)
                        src_faces = _delta_faces(ring, u, i + 1, j)
                        assert len(mid_faces) == len(mid)
                        assert len(src_faces) == len(src or ())
                        apexes = [
                            v for v in range(n)
                            if all(F | {v} in src_faces for F in mid_faces if v not in F)
                        ]
                        assert block.at_count == bool(apexes)
                        if block.at_count:
                            assert block.decided and block.critical == 0
                        # whether some apex misses a middle face, which a
                        # count of the middle level alone would not see
                        seen.add((block.at_count,
                                  any(v not in F for v in apexes for F in mid_faces)))
        assert seen >= {(True, True), (False, False)}

    def test_matching_is_the_element_matching_in_index_order(self):
        # every block that is not a cone, in every window the CLI allows
        # (max_i, max_slope <= 8) on the data files at c <= 2: the critical
        # cells of all three levels and the partner map are the oracle's
        # element matching, generators in index order, of the faces of
        # Delta_u found from the lattice points; its target level is the
        # faces of the middle faces, the level the engine reads off the spans
        blocks = 0
        for path in sorted(DATA.glob("*.json")):
            for c in (1, 2):
                ring = build_ring(load_polytope(path), c, 9)
                n = ring.dim_V

                def faces(S):
                    return frozenset(s for s in range(n) if S >> s & 1)

                for i in range(9):
                    for j in range(i, i + 9):
                        if not koszul._is_open(ring, i, j):
                            continue
                        for u, mid, morse in _morse_blocks(ring, i, j):
                            if morse is None:
                                continue
                            where = (path.name, c, i, j, u)
                            x = _multidegree(ring, u, mid[0], j - i)
                            middle = _delta_faces(ring, x, i, j)
                            assert len(middle) == len(mid), where
                            low = {F - {s} for F in middle for s in F}
                            critical, partner = element_matching(
                                [low, middle, _delta_faces(ring, x, i + 1, j)], range(n)
                            )
                            cells = [set(map(faces, level))
                                     for level in (morse.low, morse.middle, morse.high)]
                            assert cells == critical, where
                            pairs = {faces(F): faces(T) for F, T in morse.up.items()}
                            assert pairs == partner, where
                            blocks += 1
        assert blocks > 1000

    def test_split_is_the_oracle_split(self):
        # every open strand of every window the CLI allows (max_i, max_slope
        # <= 8) on the data files at c <= 2: the engine's middle level is the
        # oracle's split of the lattice points into multidegrees, with the
        # same block codes and the same faces in the same order, and each
        # cell's down mask is the set of generators v whose removal from its
        # ring point leaves a lattice point of c(d - 1)P
        cells = 0
        for path in sorted(DATA.glob("*.json")):
            for c in (1, 2):
                P = load_polytope(path)
                ring = build_ring(P, c, 9)
                gens = ring.degree(1).basis
                for i in range(9):
                    for j in range(i, i + 9):
                        if not koszul._is_open(ring, i, j):
                            continue
                        where = (path.name, c, i, j)
                        d = j - i
                        below = set(box_points(P, c * (d - 1), False)) if d else set()
                        down = [
                            sum(1 << v for v, g in enumerate(gens)
                                if tuple(a - b for a, b in zip(x, g)) in below)
                            for x in ring.degree(d).basis
                        ]
                        blocks = koszul._level_blocks(ring, i, d)
                        oracle = _oracle_blocks(ring, i, d)
                        assert blocks.keys() == oracle.keys(), where
                        for u, pairs in oracle.items():
                            faces, downs = blocks[u]
                            assert faces == [sum(1 << s for s in S) for S, _ in pairs], where
                            assert downs == [down[r] for _, r in pairs], where
                            cells += len(pairs)
        assert cells > 10000

    def test_blocks_hold_the_ring_objects(self, cubic_triangle):
        # a block holds each cell as two objects the ring already has: its
        # face, the very int of the wedge table, and its ring element's down
        # mask, the very int of the down table; a packed int or a tuple per
        # cell is an object of its own.  Ints up to 256 are shared by the
        # interpreter, so the identities are counted on larger masks.
        ring = build_ring(cubic_triangle, 2, 5)
        large = Counter()
        for i in range(5):
            for j in range(i, i + 5):
                if not koszul._is_open(ring, i, j):
                    continue
                d = j - i
                blocks = koszul._level_blocks(ring, i, d)
                masks = {id(S) for S in ring.wedges[i].masks}
                downs = {id(D) for D in ring.downs[d]}
                for block in blocks.values():
                    assert type(block) is tuple and len(block) == 2, (i, j)
                    faces, down = block
                    assert type(faces) is list and type(down) is list, (i, j)
                    assert len(faces) == len(down), (i, j)
                    assert all(id(S) in masks for S in faces), (i, j)
                    assert all(id(D) in downs for D in down), (i, j)
                    large["faces"] += sum(S > 256 for S in faces)
                    large["downs"] += sum(D > 256 for D in down)
        assert large["faces"] > 1000 and large["downs"] > 1000, large

    def test_the_split_adds_two_list_slots_a_cell(self, cubic_triangle):
        # the split's own allocations, traced, on the middle level of strand
        # (3, 5) in the cubic c = 3 window: a block's two lists take a slot
        # of 8 B a cell each, with their growth; an int (28 B and up) or a
        # tuple (56 B) made per cell, kept or dropped, goes over the bound
        ring = build_ring(cubic_triangle, 3, 4)
        koszul._wedge(ring, 3), koszul._down(ring, 2)
        tracemalloc.start()
        try:
            blocks = koszul._level_blocks(ring, 3, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = sum(len(faces) for faces, _ in blocks.values())
        assert cells > 50000 and peak < 28 * cells, peak / cells

    def test_cells_are_read_off_the_spans(self, corpus50):
        # the cells a block's matching starts from, critical or matched: its
        # middle level, all of its source level, and the cells of its target
        # level that are a face of some middle cell
        cut = Counter()
        for name, c, ring, max_i, max_slope in self._rings(corpus50):
            for i in range(max_i + 1):
                for j in range(i, i + max_slope + 1):
                    d = j - i
                    src = koszul._level_blocks(ring, i + 1, d - 1)
                    tgt = koszul._level_blocks(ring, i - 1, d + 1)
                    for u, mid, morse in _morse_blocks(ring, i, j):
                        if morse is None:
                            continue
                        where = (name, c, i, j, u)
                        middle = set(mid)
                        high = _cells(src.get(u))
                        low = _cells(tgt.get(u))
                        faces = {S ^ bit for S in middle
                                 for bit in (1 << s for s in range(ring.dim_V)) if S & bit}
                        # each level's cells, critical or matched; a level
                        # is told by its popcount
                        matched = set(morse.up) | set(morse.up.values())
                        for critical, cells, q in ((morse.low, low & faces, i - 1),
                                                   (morse.middle, middle, i),
                                                   (morse.high, high, i + 1)):
                            at_q = {F for F in matched if F.bit_count() == q}
                            assert critical | at_q == cells, where
                        cut["source"] += bool(high)
                        cut["target"] += bool(low & faces)
                        cut["left out"] += bool(low - faces)
        # some blocks have target cells of no middle face, which the cut leaves out
        assert cut["source"] > 100 and cut["target"] > 100 and cut["left out"] > 0, cut

    def test_partner_map_is_a_matching(self, corpus50):
        # one map holds the pairs of both levels: each pair is one bit apart,
        # no cell is matched twice, and no critical cell is matched
        pairs = 0
        for name, c, ring, max_i, max_slope in self._rings(corpus50):
            for i in range(max_i + 1):
                for j in range(i, i + max_slope + 1):
                    for u, mid, morse in _morse_blocks(ring, i, j):
                        if morse is None:
                            continue
                        where = (name, c, i, j, u)
                        up = morse.up
                        for F, T in up.items():
                            assert F & T == F and (T ^ F).bit_count() == 1, where
                        keys, values = set(up), set(up.values())
                        assert len(values) == len(up) and keys.isdisjoint(values), where
                        critical = (morse.low, morse.middle, morse.high)
                        assert sum(map(len, critical)) == len(set().union(*critical)), where
                        assert all(cells.isdisjoint(keys | values) for cells in critical), where
                        pairs += len(up)
        assert pairs > 1000

    def test_only_open_blocks_are_ranked(self, cubic_triangle, monkeypatch):
        # the engine ranks each Morse map that has a critical source and a
        # critical target cell, of the open blocks that stand for their
        # Aut(P)-orbit (the first block of the orbit in level order), and
        # nothing else
        ring = build_ring(cubic_triangle, 2, 4)
        calls = []
        traced = koszul.rank

        def counted(rows):
            calls.append(1)
            return traced(rows)

        monkeypatch.setattr(koszul, "rank", counted)
        spared = 0
        for i, j in ((2, 3), (2, 4), (3, 5)):
            blocks = list(_matched_blocks(ring, i, j))
            firsts = _representatives(blocks, _oracle_orbits(ring, i, j))
            open_blocks = [b for b in blocks if not b.decided]
            expected = sum(b.ranked for b in open_blocks if b.u in firsts)
            spared += sum(b.ranked for b in open_blocks if b.u not in firsts)
            del calls[:]
            assert _strand_betti(ring, i, j, RankPolicy()) == sum(b.b for b in blocks)
            assert len(calls) == expected, (i, j)
        assert spared > 0

    def test_certify_ranks_every_block(self, cubic_triangle, monkeypatch):
        # under certify nothing is matched and no block is a cone: every
        # block with a source or a target cell has that full map ranked,
        # cones and blocks the matching decides included
        ring = build_ring(cubic_triangle, 2, 4)
        calls = []
        traced = koszul.rank

        def counted(rows):
            calls.append(1)
            return traced(rows)

        monkeypatch.setattr(koszul, "rank", counted)
        skipped = Counter()
        for i, j in ((2, 3), (2, 4), (3, 5)):
            blocks = list(_matched_blocks(ring, i, j))
            expected = sum(bool(b.src) + bool(b.tgt) for b in blocks)
            del calls[:]
            assert _strand_betti(ring, i, j, RankPolicy(certify=True)) == sum(b.b for b in blocks)
            assert len(calls) == expected, (i, j)
            skipped.update(cone=sum(b.at_count for b in blocks),
                           decided=sum(b.decided and not b.at_count for b in blocks))
        assert skipped["cone"] and skipped["decided"]

    def test_certify_does_not_rest_on_the_cone_exit(self, cubic_triangle, monkeypatch):
        # every block read as a cone: the default table loses every entry,
        # the certified one, which takes no cone exit, stays right
        reference = {(0, 0): 1, (1, 2): 24, (2, 3): 84, (3, 4): 126}
        assert betti_table(build_ring(cubic_triangle, 2, 4), 3, 3).entries == reference
        monkeypatch.setattr(koszul, "reduce", lambda f, xs: 1)
        assert betti_table(build_ring(cubic_triangle, 2, 4), 3, 3).entries == {}
        certified = betti_table(build_ring(cubic_triangle, 2, 4), 3, 3, RankPolicy(certify=True))
        assert certified.entries == reference

    def test_certify_refuses_a_block_over_the_limit(self, cubic_triangle, monkeypatch):
        # the c = 3 window's strand (3, 5) has a block of 753 middle cells:
        # certify refuses the window before it ranks anything, and refuses
        # the strand on its own too; the default engine has no such limit
        def ranked(rows):
            raise AssertionError("a rank was taken before the refusal")

        ring = build_ring(cubic_triangle, 3, 4)
        monkeypatch.setattr(koszul, "rank", ranked)
        refusal = r"strand \(i=3, j=5\) has a block of 753 middle cells, over the limit of 512"
        with pytest.raises(WindowExceeded, match=refusal):
            betti_table(ring, 4, 3, RankPolicy(certify=True))
        with pytest.raises(WindowExceeded, match=refusal):
            koszul_betti(ring, 3, 5, RankPolicy(certify=True))

    def test_certify_limit_is_on_the_largest_block(self, monkeypatch):
        monkeypatch.setattr(koszul, "_CERTIFY_CELLS", 3)
        koszul._certify_fits({}, 1, 2)
        koszul._certify_fits({5: ([1, 2], [0, 0]), 7: ([3, 5, 6], [0, 0, 0])}, 1, 2)
        with pytest.raises(WindowExceeded, match="a block of 4 middle cells"):
            koszul._certify_fits({5: ([1, 2], [0, 0]), 7: ([3, 5, 6, 9], [0, 0, 0, 0])}, 1, 2)

    def test_certify_serves_every_cli_window_up_to_c_2(self):
        # every window the CLI allows (max_i, max_slope <= 8) on the data
        # files at c <= 2 stays under the limit; the largest block is the
        # (1,1,2)-simplex's, the number the module docstring gives
        largest = 0
        for path in sorted(DATA.glob("*.json")):
            for c in (1, 2):
                ring = build_ring(load_polytope(path), c, 9)
                for i in range(9):
                    for j in range(i, i + 9):
                        if koszul._is_open(ring, i, j):
                            blocks = koszul._level_blocks(ring, i, j - i)
                            largest = max(largest, *(len(faces) for faces, _ in blocks.values()))
        assert largest == 378 <= koszul._CERTIFY_CELLS


    def test_orbits_cover_the_non_cone_blocks(self, corpus50, monkeypatch):
        # each orbit the engine takes is the oracle's orbit of its block; a
        # block it matches and takes no orbit of is an orbit of its own; and
        # over a strand these orbits are disjoint and cover exactly the
        # blocks that are not cones, so their sizes sum to the non-cone count
        orbit, morse_count, split = koszul._orbit, koszul._morse_count, koszul._level_blocks
        taken, matched, code = {}, [], {}

        def recorded(ring, u, *args):
            found = taken[u] = orbit(ring, u, *args)
            return found

        def split_noted(ring, q, d):
            # a block is told by its faces list, kept alive here so that no
            # other list takes its id; a first face is not unique across blocks
            blocks = split(ring, q, d)
            code.update((id(faces), (u, faces)) for u, (faces, _) in blocks.items())
            return blocks

        def noted(faces, *args):
            morse = morse_count(faces, *args)
            if morse is not None:
                matched.append(code[id(faces)][0])
            return morse

        monkeypatch.setattr(koszul, "_orbit", recorded)
        monkeypatch.setattr(koszul, "_level_blocks", split_noted)
        monkeypatch.setattr(koszul, "_morse_count", noted)
        sizes = Counter()
        for name, c, ring, max_i, max_slope in self._rings(corpus50):
            for i in range(max_i + 1):
                for j in range(i, i + max_slope + 1):
                    where = (name, c, i, j)
                    non_cone = {u for u, _, morse in _morse_blocks(ring, i, j) if morse is not None}
                    level = koszul._level_blocks(ring, i, j - i)
                    shared = Counter(len(faces) for faces, _ in level.values())
                    oracle = _oracle_orbits(ring, i, j)
                    taken.clear()
                    del matched[:]
                    code.clear()
                    _strand_betti(ring, i, j, RankPolicy())
                    # a block in an orbit already taken is skipped, not
                    # matched again; a matched block whose orbit is not
                    # taken is counted alone
                    covered = set().union(*taken.values())
                    alone = [u for u in matched if u not in covered]
                    orbits = list(taken.values()) + [{u} for u in alone]
                    assert set(taken) <= set(matched), where
                    assert sum(map(len, orbits)) == len(non_cone), where
                    assert set().union(*orbits) == non_cone, where
                    for u, found in taken.items():
                        assert found == oracle[u], (where, u)
                        # an orbit is taken only of a block whose size
                        # another block of the strand has
                        assert shared[len(level[u][0])] > 1, (where, u)
                        sizes[len(found), True] += 1
                    for u in alone:
                        assert oracle[u] == {u}, (where, u)
                        # and every block of a size no other block has is
                        # counted alone
                        assert shared[len(level[u][0])] == 1, (where, u)
                        sizes[1, False] += 1
        # orbits of every size the groups allow, and blocks counted alone
        assert sizes[1, True] > 100 and sizes[1, False] > 10
        assert all(sizes[k, True] for k in (2, 3, 4, 6, 8, 12, 24))

    def test_tables_with_and_without_orbits(self, corpus50, monkeypatch):
        # the tables are those computed with the trivial group, on the data
        # files at c = 1 and 2 in the windows above and on the corpus rings
        # of at most 10 generators at c = 1 and 2
        rings = [(load_polytope(str(DATA / f"{name}.json")), c, max_i, max_slope)
                 for name, c, max_i, max_slope in self.WINDOWS]
        rings += [(P, c, 2, P.dim + 1) for P in corpus50 for c in (1, 2)
                  if len(lattice_points(P, c)) <= 10]
        with_orbits = [betti_table(build_ring(P, c, s + 1), i, s).entries for P, c, i, s in rings]
        monkeypatch.setattr(koszul, "automorphisms", lambda P: (
            (tuple(tuple(int(r == k) for k in range(P.dim)) for r in range(P.dim)), (0,) * P.dim),
        ))
        without = [betti_table(build_ring(P, c, s + 1), i, s).entries for P, c, i, s in rings]
        assert with_orbits == without
        assert sum(len(automorphisms(P)) > 1 for P, *_ in rings) > 20

    def test_certify_and_d_squared_take_no_orbit(self, cubic_triangle, monkeypatch):
        # with the group search failing, the certified table and the d o d
        # check are still served; the default table is not, so the search
        # is on its path
        def search(P):
            raise AssertionError("the automorphism search was reached")

        monkeypatch.setattr(lattice, "_find_automorphisms", search)
        P = LatticePolytope.from_points(cubic_triangle.vertices)
        certified = betti_table(build_ring(P, 2, 4), 3, 3, RankPolicy(certify=True))
        assert certified.entries == {(0, 0): 1, (1, 2): 24, (2, 3): 84, (3, 4): 126}
        ring = build_ring(P, 2, 4)
        assert all(compose_is_zero(ring, i, j) for i in range(4) for j in range(i, i + 4))
        with pytest.raises(AssertionError, match="search was reached"):
            betti_table(ring, 3, 3)

    def test_no_repeated_size_takes_no_search(self, cubic_triangle, unit_square,
                                              unit_triangle, monkeypatch):
        # in the default CLI c = 1 windows (i <= 4, slope dim + 2) of these
        # polytopes every non-cone block has a size no other block of its
        # strand has, so the tables are served with the group search
        # failing, and they equal the certified ones
        def search(P):
            raise AssertionError("the automorphism search was reached")

        monkeypatch.setattr(lattice, "_find_automorphisms", search)
        for fixture in (cubic_triangle, unit_square, unit_triangle):
            P = LatticePolytope.from_points(fixture.vertices)
            slope = P.dim + 2
            ring = build_ring(P, 1, slope + 1)
            table = betti_table(ring, 4, slope)
            certified = betti_table(ring, 4, slope, RankPolicy(certify=True))
            assert table.entries == certified.entries, fixture.vertices

    def test_an_orbit_off_the_level_is_refused(self, cubic_triangle, monkeypatch):
        # a translation is no symmetry of P: the codes it moves a block to
        # are not blocks of the strand of the same size
        shifted = (((1, 0), (0, 1)), (1, 0))
        monkeypatch.setattr(koszul, "automorphisms", lambda P: (
            (((1, 0), (0, 1)), (0, 0)), shifted,
        ))
        with pytest.raises(ConsistencyError, match="orbit of block"):
            betti_table(build_ring(cubic_triangle, 2, 4), 3, 3)

    def test_a_cyclic_matching_is_refused(self):
        # {1} up to {0,1}, {2} up to {1,2}, {0} up to {0,2}: the gradient
        # path {1} -> {0,1} -> {0} -> {0,2} -> {2} -> {1,2} -> {1} is a
        # cycle, which no acyclic matching has, and the projection stops on it
        up = {0b010: 0b011, 0b100: 0b110, 0b001: 0b101}
        with pytest.raises(ConsistencyError, match="cycle"):
            koszul._differential_columns([0b011], {}, up)


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

    def test_cubic_c3_window(self, cubic_triangle):
        # one step past the paper's windows; the table is the one found with
        # both full maps of every block ranked
        table = betti_table(build_ring(cubic_triangle, 3, 4), 4, 3)
        assert table.entries == {
            (0, 0): 1, (1, 2): 126, (2, 3): 1200, (3, 4): 5940, (4, 5): 19152
        }
        assert k_polynomial_checksum(table)

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

    def test_every_block_rank_matches_fraction_oracle(self, cubic_triangle, simplex112, monkeypatch):
        # each Morse map the engine ranks by Bareiss is ranked again by the
        # oracle's Fraction elimination.  Every Morse map of the simplex
        # window has rank 0, so the cubic c = 2 window is checked too, for
        # maps of nonzero rank.  A map stands for every block of its block's
        # Aut(P)-orbit, so each counts with the size of the oracle's orbit;
        # the third window's polygon has no symmetry, so there each map is
        # one block
        kernel, block_betti = koszul.rank, koszul._block_betti
        block = [None]
        checked = []

        def noted(i, j, u, morse):
            block[0] = (i, j, u)
            return block_betti(i, j, u, morse)

        def cross_checked(rows):
            r = kernel(rows)
            assert r == fraction_rank(rows)
            checked.append((r, block[0]))
            return r

        monkeypatch.setattr(koszul, "rank", cross_checked)
        monkeypatch.setattr(koszul, "_block_betti", noted)
        asymmetric = LatticePolytope.from_points([(0, 2), (0, 3), (3, 0), (3, 3)])
        assert len(automorphisms(asymmetric)) == 1
        windows = ((simplex112, 2, 3, 3, 6), (cubic_triangle, 2, 4, 4, 6), (asymmetric, 1, 4, 4, 5))
        for P, c, max_i, max_slope, entries in windows:
            del checked[:]
            ring = build_ring(P, c, max_slope + 1)
            table = betti_table(ring, max_i, max_slope)
            assert len(table.entries) == entries
            orbits = {}
            for _, (i, j, u) in checked:
                if (i, j) not in orbits:
                    orbits[i, j] = _oracle_orbits(ring, i, j)
            assert sum(len(orbits[i, j][u]) for _, (i, j, u) in checked) > 100
            assert any(r for r, _ in checked) == (P is not simplex112)
        assert len(checked) > 100

    def test_negative_window_rejected(self, cubic_triangle):
        ring = build_ring(cubic_triangle, 1, 4)
        for max_i, max_slope in ((-1, 3), (2, -1)):
            with pytest.raises(DegenerateInput):
                betti_table(ring, max_i, max_slope)
            with pytest.raises(DegenerateInput):
                np_level(ring, max_i, max_slope)


def _flip_a_sign(monkeypatch, S):
    """Patch `koszul._boundary` with a copy that flips the sign of the first
    face of S and of no other."""
    rule = koszul._boundary

    def flipped(T):
        terms = rule(T)
        if T == S:
            (sign, F), *rest = terms
            terms = [(-sign, F), *rest]
        return terms

    monkeypatch.setattr(koszul, "_boundary", flipped)


class TestComplexIntegrity:
    def test_differential_squares_to_zero(self, cubic_triangle, simplex112, unit_square):
        # the two-fact check and the product of the dense strand matrices agree
        for P in (cubic_triangle, simplex112, unit_square):
            ring = build_ring(P, 1, 5)
            for i in range(4):
                for j in range(i, i + 4):
                    assert compose_is_zero(ring, i, j)
                    assert dense_compose_is_zero(ring, i, j)

    def test_each_face_of_a_face_has_two_opposite_pairs(self):
        # the fact that makes the two-fact d o d check exact: under the
        # boundary rule, on the wedge tables' masks, a face G of a face of S
        # is reached by exactly the ordered pairs (s, t) and (t, s) with
        # G = S - {s, t}, with opposite sign products
        faces_seen = 0
        for name, c, _, _ in TestMorseMatching.WINDOWS:
            ring = build_ring(load_polytope(str(DATA / f"{name}.json")), c, 1)
            for q in range(1, min(ring.dim_V - 1, 4) + 1):
                faces_out = {F: koszul._boundary(F) for F in koszul._wedge(ring, q).masks}
                for S in koszul._wedge(ring, q + 1).masks:
                    reached = {}
                    for sign, F in koszul._boundary(S):
                        s = (S ^ F).bit_length() - 1
                        for sign2, G in faces_out[F]:
                            t = (F ^ G).bit_length() - 1
                            reached.setdefault(G, []).append((s, t, sign * sign2))
                    assert len(reached) == q * (q + 1) // 2, (name, c, S)
                    for G, pairs in reached.items():
                        (s, t, x), (s2, t2, y) = pairs
                        assert (s2, t2) == (t, s) and S ^ G == (1 << s) | (1 << t)
                        assert x == -y != 0, (name, c, S, G)
                    faces_seen += len(reached)
        assert faces_seen > 1000

    # one face sign flipped by the boundary rule on a face S of the incoming
    # map (source wedge degree q = i + 1) or of the outgoing one (q = i) must
    # be caught, and the rank path, which calls the same rule, must see the
    # flip too
    @pytest.mark.parametrize("j, q", [
        pytest.param(2, 2, id="2"),
        pytest.param(3, 2, id="3"),
        pytest.param(2, 1, id="2-outgoing"),
        pytest.param(3, 1, id="3-outgoing"),
    ])
    def test_wrong_sign_is_caught(self, cubic_triangle, j, q, monkeypatch):
        ring = build_ring(cubic_triangle, 1, 4)
        assert compose_is_zero(ring, 1, j)
        # the first q-subset's boundary, unmatched, onto every (q-1)-subset
        S = koszul._wedge(ring, q).masks[0]
        rows = {F: row for row, F in enumerate(koszul._wedge(ring, q - 1).masks)}
        before = koszul._differential_columns([S], rows, {})
        _flip_a_sign(monkeypatch, S)
        assert compose_is_zero(ring, 1, j) is False
        assert koszul._differential_columns([S], rows, {}) != before

    # two entries of one row of the shift table x_v * (-): R_d -> R_{d+1}
    # swapped, at the first (d = j - 2) or second (d = j - 1) step of x_t x_s r,
    # on a fresh ring before the check first reads the table; the row of the
    # last generator v is caught only if the check reaches every pair s < t
    @pytest.mark.parametrize("j, d, v", [
        pytest.param(j, d, v, id=f"{j}-{d}{'-last' if v else ''}")
        for v in (0, -1) for j, d in ((2, 1), (3, 1), (3, 2))
    ])
    def test_swapped_shift_is_caught(self, cubic_triangle, j, d, v):
        assert compose_is_zero(build_ring(cubic_triangle, 1, 4), 1, j)
        ring = build_ring(cubic_triangle, 1, 4)
        table = list(koszul._shift(ring, d))
        row = list(table[v])
        row[0], row[1] = row[1], row[0]
        table[v] = tuple(row)
        ring.shifts[d] = tuple(table)
        assert compose_is_zero(ring, 1, j) is False

    # at i = 1 a source face has one face of a face, so a flipped sign shows
    # in every sign sum; at i = 2 it has three, and a sign flipped in the
    # outgoing table or a swapped x_0 row leaves some of them summing to
    # zero, yet the check must fail
    @pytest.mark.parametrize("fault", ["sign", "shift"])
    def test_fault_on_some_faces_is_caught(self, cubic_triangle, fault, monkeypatch):
        i, j = 2, 4
        assert compose_is_zero(build_ring(cubic_triangle, 1, 4), i, j)
        ring = build_ring(cubic_triangle, 1, 4)
        if fault == "sign":
            _flip_a_sign(monkeypatch, koszul._wedge(ring, i).masks[0])
        else:
            d = j - i - 1
            table = koszul._shift(ring, d)
            row = list(table[0])
            row[0], row[1] = row[1], row[0]
            ring.shifts[d] = (tuple(row),) + table[1:]
        assert compose_is_zero(ring, i, j) is False

    # the record of passed facts: a table changed after a pass must still be
    # caught, each at a strand whose other fact the record vouches for
    @pytest.mark.parametrize("j, d, v", [
        pytest.param(j, d, v, id=f"{j}-{d}{'-last' if v else ''}")
        for v in (0, -1) for j, d in ((2, 1), (3, 1), (3, 2))
    ])
    def test_swapped_shift_after_a_pass_is_caught(self, cubic_triangle, j, d, v):
        ring = build_ring(cubic_triangle, 1, 4)
        assert compose_is_zero(ring, 1, j)
        assert ring.passed[("commute", j - 2)] == (ring.shifts[j - 2], ring.shifts[j - 1])
        table = list(ring.shifts[d])
        row = list(table[v])
        row[0], row[1] = row[1], row[0]
        table[v] = tuple(row)
        ring.shifts[d] = tuple(table)
        assert compose_is_zero(ring, 1, j) is False

    @pytest.mark.parametrize("q", [pytest.param(1, id="outgoing"), pytest.param(2, id="incoming")])
    def test_sign_flipped_after_a_pass_is_caught_at_another_j(self, cubic_triangle, q,
                                                              monkeypatch):
        # the sign fact's record is the rule it passed on, so a rule patched
        # after the pass gets the full check
        ring = build_ring(cubic_triangle, 1, 4)
        assert compose_is_zero(ring, 1, 2)
        assert ring.passed[("signs", 1)] is koszul._boundary
        assert ("commute", 1) not in ring.passed
        _flip_a_sign(monkeypatch, ring.wedges[q].masks[-1])
        assert compose_is_zero(ring, 1, 3) is False

    def test_an_equal_copy_passes_on_the_record(self, cubic_triangle, monkeypatch):
        # shift tables equal to the ones the commuting fact passed on, as
        # other objects: the record vouches for them without reading an
        # entry, where a fresh ring reads them.  The sign fact passed on the
        # boundary rule: a second strand at the same i calls it no more
        reads, calls = [], []

        class Rows(tuple):
            def __getitem__(self, k):
                reads.append(k)
                return tuple.__getitem__(self, k)

        def copy_tables(ring):
            for d in (1, 2):
                ring.shifts[d] = Rows(tuple([*row]) for row in koszul._shift(ring, d))

        rule = koszul._boundary

        def counted(S):
            calls.append(S)
            return rule(S)

        monkeypatch.setattr(koszul, "_boundary", counted)
        fresh = build_ring(cubic_triangle, 1, 4)
        copy_tables(fresh)
        assert compose_is_zero(fresh, 1, 3) and reads and calls
        ring = build_ring(cubic_triangle, 1, 4)
        assert compose_is_zero(ring, 1, 3)
        copy_tables(ring)
        reads.clear()
        calls.clear()
        assert compose_is_zero(ring, 1, 3) and reads == []
        assert compose_is_zero(ring, 1, 2) and calls == []

    def test_memo_fields_are_not_the_value(self, cubic_triangle):
        # two rings of one (P, c, dmax), one with its tables and d o d record
        # filled: equal, with equal hashes and reprs
        bare, used = build_ring(cubic_triangle, 2, 4), build_ring(cubic_triangle, 2, 4)
        betti_table(used, 3, 3)
        assert all(compose_is_zero(used, i, j) for i in range(1, 4) for j in range(i, i + 4))
        assert used.degrees and used.wedges and used.shifts and used.downs and used.passed
        assert not (bare.degrees or bare.passed)
        assert bare == used and hash(bare) == hash(used) and repr(bare) == repr(used)

    def test_negative_degrees_refused(self, cubic_triangle):
        ring = build_ring(cubic_triangle, 1, 4)
        for i, j in ((-1, 2), (1, -1), (-1, -1), (-1, 0)):
            with pytest.raises(DegenerateInput):
                compose_is_zero(ring, i, j)
            with pytest.raises(DegenerateInput):
                koszul_betti(ring, i, j)

    def test_checksum(self, cubic_triangle, unit_square, unit_triangle):
        for P in (cubic_triangle, unit_square, unit_triangle):
            ring = build_ring(P, 1, 4)
            assert k_polynomial_checksum(betti_table(ring, 3, 3))

    def test_checksum_sees_a_wrong_entry(self, cubic_triangle):
        table = betti_table(build_ring(cubic_triangle, 1, 4), 3, 3)
        entries = {**table.entries, (1, 3): table.get(1, 3) + 1}
        assert not k_polynomial_checksum(
            BettiTable(entries, table.max_i, table.max_slope, table.ring)
        )

    # rules whose sign sums still cancel: the face of the highest bit of
    # every S left out, every sign 0, every sign 0 on the faces (wedge^i V,
    # i = 2) alone, and a pair of terms of opposite signs on one face added;
    # the check refuses each by its shape
    @pytest.mark.parametrize("fault", [
        "top face dropped", "zero signs", "zero signs on the faces", "cancelling pair",
    ])
    def test_a_rule_that_is_no_boundary_is_caught(self, cubic_triangle, fault, monkeypatch):
        rule = koszul._boundary
        faulty = {
            "top face dropped": lambda S: rule(S)[:-1],
            "zero signs": lambda S: [(0, F) for _, F in rule(S)],
            "zero signs on the faces": lambda S: [
                (0 if S.bit_count() == 2 else sign, F) for sign, F in rule(S)
            ],
            "cancelling pair": lambda S: rule(S) + [(1, S ^ (S & -S)), (-1, S ^ (S & -S))],
        }[fault]
        ring = build_ring(cubic_triangle, 2, 5)
        monkeypatch.setattr(koszul, "_boundary", faulty)
        assert compose_is_zero(ring, 2, 4) is False
        assert ("signs", 2) not in ring.passed

    def test_a_partner_whose_boundary_lacks_its_face_is_refused(self, cubic_triangle,
                                                                monkeypatch):
        # the Morse columns eliminate a matched face along its partner's
        # boundary; with the highest-bit face left out, some partner's
        # boundary lacks its face, and the engine says so
        rule = koszul._boundary
        monkeypatch.setattr(koszul, "_boundary", lambda S: rule(S)[:-1])
        with pytest.raises(ConsistencyError, match="lacks its matched face"):
            betti_table(build_ring(cubic_triangle, 2, 5), 4, 4)

    def test_rank_above_the_critical_cells_is_refused(self, cubic_triangle, monkeypatch):
        # a block whose Morse maps outrank its critical middle cells would
        # add a negative Betti number
        ring = build_ring(cubic_triangle, 2, 4)
        monkeypatch.setattr(koszul, "rank", lambda rows: 10**6)
        with pytest.raises(ConsistencyError, match="negative Betti block"):
            betti_table(ring, 2, 2)

    def test_determinism_under_vertex_order(self, cubic_triangle):
        reordered = LatticePolytope.from_points([(2, 2), (1, 1), (0, 1), (1, 0)])
        t1 = betti_table(build_ring(cubic_triangle, 1, 4), 2, 3)
        t2 = betti_table(build_ring(reordered, 1, 4), 2, 3)
        assert t1.entries == t2.entries


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

    def test_table_must_cover_the_window(self, cubic_triangle):
        # beta_{1,3} = 1 lies outside the (max_i 0, slope 1) table; reading
        # it as 0 would verify N_1, which fails
        ring = build_ring(cubic_triangle, 1, 6)
        assert np_level(ring, 3, 5)[1].certificate == (1, 3, 1)
        small = betti_table(ring, 0, 1)
        for pmax, max_slope in ((3, 5), (1, 1), (0, 2)):
            with pytest.raises(WindowExceeded):
                np_level(ring, pmax, max_slope, table=small)
        assert np_level(ring, 0, 1, table=small)[0].status == "VERIFIED_UP_TO"
        assert np_level(ring, 0, 0, table=betti_table(ring, 2, 3))[0].status == "VERIFIED_UP_TO"


def _np_by_definition(table, p):
    """(N_p) read off the definition: the lexicographically first nonzero
    beta_{i,j} with i <= p that is not beta_{0,0} or a linear beta_{i,i+1}."""
    offending = sorted(
        (i, j) for (i, j), b in table.entries.items()
        if b and i <= p and (j >= 1 if i == 0 else j != i + 1)
    )
    if offending:
        i, j = offending[0]
        return ("FAILS", (i, j, table.get(i, j)), None)
    return ("VERIFIED_UP_TO", None, table.max_slope)


def _as_tuple(v):
    assert v.criterion is None
    return (v.status, v.certificate, v.bound)


class TestCertificateRule:
    PMAX = 2

    def test_computed_tables(
        self, unit_triangle, unit_square, cubic_triangle, simplex112, corpus2d
    ):
        # the ten corpus2d polytopes with the fewest lattice points keep the
        # c = 2 windows small
        small = sorted(corpus2d, key=lambda P: len(lattice_points(P, 1)))[:10]
        statuses = set()
        for P in [unit_triangle, unit_square, cubic_triangle, simplex112] + small:
            for c in (1, 2):
                ring = build_ring(P, c, P.dim + 3)
                table = betti_table(ring, self.PMAX, P.dim + 2)
                verdicts = np_level(ring, self.PMAX, P.dim + 2, table=table)
                assert [v.p for v in verdicts] == list(range(self.PMAX + 1))
                for v in verdicts:
                    assert _as_tuple(v) == _np_by_definition(table, v.p)
                    statuses.add((v.p, v.status))
        # both outcomes occur at every p, so no branch goes unchecked
        assert {s for _, s in statuses} == {"FAILS", "VERIFIED_UP_TO"}
        assert {p for p, s in statuses if s == "FAILS"} == {0, 1, 2}

    def test_arbitrary_tables(self, unit_triangle):
        # entries no ring produces, beta_{0,1} != 0 among them, read by the
        # same rule
        ring = build_ring(unit_triangle, 1, 4)
        rng = random.Random(5)
        for _ in range(300):
            max_slope = rng.randint(0, 3)
            entries = {
                (i, j): rng.randint(1, 3)
                for i in range(self.PMAX + 1)
                for j in range(i, i + max_slope + 1)
                if rng.random() < 0.3
            }
            table = BettiTable(entries, self.PMAX, max_slope, ring)
            for v in np_level(ring, self.PMAX, max_slope, table=table):
                assert _as_tuple(v) == _np_by_definition(table, v.p)
