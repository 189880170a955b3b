import itertools
import random
from collections import Counter
from math import ceil
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
from polysyz.intlinalg import exact_rank
from polysyz.koszul import _strand_betti
from polysyz.serialize import load_polytope

from .oracles import block_matrix, dense_betti, dense_compose_is_zero, fraction_rank

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

    def test_window_is_checked_first(self, unit_triangle):
        # i > pd still needs the window, as every strand up to dim V does;
        # beyond dim V the strand is 0 with no window check, as before
        ring = build_ring(unit_triangle, 1, 2)
        assert ring.pd == 0 and ring.dim_V == 3
        assert koszul_betti(ring, 1, 2) == 0
        with pytest.raises(WindowExceeded):
            koszul_betti(ring, 1, 3)
        assert koszul_betti(ring, 4, 9) == 0


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
    """(u, middle elements, `_morse_count` of the block) for each block of
    strand (i, j)."""
    d = j - i
    masks, down = koszul._wedge(ring, i).masks, koszul._down(ring, d)
    for u, mid in koszul._level_blocks(ring, i, d).items():
        yield u, mid, koszul._morse_count(mid, ring.dim(d), masks, down, ring.dim_V, False)


def _matched_blocks(ring, i, j):
    """A `_Block` for each block of strand (i, j), every full map ranked
    whether or not the matching decides the block."""
    src = koszul._level_blocks(ring, i + 1, j - i - 1)
    tgt = koszul._level_blocks(ring, i - 1, j - i + 1)
    for u, mid, morse in _morse_blocks(ring, i, j):
        b = len(mid)
        for elts, q, targets in ((mid, i, tgt.get(u)), (src.get(u), i + 1, mid)):
            if elts and targets:
                b -= exact_rank(block_matrix(ring, elts, q, j - q, targets))
        critical, decided, morse_b, ranked = 0, True, None, 0
        if morse is not None:
            critical = len(morse.middle)
            decided = not morse.middle or not (morse.low or morse.high)
        if not decided:
            morse_b = critical
            for q, cells, lower in ((i, morse.middle, morse.low),
                                    (i + 1, morse.high, morse.middle)):
                if cells and lower:
                    cols = koszul._differential_columns(ring, q, cells, lower, morse.up)
                    morse_b -= exact_rank(koszul._dense(cols))
                    ranked += 1
        yield _Block(u, critical, decided, morse is None, b, morse_b, ranked,
                     mid, src.get(u), tgt.get(u))


def _cells(ring, elements, q, d):
    """The faces of the elements of one block of wedge^q V (x) R_d, as bitmasks."""
    if not elements:
        return set()
    masks, size = koszul._wedge(ring, q).masks, ring.dim(d)
    return {masks[e // size] for e in elements}


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
                subsets = list(itertools.combinations(range(n), i))
                for j in range(i, i + max_slope + 1):
                    for block in _matched_blocks(ring, i, j):
                        mid, src = block.mid, block.src
                        k, r = divmod(mid[0], ring.dim(j - i))
                        point = ring.degree(j - i).basis[r]
                        u = tuple(
                            x + sum(ring.degree(1).basis[s][a] for s in subsets[k])
                            for a, x in enumerate(point)
                        )
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
                        middle = _cells(ring, mid, i, d)
                        high = _cells(ring, src.get(u, ()), i + 1, d - 1)
                        low = _cells(ring, tgt.get(u, ()), i - 1, d + 1)
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
        # the engine ranks each Morse map of the open blocks that has a
        # critical source and a critical target cell, and nothing else
        ring = build_ring(cubic_triangle, 2, 4)
        calls = []
        traced = koszul.rank

        def counted(rows):
            calls.append(1)
            return traced(rows)

        monkeypatch.setattr(koszul, "rank", counted)
        for i, j in ((2, 3), (2, 4), (3, 5)):
            blocks = list(_matched_blocks(ring, i, j))
            expected = sum(b.ranked for b in blocks if not b.decided)
            del calls[:]
            assert _strand_betti(ring, i, j, RankPolicy()) == sum(b.b for b in blocks)
            assert len(calls) == expected, (i, j)

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
        koszul._certify_fits({5: [0, 1], 7: [2, 3, 4]}, 1, 2)
        with pytest.raises(WindowExceeded, match="a block of 4 middle cells"):
            koszul._certify_fits({5: [0, 1], 7: [2, 3, 4, 5]}, 1, 2)

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
                            largest = max(largest, *map(len, blocks.values()))
        assert largest == 378 <= koszul._CERTIFY_CELLS


    def test_a_cyclic_matching_is_refused(self, unit_triangle):
        # {1} up to {0,1}, {2} up to {1,2}, {0} up to {0,2}: the gradient
        # path {1} -> {0,1} -> {0} -> {0,2} -> {2} -> {1,2} -> {1} is a
        # cycle, which no acyclic matching has, and the projection stops on it
        ring = build_ring(unit_triangle, 1, 2)
        up = {0b010: 0b011, 0b100: 0b110, 0b001: 0b101}
        with pytest.raises(ConsistencyError, match="cycle"):
            koszul._differential_columns(ring, 2, [0b011], {}, up)


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

    def test_every_block_rank_matches_bareiss(self, cubic_triangle, simplex112, monkeypatch):
        # each Morse map the engine ranks by Bareiss is ranked again by the
        # oracle's Fraction elimination.  Every Morse map of the simplex
        # window has rank 0, so the cubic c = 2 window is checked too, for
        # maps of nonzero rank
        kernel = koszul.rank
        checked = []

        def cross_checked(rows):
            r = kernel(rows)
            assert r == fraction_rank(rows)
            checked.append(r)
            return r

        monkeypatch.setattr(koszul, "rank", cross_checked)
        windows = ((simplex112, 2, 3, 3, 6), (cubic_triangle, 2, 4, 4, 6))
        for P, c, max_i, max_slope, size in windows:
            del checked[:]
            table = betti_table(build_ring(P, c, max_slope + 1), max_i, max_slope)
            assert len(table.entries) == size
            assert len(checked) > 100
        assert any(checked)

    def test_negative_window_rejected(self, cubic_triangle):
        ring = build_ring(cubic_triangle, 1, 4)
        for max_i, max_slope in ((-1, 3), (2, -1)):
            with pytest.raises(DegenerateInput):
                betti_table(ring, max_i, max_slope)
            with pytest.raises(DegenerateInput):
                np_level(ring, max_i, max_slope)


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
        # the fact that makes the two-fact d o d check exact: in the wedge tables, a
        # face G of a face of S is reached by exactly the ordered pairs
        # (s, t) and (t, s) with G = S - {s, t}, with opposite sign products
        faces_seen = 0
        for name, c, _, _ in TestMorseMatching.WINDOWS:
            ring = build_ring(load_polytope(str(DATA / f"{name}.json")), c, 1)
            for q in range(1, min(ring.dim_V - 1, 4) + 1):
                faces_out = koszul._wedge(ring, q).faces
                for S, faces in koszul._wedge(ring, q + 1).faces.items():
                    reached = {}
                    for sign, F in faces:
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

    # one face sign flipped in the wedge table of the incoming map (source
    # wedge degree q = i + 1) or of the outgoing one (q = i) must be caught,
    # and the rank path, which reads the same table, must see the flip too
    @pytest.mark.parametrize("j, q", [
        pytest.param(2, 2, id="2"),
        pytest.param(3, 2, id="3"),
        pytest.param(2, 1, id="2-outgoing"),
        pytest.param(3, 1, id="3-outgoing"),
    ])
    def test_wrong_sign_is_caught(self, cubic_triangle, j, q):
        ring = build_ring(cubic_triangle, 1, 4)
        assert compose_is_zero(ring, 1, j)
        # the first q-subset's boundary, unmatched, onto every (q-1)-subset
        S = koszul._wedge(ring, q).masks[0]
        rows = {F: row for row, F in enumerate(koszul._wedge(ring, q - 1).masks)}
        before = koszul._differential_columns(ring, q, [S], rows, {})
        faces = ring.wedges[q].faces
        (sign, F), *rest = faces[S]
        faces[S] = ((-sign, F), *rest)
        assert compose_is_zero(ring, 1, j) is False
        assert koszul._differential_columns(ring, q, [S], rows, {}) != before

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
    def test_fault_on_some_faces_is_caught(self, cubic_triangle, fault):
        i, j = 2, 4
        assert compose_is_zero(build_ring(cubic_triangle, 1, 4), i, j)
        ring = build_ring(cubic_triangle, 1, 4)
        if fault == "sign":
            table = koszul._wedge(ring, i)
            (sign, F), *rest = table.faces[table.masks[0]]
            table.faces[table.masks[0]] = ((-sign, F), *rest)
        else:
            d = j - i - 1
            table = koszul._shift(ring, d)
            row = list(table[0])
            row[0], row[1] = row[1], row[0]
            ring.shifts[d] = (tuple(row),) + table[1:]
        assert compose_is_zero(ring, i, j) is False

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
