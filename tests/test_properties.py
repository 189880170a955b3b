"""Property tests (hypothesis) against the brute-force oracles.

Examples are derandomized and no example database is kept, so the suite
runs the same cases every time; `conftest.py` keeps hypothesis' on-disk
cache out of the working tree.  The last test checks that a failing
property test, under the project's warning filters, fails alone and leaves
the rest of the session running.
"""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
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
from polysyz.lattice import automorphisms, normalize_full_dim

from .oracles import box_points, dense_betti, dense_compose_is_zero

PROPERTY = settings(derandomize=True, database=None, deadline=None)
ROOT = Path(__file__).resolve().parent.parent


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


def _generators(n):
    """Generators of GL_n(Z): the transvections x_r += x_c, the swaps of
    neighbouring coordinates and the sign change of the first."""
    def matrix(entry):
        return tuple(tuple(entry(r, c) for c in range(n)) for r in range(n))

    gens = [matrix(lambda r, c, a=a, b=b: int(r == c or (r, c) == (a, b)))
            for a in range(n) for b in range(n) if a != b]
    gens += [matrix(lambda r, c, k=k: int((r == c) != (k <= min(r, c) and max(r, c) <= k + 1)))
             for k in range(n - 1)]
    gens.append(matrix(lambda r, c: (-1 if r == 0 else 1) if r == c else 0))
    return gens


def _product(word, n):
    m = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    for g in word:
        m = tuple(
            tuple(sum(m[r][k] * g[k][c] for k in range(n)) for c in range(n))
            for r in range(n)
        )
    return m


def unimodular(n):
    # short words give small entries
    return st.lists(st.sampled_from(_generators(n)), max_size=4).map(lambda w: _product(w, n))


def translations(n):
    return st.tuples(*[st.integers(-3, 3)] * n)


@st.composite
def solids(draw, max_points):
    """A lattice polytope in [0, 2]^3 with at most `max_points` lattice points."""
    coord = st.integers(0, 2)
    pts = draw(st.lists(st.tuples(coord, coord, coord), min_size=4, max_size=6, unique=True))
    try:
        P = LatticePolytope.from_points(pts)
    except DegenerateInput:
        assume(False)
    assume(len(lattice_points(P, 1)) <= max_points)
    return P


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
    # c = 1, i <= 3, j - i <= 2: the two-fact d o d check against the product
    # of the dense strand matrices; every strand is asked twice, forward and
    # then in reverse order, on the same ring, so that its record of passed
    # facts answers the second round
    ring = build_ring(P, 1, 3)
    window = [(i, j) for i in range(4) for j in range(i, i + 3)]
    for i, j in window + window[::-1]:
        assert compose_is_zero(ring, i, j) == dense_compose_is_zero(ring, i, j), (i, j)


@settings(PROPERTY, max_examples=300)
@given(st.integers(0, 31).flatmap(lambda width: st.integers(0, (1 << width) - 1)))
@example((1 << 31) - 1)
def test_boundary_rule(S):
    # every bitmask up to 31 bits, dim V of the cubic triangle at c = 4: the
    # boundary of S is its faces S - {s_t}, bits read off bin(S) in
    # increasing order, with sign (-1)^t; and every G two steps below S is
    # reached by exactly two terms, whose sign products sum to 0
    bits = [s for s, digit in enumerate(reversed(bin(S)[2:])) if digit == "1"]
    boundary = koszul._boundary(S)
    assert boundary == [((-1) ** t, S ^ (1 << s)) for t, s in enumerate(bits)]
    reached = {}
    for sign, F in boundary:
        for sign2, G in koszul._boundary(F):
            reached.setdefault(G, []).append(sign * sign2)
    assert len(reached) == len(bits) * (len(bits) - 1) // 2
    for G, products in reached.items():
        assert (S ^ G).bit_count() == 2 and len(products) == 2 and sum(products) == 0, G


@settings(PROPERTY, max_examples=60)
@given(st.one_of(
    st.tuples(polygons(bound=3, max_points=8), unimodular(2), translations(2)),
    st.tuples(solids(max_points=7), unimodular(3), translations(3)),
))
def test_betti_table_is_unimodular_invariant(case):
    # in 2-D and 3-D; the automorphism group of the image is conjugate to
    # that of P, so it has the same order
    P, A, t = case
    n = P.dim
    image = [
        tuple(sum(A[r][k] * v[k] for k in range(n)) + t[r] for r in range(n))
        for v in P.vertices
    ]
    Q = normalize_full_dim(image)
    assert Q.dim == n
    assert len(automorphisms(Q)) == len(automorphisms(P))

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
    n = ring.dim_V
    order = data.draw(st.permutations(range(n)))
    expected = betti_table(ring, 2, P.dim + 1).entries
    # the matching takes generators in index order, so it runs on masks in
    # which generator order[k] takes bit k, and its cells and partners are
    # read back in the ring's own labels
    forward = {1 << v: 1 << k for k, v in enumerate(order)}
    backward = {new: old for old, new in forward.items()}

    def relabel(mask, bits):
        return sum(new for old, new in bits.items() if mask & old)

    def back(mask):
        return relabel(mask, backward)

    morse_count = koszul._morse_count
    asked = []

    def in_drawn_order(faces, downs, certify):
        asked.append(True)
        morse = morse_count([relabel(S, forward) for S in faces],
                            [relabel(x, forward) for x in downs], certify)
        if morse is None:
            return None
        return koszul._Morse(*(set(map(back, cells)) for cells in morse[:3]),
                             {back(F): back(T) for F, T in morse.up.items()})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(koszul, "_morse_count", in_drawn_order)
        assert betti_table(ring, 2, P.dim + 1).entries == expected
    assert asked


PLANTED = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_leaves_the_rest_running(tmp_path):
    # on a failure hypothesis imports libcst to write a patch, and that
    # import warns; the project's warning filters must not turn it into an
    # internal error that ends the session before the next test runs
    (tmp_path / "test_planted.py").write_text(PLANTED)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout, out.stdout
