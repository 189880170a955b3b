import random

import pytest

from polysyz import (
    DegenerateInput,
    LatticePolytope,
    contains,
    decompose,
    dilate,
    is_normal,
    lattice_points,
    normalize_full_dim,
)

from .oracles import brute_decompositions


def test_unit_simplices_normal():
    for n in range(1, 5):
        verts = [(0,) * n] + [
            tuple(1 if k == i else 0 for k in range(n)) for i in range(n)
        ]
        rep = is_normal(LatticePolytope.from_points(verts))
        assert rep.normal and rep.witness is None


def test_simplex112_witness(simplex112):
    rep = is_normal(simplex112)
    assert not rep.normal
    assert rep.witness == ((1, 1, 1), 2)
    # the witness is re-checkable: in 2P but with no 2-fold decomposition
    assert contains(simplex112, 2, (1, 1, 1))
    assert decompose(simplex112, (1, 1, 1), 2) is None
    assert brute_decompositions(lattice_points(simplex112, 1), (1, 1, 1), 2) == []


def test_negative_bound_rejected(unit_triangle):
    with pytest.raises(DegenerateInput):
        is_normal(unit_triangle, -1)
    assert is_normal(unit_triangle, 0).checked_up_to == 0


def test_doubled_simplex112_normal(simplex112):
    rep = is_normal(dilate(simplex112, 2))
    assert rep.normal


def test_decompose_examples(cubic_triangle):
    parts = decompose(cubic_triangle, (3, 3), 3)
    assert parts is not None and len(parts) == 3
    assert tuple(sum(c) for c in zip(*parts)) == (3, 3)
    assert all(contains(cubic_triangle, 1, p) for p in parts)

    for g in lattice_points(cubic_triangle, 1):
        assert decompose(cubic_triangle, g, 1) == [g]

    # a point outside mP is bad input, still a ValueError for library callers
    with pytest.raises(DegenerateInput, match=r"\(50, 0\) does not lie in 2P"):
        decompose(cubic_triangle, (50, 0), 2)
    assert issubclass(DegenerateInput, ValueError)

    # 0P is the origin, and the origin is the empty sum
    assert decompose(cubic_triangle, (0, 0), 0) == []
    with pytest.raises(DegenerateInput, match="does not lie in 0P"):
        decompose(cubic_triangle, (1, 1), 0)
    with pytest.raises(DegenerateInput, match="dilation must be nonnegative"):
        decompose(cubic_triangle, (0, 0), -1)


def test_sumset_monotone(corpus50):
    for P in corpus50[:8]:
        gens = lattice_points(P, 1)
        sums = set(gens)
        for m in range(2, 4):
            sums = {tuple(a + b for a, b in zip(s, g)) for s in sums for g in gens}
            assert sums <= set(lattice_points(P, m))


def _random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def test_normality_unimodular_invariant(corpus50):
    rng = random.Random(3)
    for P in corpus50[:6]:
        n = P.dim
        U = _random_unimodular(rng, n)
        shift = tuple(rng.randint(-2, 2) for _ in range(n))
        mapped = [
            tuple(sum(U[i][k] * v[k] for k in range(n)) + shift[i] for i in range(n))
            for v in P.vertices
        ]
        Q = normalize_full_dim(mapped)
        assert is_normal(Q).normal == is_normal(P).normal
