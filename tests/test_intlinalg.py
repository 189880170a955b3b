"""`exact_rank` (Bareiss elimination) and `kernel_basis` against the
oracles' own Fraction elimination, and `adjugate` against the permutation
sum of the determinant, on seeded random integer matrices."""

import random

import pytest

from polysyz.intlinalg import adjugate, exact_rank, kernel_basis, row_hnf, solve_in_hnf_basis

from .oracles import brute_det, fraction_rank


def _matrix(rng, nrows, ncols):
    """Entries in -4..4, often zero, sometimes with a zero leading column
    entry or a repeated row, so pivots need row swaps and ranks fall short."""
    rows = [
        [rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if nrows >= 2 and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = list(rows[rng.randrange(nrows)])
    if nrows and ncols and rng.random() < 0.5:
        rows[0][0] = 0
    return rows


@pytest.mark.parametrize("nrows, ncols", [(0, 0), (1, 5), (5, 1), (3, 7), (7, 3), (6, 6)])
def test_exact_rank_matches_fraction_oracle(nrows, ncols):
    rng = random.Random(1000 * nrows + ncols)
    for _ in range(100):
        rows = _matrix(rng, nrows, ncols)
        assert exact_rank(rows) == fraction_rank(rows)


def test_exact_rank_row_swaps():
    # each of these needs a row swap at the first pivot
    assert exact_rank([[0, 1], [1, 0]]) == 2
    assert exact_rank([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == 3
    assert exact_rank([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 3
    # the input is left as it was
    rows = [[0, 2], [3, 1]]
    assert exact_rank(rows) == 2 and rows == [[0, 2], [3, 1]]


@pytest.mark.parametrize(
    "nrows, ncols", [(0, 3), (1, 4), (2, 5), (3, 3), (4, 6), (5, 3)]
)
def test_kernel_basis_is_an_hnf_kernel(nrows, ncols):
    rng = random.Random(7000 * nrows + ncols)
    for _ in range(60):
        rows = _matrix(rng, nrows, ncols)
        out = kernel_basis(rows, ncols)
        assert row_hnf(out) == out
        assert len(out) == ncols - fraction_rank(rows)
        for x in out:
            assert all(sum(a * b for a, b in zip(r, x)) == 0 for r in rows)


@pytest.mark.parametrize("basis, target, message", [
    ([[0, 0]], (1, 0), "zero row"),
    # a nonzero coordinate before the first pivot
    ([[0, 2]], (1, 2), "not in lattice"),
    # the pivot does not divide the coordinate
    ([[2, 0]], (1, 0), "not in lattice"),
    # a remainder left after the last row
    ([[1, 0]], (1, 1), "not in lattice"),
], ids=["zero-row", "before-pivot", "pivot-divides", "remainder"])
def test_solve_in_hnf_basis_refuses(basis, target, message):
    with pytest.raises(ValueError, match=message):
        solve_in_hnf_basis(basis, target)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_adjugate_matches_the_permutation_sum(n):
    # E adj(E) = det(E) I, with det(E) the signed sum over permutations;
    # singular matrices and zero leading entries included
    rng = random.Random(n)
    singular = 0
    for _ in range(100):
        E = _matrix(rng, n, n)
        det, adj = adjugate(E)
        assert det == brute_det(E)
        assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*adj)] for row in E] == [
            [det * (r == c) for c in range(n)] for r in range(n)
        ]
        singular += det == 0
    assert n < 2 or singular
