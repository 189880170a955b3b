"""`rank`, the engine's one rank kernel, against the oracles' own Fraction
elimination, and `rank_mod_p` against `rank`, on seeded random integer
matrices."""

import os
import random
import subprocess
import sys

import pytest

import polysyz
from polysyz.ranks import rank, rank_mod_p

from .oracles import fraction_rank

P = 2**31 - 1


def _random_matrix(rng, nrows, ncols, density):
    rows = [
        [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if nrows and ncols:
        rows[rng.randrange(nrows)] = [0] * ncols
        for row in rows:
            row[rng.randrange(ncols)] = 0
    return rows


@pytest.mark.parametrize("nrows, ncols", [(1, 1), (1, 7), (7, 1), (5, 5), (12, 30), (30, 12), (40, 40)])
def test_rank_mod_p_matches_exact(nrows, ncols):
    rng = random.Random(1000 * nrows + ncols)
    for density in (0.1, 0.4, 1.0):
        for _ in range(5):
            rows = _random_matrix(rng, nrows, ncols, density)
            assert rank_mod_p(rows, P) == rank(rows)


def test_rank_deficient_products():
    rng = random.Random(7)
    for k in range(1, 6):
        a = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(15)]
        b = [[rng.randint(-5, 5) for _ in range(15)] for _ in range(k)]
        ab = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        assert rank_mod_p(ab, P) == rank(ab) <= k


def test_mod_p_edge_cases():
    assert rank_mod_p([], P) == 0
    assert rank_mod_p([[P]], P) == 0
    assert rank_mod_p([[0, 0], [0, 0]], P) == 0
    assert rank_mod_p([[-P, 2 * P], [1, 0]], P) == 1
    assert rank_mod_p([[2, 4], [1, 2]], 7) == 1


def _check_rank(rows, expected=None):
    """rank(rows) is the oracle's rank, or `expected` when given, and the
    input is left as it was."""
    copy = [list(row) for row in rows]
    r = rank(rows)
    assert r == (fraction_rank(rows) if expected is None else expected)
    assert rows == copy
    return r


@pytest.mark.parametrize("nrows, ncols", [(1, 1), (1, 7), (7, 1), (5, 5), (12, 30), (30, 12), (40, 40)])
def test_rank_matches_bareiss_on_signed_units(nrows, ncols):
    # the entries of a Koszul block: 0 and +-1
    rng = random.Random(2000 * nrows + ncols)
    for density in (0.1, 0.3, 0.7):
        for _ in range(5):
            _check_rank([
                [rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(ncols)]
                for _ in range(nrows)
            ])


@pytest.mark.parametrize("nrows, ncols", [(1, 1), (1, 7), (7, 1), (5, 5), (12, 30), (30, 12), (40, 40)])
def test_rank_matches_bareiss_on_integers(nrows, ncols):
    rng = random.Random(3000 * nrows + ncols)
    for density in (0.1, 0.4, 1.0):
        for _ in range(5):
            rows = _random_matrix(rng, nrows, ncols, density)
            r = _check_rank(rows)
            # every entry, and so every pivot, is a non-unit; the rank is the same
            _check_rank([[6 * v for v in row] for row in rows], r)


def test_rank_with_no_unit_pivot():
    rng = random.Random(11)
    for k in range(1, 6):
        a = [[rng.choice((2, 3, -4, 0)) for _ in range(k)] for _ in range(15)]
        b = [[rng.choice((2, -3, 5, 0)) for _ in range(15)] for _ in range(k)]
        _check_rank([[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a])
    _check_rank([[2, 3], [3, 2]])
    _check_rank([[2, 4], [3, 6]])


def test_rank_edge_cases():
    assert rank([]) == 0
    assert rank([[], [], []]) == 0
    _check_rank([[0] * 4 for _ in range(3)])
    # duplicate and empty columns
    rng = random.Random(5)
    for _ in range(20):
        rows = _random_matrix(rng, 8, 6, 0.5)
        rows = [row + row[:3] + [0] for row in rows]
        _check_rank(rows)
    # the input rows are left as they were, pivots and row swaps included
    rows = [[0, 1, 1], [1, 1, 2], [1, 2, 3]]
    assert rank(rows) == 2
    assert rows == [[0, 1, 1], [1, 1, 2], [1, 2, 3]]


def test_import_loads_no_numpy_or_compiled_kernel():
    code = (
        "import sys, polysyz, polysyz.cli; "
        "print(sorted({'numpy', 'polysyz._fastrank'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(polysyz.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    ).stdout
    assert out.strip() == "[]"
