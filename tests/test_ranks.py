import os
import random
import subprocess
import sys

import pytest

import polysyz
from polysyz.intlinalg import exact_rank
from polysyz.ranks import RankPolicy, rank_mod_p

P = RankPolicy().prime


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
            assert rank_mod_p(rows, P) == exact_rank(rows)


def test_rank_deficient_products():
    rng = random.Random(7)
    for k in range(1, 6):
        a = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(15)]
        b = [[rng.randint(-5, 5) for _ in range(15)] for _ in range(k)]
        ab = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        assert rank_mod_p(ab, P) == exact_rank(ab) <= k


def test_mod_p_edge_cases():
    assert rank_mod_p([], P) == 0
    assert rank_mod_p([[P]], P) == 0
    assert rank_mod_p([[0, 0], [0, 0]], P) == 0
    assert rank_mod_p([[-P, 2 * P], [1, 0]], P) == 1
    assert rank_mod_p([[2, 4], [1, 2]], 7) == 1


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
