import os
import tempfile

import pytest

from polysyz import LatticePolytope
from polysyz.corpus import generate_corpus

# hypothesis caches the constants it reads from the package source, by
# default under .hypothesis/ in the working directory; keep it out of the tree
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "polysyz-hypothesis")
)

# one line per acceptance criterion, shown after the run regardless of capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def unit_triangle():
    return LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)])


@pytest.fixture(scope="session")
def unit_square():
    return LatticePolytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.fixture(scope="session")
def cubic_triangle():
    return LatticePolytope.from_points([(1, 0), (0, 1), (1, 1), (2, 2)])


@pytest.fixture(scope="session")
def simplex112():
    return LatticePolytope.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])


@pytest.fixture(scope="session")
def corpus2d():
    return generate_corpus(seed=11, count=30, dim=2, coord_bound=3)


@pytest.fixture(scope="session")
def corpus3d():
    return generate_corpus(seed=7, count=20, dim=3, coord_bound=2)


@pytest.fixture(scope="session")
def corpus50(corpus2d, corpus3d):
    return corpus2d + corpus3d
