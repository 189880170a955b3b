"""Exception types shared across the package.

The CLI maps these onto exit codes: bad input -> 2, window/limit
violations -> 3, internal consistency failures -> 4.  Input validation raises
DegenerateInput (still a ValueError for library callers); any other ValueError
is an internal fault and also exits 4.
"""


class DegenerateInput(ValueError):
    """Input point set is not full-dimensional (or otherwise malformed)."""


class DimensionMismatch(ValueError):
    """A point's length does not match the ambient dimension."""


class WindowExceeded(ValueError):
    """A Betti/cohomology query falls outside the computed window."""


class ConsistencyError(RuntimeError):
    """An internal cross-check (rank bookkeeping, checksum) failed."""
