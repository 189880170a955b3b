"""Rank computation policy: exact fraction-free vs. modular fast path.

Small matrices are handled exactly (Bareiss over Python ints).  Larger ones
are reduced over GF(p) for one fixed prime, p = 2^31 - 1, the same for every
caller and every input; ranks over Q and mod p agree for all but finitely
many p, so a ~31-bit prime makes a wrong rank vanishingly unlikely.  Passing
certify=True forces exact arithmetic everywhere.

The modular kernel is sparse row reduction in pure Python: each row becomes
a {column: value mod p} dict without zeros and is reduced against the pivot
rows found so far, keyed by their leading column, until it vanishes or
becomes a new pivot; the rank is the number of pivots (the "standard
algorithm" of persistent homology, Zomorodian-Carlsson 2005).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .intlinalg import exact_rank

BACKEND = "python"

DEFAULT_EXACT_THRESHOLD = 48


@dataclass(frozen=True)
class RankPolicy:
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD
    certify: bool = False
    prime: int = 2**31 - 1  # the one modulus, for every caller


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) of an integer matrix given as a list of rows."""
    # pivot rows are keyed by their leading (largest) column and stored
    # scaled so that entry is 1, with the entry itself left out
    pivots: Dict[int, Dict[int, int]] = {}
    for row in rows:
        r = {j: w for j, v in enumerate(row) if v and (w := v % p)}
        while r:
            lead = max(r)
            f = r.pop(lead)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(f, -1, p)
                pivots[lead] = {j: v * inv % p for j, v in r.items()}
                break
            for j, v in piv.items():
                w = (r.get(j, 0) - f * v) % p
                if w:
                    r[j] = w
                else:
                    del r[j]
    return len(pivots)


def rank(rows, policy: RankPolicy = RankPolicy()) -> int:
    """Rank of an integer matrix (list of rows) under the given policy."""
    nrows = len(rows)
    if nrows == 0:
        return 0
    ncols = len(rows[0])
    if ncols == 0:
        return 0
    if policy.certify or max(nrows, ncols) <= policy.exact_threshold:
        return exact_rank(rows)
    return rank_mod_p(rows, policy.prime)
