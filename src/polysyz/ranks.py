"""Rank computation policy: exact fraction-free vs. modular fast path.

Small matrices are handled exactly (Bareiss over Python ints).  Larger ones
are reduced over GF(p) for a word-size prime derived deterministically from
the caller-supplied key; ranks over Q and mod p agree for all but finitely
many p, so a ~31-bit prime makes a wrong rank vanishingly unlikely.  Passing
certify=True forces exact arithmetic everywhere.

The modular kernel is sparse row reduction in pure Python: each row becomes
a {column: value mod p} dict without zeros and is reduced against the pivot
rows found so far, keyed by their leading column, until it vanishes or
becomes a new pivot; the rank is the number of pivots (the "standard
algorithm" of persistent homology, Zomorodian-Carlsson 2005).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict

from .intlinalg import exact_rank

BACKEND = "python"

# 31-bit primes
_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
    2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
    2147483423, 2147483399, 2147483353, 2147483323, 2147483269,
    2147483249, 2147483237, 2147483179, 2147483171, 2147483137,
    2147483123, 2147483077, 2147483069, 2147483059, 2147483053,
    2147483033, 2147483029, 2147482951, 2147482949, 2147482943,
    2147482937, 2147482921,
)

DEFAULT_EXACT_THRESHOLD = 48


def prime_for(key: bytes) -> int:
    """Deterministic prime choice so identical inputs give identical runs."""
    digest = hashlib.sha256(key).digest()
    return _PRIMES[digest[0] % len(_PRIMES)]


@dataclass(frozen=True)
class RankPolicy:
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD
    certify: bool = False
    prime: int = _PRIMES[0]

    def with_key(self, key: bytes) -> "RankPolicy":
        return RankPolicy(self.exact_threshold, self.certify, prime_for(key))


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
