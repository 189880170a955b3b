"""The one exact rank kernel of the Koszul engine.

`rank` takes an integer matrix as a list of dense rows and returns its rank
over Q by Bareiss's fraction-free elimination (`intlinalg.exact_rank`,
Bareiss 1968): every division is exact and Python ints never overflow, so
every rank is exact, with no modulus and no size threshold.  The engine
ranks the Morse maps of Koszul blocks (`koszul`), whose entries are sums
over gradient paths of products of +-1; after the Morse reduction these
matrices are small (on the paper windows every one is under 16 x 16), so a
dense kernel is all they need.

`RankPolicy(certify=True)` does not change the kernel: it tells the engine
to skip the Morse matching and rank each block's full maps, refusing a block
too large for them (`koszul`).

`rank_mod_p` and `BACKEND` have no engine caller: the benchmark's tracer
(perfbench/tracing.py) pins both names, and they go when it stops doing so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .intlinalg import exact_rank

BACKEND = "python"


@dataclass(frozen=True)
class RankPolicy:
    certify: bool = False  # rank each block's full maps, with no Morse matching


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


def rank(rows) -> int:
    """Rank over Q of an integer matrix given as a list of dense rows."""
    return exact_rank(rows)
