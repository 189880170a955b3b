"""Graded section rings, Koszul-homology Betti numbers and (N_p) verdicts.

beta_{i,j} = dim Tor_i(R,k)_j is the homology of the strand

    wedge^{i+1} V (x) R_{j-i-1}  ->  wedge^i V (x) R_{j-i}  ->  wedge^{i-1} V (x) R_{j-i+1}

with V spanned by the degree-one basis.  Because the ring is multigraded by
the lattice itself, every strand splits into independent blocks indexed by
the lattice-point multidegree (the sum of the wedge factors and the ring
element); blocks stay small even when the ambient strand has dimension in
the tens of thousands, and each block rank is computed exactly over the
integers from the sparse columns of its differential (see `ranks`).

The section ring R of cP is the Ehrhart ring of cP: a normal affine semigroup
ring, hence Cohen-Macaulay (Hochster 1972), so its Castelnuovo-Mumford
regularity is the degree of its h*-polynomial (Bruns-Herzog, Cohen-Macaulay
Rings, section 6.3).  Every beta_{i,j} with j - i > reg vanishes; those strands
are zero by theorem and are skipped without building a block.

Blocks are kept in integers.  `build_ring` gives every basis point p of every
degree the additive code  code(p) = sum_k p_k * M^k  with the radix
M = 2 * (dim V + dmax) * A + 1, where A is the largest absolute coordinate in
bases[dmax].  The multidegree u of an element of wedge^q V (x) R_d is a sum of
at most dim V + dmax points, each coordinate at most A in absolute value, so
two such multidegrees differ by less than M in every coordinate, and a
base-M expansion whose digits lie strictly between -M and M is zero only if
every digit is: the code is injective on every multidegree the engine meets,
and code(a + b) = code(a) + code(b).  Blocks are keyed by the code of u, a
basis element is the int k * |R_d| + r (k the position of S in
combinations(range(dim V), q), r the index of the ring element), and a
differential column costs one int add and int-keyed dict lookups per term.

A level wedge^q V (x) R_d that does not exist (q = -1 at i = 0, q > dim V,
d < 0 or d > dmax) has no blocks, and a map with no source or no target
element has rank 0, so the ends of the complex need no case of their own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Dict, List, Optional, Tuple

from .ehrhart import ehrhart_polynomial, integer_root_count
from .errors import ConsistencyError, DegenerateInput, WindowExceeded
from .lattice import LatticePoint, LatticePolytope, lattice_points
from .ranks import RankPolicy, rank


@dataclass(frozen=True)
class GradedSectionRing:
    """Section ring of the c-th dilation: bases[d] = lattice points of c*d*P."""

    polytope: LatticePolytope
    c: int
    dmax: int
    bases: Tuple[Tuple[LatticePoint, ...], ...]
    # Castelnuovo-Mumford regularity of R over Sym V.  R is normal, hence
    # Cohen-Macaulay (Hochster 1972), so reg R = deg h*(cP)
    # = n + 1 - ceil((r(P) + 1) / c) (Bruns-Herzog, section 6.3) and
    # beta_{i,j} = 0 whenever j - i > reg.
    reg: int
    index: Tuple[Dict[LatticePoint, int], ...] = field(repr=False, hash=False, compare=False)
    # codes[d][r] is the additive int code of bases[d][r] (see the module
    # docstring); code_index[d] maps a code back to its index in bases[d]
    codes: Tuple[Tuple[int, ...], ...] = field(repr=False, hash=False, compare=False)
    code_index: Tuple[Dict[int, int], ...] = field(repr=False, hash=False, compare=False)
    # q -> the wedge table of `_wedge`, filled on first use
    wedges: Dict[int, tuple] = field(
        default_factory=dict, repr=False, hash=False, compare=False
    )

    @property
    def dim_V(self) -> int:
        return len(self.bases[1])

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        return len(self.bases[d])


def build_ring(P: LatticePolytope, c: int, dmax: int) -> GradedSectionRing:
    if c < 1 or dmax < 1:
        raise DegenerateInput("need c >= 1 and dmax >= 1")
    bases = tuple(tuple(lattice_points(P, c * d)) for d in range(dmax + 1))
    h = ehrhart_polynomial(P)
    for d, b in enumerate(bases):
        if len(b) != h(c * d):
            raise ConsistencyError(
                f"|bases[{d}]| = {len(b)} but Ehrhart predicts {h(c * d)}"
            )
    index = tuple({p: k for k, p in enumerate(b)} for b in bases)
    M = _radix(bases, dmax)
    codes = tuple(
        tuple(sum(x * M**k for k, x in enumerate(p)) for p in b) for b in bases
    )
    for d, cs in enumerate(codes):
        if len(set(cs)) != len(cs):
            raise ConsistencyError(f"two points of bases[{d}] share a code (radix {M})")
    code_index = tuple({u: k for k, u in enumerate(cs)} for cs in codes)
    r = integer_root_count(h).r
    reg = h.degree + 1 - (r + c) // c
    return GradedSectionRing(
        polytope=P, c=c, dmax=dmax, bases=bases, reg=reg, index=index,
        codes=codes, code_index=code_index,
    )


def _radix(bases, dmax: int) -> int:
    """M = 2 * (dim V + dmax) * A + 1, A the largest |coordinate| in bases[dmax]."""
    A = max((abs(x) for p in bases[dmax] for x in p), default=0)
    return 2 * (len(bases[1]) + dmax) * A + 1


@dataclass(frozen=True)
class BettiTable:
    entries: Dict[Tuple[int, int], int]
    max_i: int
    max_slope: int
    ring: GradedSectionRing

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)


@dataclass(frozen=True)
class NpVerdict:
    p: int
    status: str  # FAILS | VERIFIED_UP_TO | PROVEN
    certificate: Optional[Tuple[int, int, int]] = None
    bound: Optional[int] = None
    criterion: Optional[str] = None

    FAILS = "FAILS"
    VERIFIED_UP_TO = "VERIFIED_UP_TO"
    PROVEN = "PROVEN"


# element of wedge^q V (x) R_d: the int k * |R_d| + r, with k the position of
# the sorted index tuple S in combinations(range(dim V), q) and r an index into
# bases[d]; its multidegree is sum_{s in S} bases[1][s] + bases[d][r], keyed by
# its code sum_{s in S} codes[1][s] + codes[d][r], injective by the radix bound

def _wedge(ring: GradedSectionRing, q: int):
    """(codes, faces) for wedge^q V, memoized on the ring.

    codes[k] is the code of sum_{s in S} bases[1][s] for the k-th q-subset S;
    faces[k] lists (sign, s, position of S minus s among the (q-1)-subsets)
    for each s in S, with the sign (-1)^t of its place t in S.
    """
    table = ring.wedges.get(q)
    if table is None:
        n = ring.dim_V
        gen_codes = ring.codes[1]
        smaller = itertools.combinations(range(n), max(q - 1, 0))
        position = {S: k for k, S in enumerate(smaller)}
        codes, faces = [], []
        for S in itertools.combinations(range(n), q):
            codes.append(sum(gen_codes[s] for s in S))
            faces.append(tuple(
                (-1 if t % 2 else 1, s, position[S[:t] + S[t + 1:]])
                for t, s in enumerate(S)
            ))
        table = ring.wedges[q] = (codes, faces)
    return table


def _level_blocks(ring: GradedSectionRing, q: int, d: int):
    """Group the basis of wedge^q V (x) R_d by the code of its multidegree."""
    blocks: Dict[int, List[int]] = {}
    if q < 0 or d < 0 or q > ring.dim_V or d > ring.dmax:
        return blocks
    level = ring.codes[d]
    e = 0  # = k * len(level) + r
    for s_code in _wedge(ring, q)[0]:
        for p_code in level:
            u = s_code + p_code
            block = blocks.get(u)
            if block is None:
                blocks[u] = [e]
            else:
                block.append(e)
            e += 1
    return blocks


def _differential_columns(ring, elements, q, d_source, targets):
    """Sparse columns of the Koszul differential on source elements of
    wedge^q V (x) R_{d_source}.

    Row k is the k-th element of `targets` (ints of wedge^{q-1} V (x)
    R_{d_source+1}).  Sign convention: d(e_{s1}^...^e_{sq} (x) r) =
    sum_k (-1)^(k+1) e_{s1}^..^{no s_k}^..^e_{sq} (x) x_{s_k} r  with s1<...<sq.
    """
    target_pos = {e: k for k, e in enumerate(targets)}
    faces = _wedge(ring, q)[1]
    gen_codes = ring.codes[1]
    src_codes = ring.codes[d_source]
    tgt_index = ring.code_index[d_source + 1]
    n_src = len(src_codes)
    n_tgt = len(tgt_index)
    cols = []
    for e in elements:
        k, r = divmod(e, n_src)
        p_code = src_codes[r]
        # the faces S minus s of one S are distinct, so no row repeats
        col = {}
        for sign, s, k2 in faces[k]:
            col[target_pos[k2 * n_tgt + tgt_index[p_code + gen_codes[s]]]] = sign
        cols.append(col)
    return cols


def _dense(cols, nrows: int):
    rows = [[0] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i][j] = v
    return rows


def _check_window(ring: GradedSectionRing, i: int, j: int) -> None:
    need = j - i + 1 if i >= 1 else j
    if need > ring.dmax:
        raise WindowExceeded(
            f"beta_({i},{j}) needs ring degree {need} but dmax = {ring.dmax}"
        )


def koszul_betti(
    ring: GradedSectionRing,
    i: int,
    j: int,
    policy: RankPolicy = RankPolicy(),
) -> int:
    """dim Tor_i(R,k)_j; zero without computation above the regularity."""
    if i < 0 or j < 0:
        raise DegenerateInput("i, j must be nonnegative")
    if i > ring.dim_V or j < i:
        return 0
    _check_window(ring, i, j)
    if j - i > ring.reg:
        return 0
    return _strand_betti(ring, i, j, policy)


def _strand_blocks(ring: GradedSectionRing, i: int, j: int):
    """(u, source, middle, target elements) for each block u of the strand's
    middle level; the three levels are built once, and a missing level's
    lists are empty."""
    mid = _level_blocks(ring, i, j - i)
    src = _level_blocks(ring, i + 1, j - i - 1)
    tgt = _level_blocks(ring, i - 1, j - i + 1)
    for u, mid_elts in mid.items():
        yield u, src.get(u, []), mid_elts, tgt.get(u, [])


def _strand_betti(ring: GradedSectionRing, i: int, j: int, policy: RankPolicy) -> int:
    """dim ker(outgoing) - rank(incoming), summed over the strand's blocks."""
    certify = policy.certify
    total = 0
    for u, src_elts, mid_elts, tgt_elts in _strand_blocks(ring, i, j):
        n_mid = len(mid_elts)
        # the outgoing map, then the incoming one; a map with no source or
        # no target element has rank 0
        ranks = [0, 0]
        maps = ((mid_elts, i, tgt_elts), (src_elts, i + 1, mid_elts))
        for k, (elts, q, targets) in enumerate(maps):
            if elts and targets:
                cols = _differential_columns(ring, elts, q, j - q, targets)
                # the sparse columns go straight to `rank`; certify hands it
                # dense rows for Bareiss instead
                ranks[k] = rank(_dense(cols, len(targets)) if certify else cols, policy)
        rank_out, rank_in = ranks
        b = n_mid - rank_out - rank_in
        if b < 0:
            raise ConsistencyError(
                f"negative Betti block at (i={i}, j={j}, multidegree code {u}): "
                f"{n_mid} - {rank_out} - {rank_in}"
            )
        total += b
    return total


def compose_is_zero(ring: GradedSectionRing, i: int, j: int) -> bool:
    """Exact check that consecutive Koszul differentials compose to zero."""
    if i < 1 or j < i or i + 1 > ring.dim_V:
        return True
    _check_window(ring, i, j)
    for _, src_elts, mid_elts, tgt_elts in _strand_blocks(ring, i, j):
        if not src_elts:
            continue
        in_cols = _differential_columns(ring, src_elts, i + 1, j - i - 1, mid_elts)
        out_cols = _differential_columns(ring, mid_elts, i, j - i, tgt_elts)
        # one accumulator per block: it is all zeros again after every
        # column that passes, and the first column that fails ends the check
        acc = [0] * len(tgt_elts)
        for col in in_cols:
            for mid_row, v in col.items():
                for tgt_row, w in out_cols[mid_row].items():
                    acc[tgt_row] += v * w
            if any(acc):
                return False
    return True


def betti_table(
    ring: GradedSectionRing,
    max_i: int,
    max_slope: int,
    policy: RankPolicy = RankPolicy(),
) -> BettiTable:
    """All beta_{i,j} for 0 <= i <= max_i, i <= j <= i + max_slope.

    `policy` picks how each block is ranked; every choice is exact.
    """
    if max_i < 0 or max_slope < 0:
        raise DegenerateInput(f"need max_i, max_slope >= 0, got {max_i}, {max_slope}")
    if max_slope + 1 > ring.dmax:
        raise WindowExceeded(
            f"window slope {max_slope} needs dmax >= {max_slope + 1}, "
            f"ring has dmax = {ring.dmax}"
        )
    entries: Dict[Tuple[int, int], int] = {}
    for i in range(max_i + 1):
        for j in range(i, i + max_slope + 1):
            b = koszul_betti(ring, i, j, policy=policy)
            if b:
                entries[(i, j)] = b
    return BettiTable(entries=entries, max_i=max_i, max_slope=max_slope, ring=ring)


def np_level(
    ring: GradedSectionRing,
    pmax: int,
    max_slope: int,
    table: Optional[BettiTable] = None,
) -> List[NpVerdict]:
    """Verdicts for N_0 .. N_pmax from the Betti window.

    (N_p) asks beta_{0,j} = 0 for j != 0 and beta_{i,j} = 0 for 1 <= i <= p
    and j != i + 1.  A FAILS certificate is the lexicographically first
    offending (i, j, beta_{i,j}), kept for every later p, so failures are
    monotone in p.  Without a `table` the window is computed with the
    default policy; pass a certified table for certified ranks.  A given
    table must cover the window: an entry it does not hold is unknown, not 0.
    """
    if pmax < 0 or max_slope < 0:
        raise DegenerateInput(f"need pmax, max_slope >= 0, got {pmax}, {max_slope}")
    if table is None:
        table = betti_table(ring, pmax, max_slope)
    elif pmax > table.max_i or max_slope > table.max_slope:
        raise WindowExceeded(
            f"window (pmax={pmax}, max_slope={max_slope}) exceeds the table's "
            f"(max_i={table.max_i}, max_slope={table.max_slope})"
        )
    verdicts = []
    cert = None
    for p in range(pmax + 1):
        if cert is None:
            allowed = p + 1 if p else 0
            for j in range(p, p + max_slope + 1):
                b = table.get(p, j)
                if b and j != allowed:
                    cert = (p, j, b)
                    break
        if cert is not None:
            verdicts.append(NpVerdict(p=p, status=NpVerdict.FAILS, certificate=cert))
        else:
            verdicts.append(
                NpVerdict(p=p, status=NpVerdict.VERIFIED_UP_TO, bound=max_slope)
            )
    return verdicts


def k_polynomial_checksum(table: BettiTable) -> bool:
    """Hilbert-series integrity check.

    For every degree j fully covered by the window, the alternating column
    sum of the table must equal the degree-j coefficient of
    H_R(t) * (1-t)^dim V, with H_R read off the graded dimensions.
    """
    ring = table.ring
    v = ring.dim_V
    jmax = min(table.max_i, table.max_slope)
    for j in range(jmax + 1):
        k_coeff = sum(
            (-1) ** (j - d) * comb(v, j - d) * ring.dim(d)
            for d in range(j + 1)
            if j - d <= v
        )
        alt = sum((-1) ** i * table.get(i, j) for i in range(j + 1))
        if alt != k_coeff:
            return False
    return True
