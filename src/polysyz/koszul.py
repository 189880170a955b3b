"""Graded section rings, Koszul-homology Betti numbers and (N_p) verdicts.

beta_{i,j} = dim Tor_i(R,k)_j is the homology of the strand

    wedge^{i+1} V (x) R_{j-i-1}  ->  wedge^i V (x) R_{j-i}  ->  wedge^{i-1} V (x) R_{j-i+1}

with V spanned by the degree-one basis.  Because the ring is multigraded by
the lattice itself, every strand splits into independent blocks indexed by
the lattice-point multidegree (the sum of the wedge factors and the ring
element); blocks stay small even when the ambient strand has dimension in
the tens of thousands, and each block's Betti number is computed exactly
over the integers, from the ranks of its Morse maps when it needs a rank at
all (below, and `ranks`).

The section ring R of cP is the Ehrhart ring of cP: a normal affine semigroup
ring, hence Cohen-Macaulay (Hochster 1972), so its Castelnuovo-Mumford
regularity is the degree of its h*-polynomial (Bruns-Herzog, Cohen-Macaulay
Rings, section 6.3).  Every beta_{i,j} with j - i > reg vanishes; those strands
are zero by theorem and are skipped without building a block.  Being
Cohen-Macaulay of Krull dimension dim P + 1, R has projective dimension
pd = dim V - dim P - 1 over Sym V (Auslander-Buchsbaum), so every strand with
i > pd is skipped too.  R is generated in degree 1 and R_1 = V, so its ideal
I in Sym V holds no linear form.  In the minimal free resolution F of R,
F_1 has a basis mapping to minimal generators of I, so none in degree 1, and
the least basis degree of F_i rises strictly with i, so F_i has none in
degree i.  Hence beta_{i,i} = 0 for every i >= 1, and that strand is skipped
as well.  So is beta_{0,1}: its strand's map V (x) R_0 -> R_1 sends each
basis element e_v (x) 1 to x_v, the identity on the basis.

The block of multidegree u is the chain complex of the simplicial complex
Delta_u = {F subset V : u - sum F in the semigroup}, up to signs and a shift:
an element e_S (x) r of the block is the face S, r being u - sum S, so
beta_{i,(j,u)} = dim H~_{i-1}(Delta_u) (Bruns-Herzog, JPAA 1997;
Miller-Sturmfels, Combinatorial Commutative Algebra, ch. 9).  Only the
truncated complex C_{i+1} -> C_i -> C_{i-1} of its source, middle and
target faces is needed: it has the same homology at C_i.

Most blocks are decided without a rank, by discrete Morse theory
(`_morse_count`).  Match the cells one generator at a time: for v = v_1,
v_2, ..., pair each unmatched face S without v with S + {v} when that face is
in the block and unmatched too.  A sequence of such element matchings is
acyclic on any family of sets, whatever the order of the generators
(Jonsson, Simplicial Complexes of Graphs, 2008, section 4), and every
matched entry of the differential is +-1, so by algebraic discrete Morse
theory (Sköldberg, Morse theory from an algebraic viewpoint, Trans. AMS
2006; Jöllenbeck-Welker, Minimal resolutions via algebraic discrete Morse
theory, 2009) the truncated complex is homotopic to its Morse complex on the
unmatched ("critical") cells.  Hence beta_u is at most the number of
critical middle cells, with equality when no source and no target cell is
critical, and 0 when no middle cell is.  The generators go in index order,
the order of bases[1], the lattice points of cP in lexicographic order.
For a middle cell e_S (x) r of degree d and v not in S, the face S + {v} is
in the block exactly when bases[d][r] - bases[1][v] is in R_{d-1}, that is
when v is in the down-shift mask down_d[r], the inverse of the shift table
of degree d - 1 (`_down`).  So the span S | down_d[r] of a middle cell
holds the v that are in S or make S + {v} a face.  Delta_u is closed under
subsets, so T -> T - {v} sends the source faces with v one to one onto the
middle faces without v whose S + {v} is a face.  A generator in no span
pairs nothing, since a pair up needs v in a span and a pair down needs v in
S, inside its span; so the matching takes only the generators some span
holds, still in index order.

The cone exit.  If v is in every span, Delta_u is a cone over v at level i,
and matching v first pairs every middle cell: a middle face S with v goes
down to its face S - {v}, and one without v up to the face S + {v}, and no
two middle cells share a partner.  So beta_u = 0.  A block whose spans have
a nonzero AND is therefore decided before any matching, whatever the order
of the generators, with one bitwise AND per middle cell, and a cone adds 0.

No other level is split: the source and target cells are read off the
spans.  By the bijection above the source faces are exactly the S + {v} for
v in the span of a middle cell S but not in S.  The target faces taken are
the S - {s} for s in S, the faces of the middle cells; a target face of no
middle cell is left out.  That leaves ker d_i, and so beta_u, unchanged: a
target cell pairs only with a middle cell that holds it, so such a cell is
never matched, no gradient path from a middle cell reaches it, and in the
full map it is a zero row.  So the table reads ring degrees only up to the
strand's middle degree j - i <= reg.

Every other block's Betti number is read from its Morse complex:
beta_u = #critical middle cells - rank(outgoing) - rank(incoming), with
both Morse maps between critical cells only.  The Morse differential
of a critical cell S is the sum over the gradient paths from S to critical
cells one level down: a path steps down along the boundary to a face F and,
while F is matched up to F + {v}, steps up along the pair with weight
-[F + {v} : F] (the entry is +-1, its own inverse) and down again to another
face of F + {v}; it ends at a critical cell and dies at a cell matched down
(Sköldberg 2006, section 2; Jöllenbeck-Welker 2009, chapter 2).  The
truncated complex has no level i - 2, so every target cell is critical or
matched up.  `_differential_columns` sums the paths by projecting each face
onto the critical cells, each matched face's projection memoized per block,
so every cell is expanded once; acyclicity makes the expansion finite.
Each map's sparse columns are laid out as dense rows (`_dense`) and ranked
by Bareiss elimination (`ranks.rank`), the engine's one rank kernel.

Blocks in one orbit of the lattice automorphisms of P are counted once.
Let g(x) = A x + b be a unimodular affine map with A P + b = P
(`lattice.automorphisms`).  It sends cdP onto itself by x -> A x + c*d*b,
so it permutes V = cP, and the basis of each degree R_d, and multiplies
like the ring: g(x + y) on cd_1P + cd_2P is g(x) + g(y).  An element
e_S (x) r of multidegree u, |S| = q and r in R_d, goes to e_{g(S)} (x) g(r),
of multidegree g.u = A u + c*j*b with j = q + d; so g carries Delta_u onto
Delta_{g.u} as a simplicial complex, through its permutation of V, and
beta_{i,(j,u)} = beta_{i,(j,g.u)} (Delta_u as above, Bruns-Herzog 1997;
Miller-Sturmfels ch. 9; the same action of GL_n(Z) and translations leaves
the whole table unchanged).  Being a cone at level i is orbit invariant as
well.  So a strand is the sum, over one block per orbit that is not a cone,
of the orbit's size times that block's Betti number; `_strand_betti`
matches and ranks the first block of each such orbit in level order and
skips the rest.  The blocks of an orbit have equal sizes (numbers of
middle cells), since g carries Delta_u onto Delta_{g.u}.  So a block whose
size no other block of the strand has is an orbit of its own: it is
counted once, and no group is needed for it.  Only a block that is not a
cone and whose size the strand repeats takes its orbit, as soon as it is
matched.  In the small windows of the CLI most such blocks have a size of
their own, and many rings never search.  The orbit is read off the codes,
which the action keeps linear:
code(g.u) = sum_l u_l * code(A e_l) + c*j*code(b), with u's coordinates the
balanced base-M digits of its code (each lies strictly between -M/2 and M/2
by the radix bound below).  The codes of A e_l and b are found once per
ring (`_actions`), and the group once per polytope, at the first orbit
taken.  Each orbit is checked to land on blocks of the strand with as many
middle cells.

Two computations take no orbit, so that each stays an independent check of
the engine: `compose_is_zero` (below), and `RankPolicy(certify=True)`,
which ranks every block itself.

Under `RankPolicy(certify=True)` the Betti numbers do not rest on the
matching: no block is taken for a cone and no cell is matched, so every cell
is critical and the Morse maps are the block's full maps.  Every face of a
middle cell is a target cell and every face of a source cell a middle cell,
so `_differential_columns` with no partners reads the full boundary, and
beta_u = |middle| - rank(d_i) - rank(d_{i+1}) of the full truncated complex.
Dense Bareiss on full maps costs about the cube of the block's middle
cells, seconds in pure Python at 500, and the largest blocks of the c = 3
windows (i <= 4, slope 3) hold 2,793 (cubic triangle) and 7,741
((1,1,2)-simplex) middle cells.  So certify refuses (`WindowExceeded`) a
window with a block of more than `_CERTIFY_CELLS` middle cells, before it
ranks anything; every CLI window (max_i, max_slope <= 8) of the data files
at c <= 2 stays under it, with at most 378.

The ring builds a degree only when something first reads it, so below the
clamp the largest degrees, |c*d*P| growing like d^n, are never enumerated.
Each degree is checked against the Ehrhart polynomial when it is built.

Blocks are kept in integers.  Every basis point p of every degree gets the
additive code  code(p) = sum_k p_k * M^k  with the radix
M = 2 * (dim V + dmax) * A + 1, where A = c * dmax * (the largest absolute
vertex coordinate of P) bounds every coordinate of c * dmax * P, and so of
every degree; `build_ring` fixes M from the vertices and dim V = h(c) before
any degree exists.  The multidegree u of an element of wedge^q V (x) R_d is
a sum of at most dim V + dmax points, each coordinate at most A in absolute
value, so two such multidegrees differ by less than M in every coordinate,
and a base-M expansion whose digits lie strictly between -M and M is zero
only if every digit is: the code is injective on every multidegree the
engine meets, and code(a + b) = code(a) + code(b).  Blocks are keyed by the
code of u.  A strand splits only its middle level into blocks
(`_level_blocks`); level (q, d) is the middle of the one strand (q, q + d),
so nothing is kept.  A block holds each cell e_S (x) r as two objects the
ring already has: the bitmask of S from the wedge table, and the down-shift
mask of r from `_down`, all the matching reads of r.  Within one block the
multidegree fixes the ring element of each face, so a block's cells are the
bitmasks of their faces, and a Morse column reads its faces, bitmasks too,
with their signs off the bitmask by one rule
(`_boundary`): the t-th bit s_t of S, counted from 0 in increasing order,
gives the face S - {s_t} with sign (-1)^t.  No face or sign is stored.  A
degree keeps only its basis and codes; the one map from a code back to its
index in the basis is built by the shift table, its one reader (`_shift`).

The check d o d = 0 (`compose_is_zero`) builds no block.  On e_S (x) r the
composite is a sum over ordered pairs s != t in S of signed terms
e_{S - {s, t}} (x) x_t x_s r, and it vanishes for two reasons: the x's
commute and the exterior signs anticommute (Eisenbud, The Geometry of
Syzygies, the Koszul complex).  The check tests the two facts directly.
The x's commute: for every pair s < t of generators, the map
r -> x_t x_s r on R_d, read in two steps from the ring's shift tables
(shift_d[s][r] is the index of bases[d][r] + bases[1][s] in bases[d + 1]),
equals r -> x_s x_t r.  The signs cancel: for every source face S, the
sign products reaching each face G of a face of S, read off the bitmasks
by the rule `_boundary`, sum to 0.  The Morse columns call the same rule,
and the matching reads the down-shift masks inverted from the same shift
tables; one code sum for x_t x_s r would commute by construction and so
check nothing.  The sign fact first checks the rule's shape
(`_is_boundary`): on every bitmask of wedge^i V and wedge^{i+1} V its terms
are exactly the faces S - {s}, one for each bit s of S, each with sign +-1.
A rule that leaves out the face of the highest bit of every S still
cancels, since a face of a face it never reaches sums to 0, so the shape is
checked on its own; the Morse columns, which eliminate along a partner's
face, refuse such a rule too.  Together the two facts are exact both ways.
Under a rule of that shape the face G = S - {s, t} is reached only by the
pairs (s, t) and (t, s).  Where their maps agree at r, the composite's
coefficient on e_G (x) x_t x_s r is their sign sum.  Where they differ, the
two terms are +-1 on two different basis elements, and no other pair
reaches G, so the composite is not zero.  Every pair s < t lies in some
source face S, since 2 <= i + 1 <= dim V.

The commuting fact reads only shift_d and shift_{d+1}, and the sign fact
only the rule on the bitmasks of wedge^i V and wedge^{i+1} V; a window's
strands share them, the first across i at one d = j - i - 1, the second
across j at one i.  So the ring records, for each fact that passes, what it
passed on (`GradedSectionRing.passed`): the pair of shift tables itself,
whose tuples cannot change, and the rule `_boundary` itself.  A strand
whose shift tables equal the recorded ones, or whose rule is the recorded
one, has the fact already; any other tables or rule get the full check, and
a fact that fails is never recorded.  Equal tables give the same verdict,
and so does one rule, since the masks it is read on are those of every
subset of one size, fixed by dim V and i; so the record is exact.  The
check costs n(n-1) * |R_d| shift reads, n = dim V, once per pair of shift
tables, plus about C(n, q) * q(q-1) face steps, q = i + 1, once per i.  A
strand whose facts are recorded costs a test of identity per row of the
shift tables and one test of identity of the rule.

A middle level wedge^q V (x) R_d that does not exist (q > dim V, d < 0 or
d > dmax) has no blocks.  A middle cell has no target face at q = 0 and no
source face at q = dim V or d = 0 (down_0 is all 0), and a map with no
critical source or no critical target cell has rank 0, so the ends of the
complex need no case of their own.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from math import comb
from operator import and_, mul, or_
from typing import Dict, List, NamedTuple, Optional, Tuple

from .ehrhart import ehrhart_polynomial, integer_root_count
from .errors import ConsistencyError, DegenerateInput, WindowExceeded
from .lattice import LatticePoint, LatticePolytope, automorphisms, lattice_points
from .ranks import rank

# the most middle cells of a block whose full maps certify ranks (module
# docstring)
_CERTIFY_CELLS = 512


@dataclass(frozen=True)
class RankPolicy:
    certify: bool = False  # rank each block's full maps, with no Morse matching


class RingDegree(NamedTuple):
    """Degree d of the section ring: the lattice points of c*d*P and their
    codes.  `_shift` builds the map from code back to index that it reads."""

    basis: Tuple[LatticePoint, ...]
    # codes[r] is the additive int code of basis[r] (see the module docstring)
    codes: Tuple[int, ...]


@dataclass(frozen=True)
class GradedSectionRing:
    """Section ring of the c-th dilation.  Degree d has the basis
    bases[d] = degree(d).basis, the lattice points of c*d*P.

    Degrees 0..dmax are built on first use, one `RingDegree` each, and
    memoized on the ring: the Betti numbers below the regularity read only
    degrees up to reg.  Every degree is checked against the Ehrhart
    polynomial, and its codes are checked to be distinct, when it is built.
    """

    polytope: LatticePolytope
    c: int
    dmax: int
    # Castelnuovo-Mumford regularity of R over Sym V.  R is normal, hence
    # Cohen-Macaulay (Hochster 1972), so reg R = deg h*(cP)
    # = n + 1 - ceil((r(P) + 1) / c) (Bruns-Herzog, section 6.3) and
    # beta_{i,j} = 0 whenever j - i > reg.
    reg: int
    # the radix M of the codes (see the module docstring)
    radix: int
    # d -> the RingDegree of degree d, filled on first use
    degrees: Dict[int, RingDegree] = field(
        default_factory=dict, repr=False, hash=False, compare=False
    )
    # q -> the `_Wedge` table of wedge^q V, filled on first use
    wedges: Dict[int, "_Wedge"] = field(
        default_factory=dict, repr=False, hash=False, compare=False
    )
    # d -> the shift table of `_shift`, filled on first use
    shifts: Dict[int, tuple] = field(
        default_factory=dict, repr=False, hash=False, compare=False
    )
    # d -> the down-shift table of `_down`, filled on first use
    downs: Dict[int, tuple] = field(
        default_factory=dict, repr=False, hash=False, compare=False
    )
    # the action of Aut(P) on codes (`_actions`), filled on first use
    actions: List[tuple] = field(
        default_factory=list, repr=False, hash=False, compare=False
    )
    # ("commute", d) -> the pair of shift tables, ("signs", i) -> the
    # boundary rule, that d o d fact last passed on (`compose_is_zero`),
    # filled when it passes
    passed: Dict[tuple, object] = field(
        default_factory=dict, repr=False, hash=False, compare=False
    )

    def degree(self, d: int) -> RingDegree:
        """Degree d, built and checked on first use."""
        deg = self.degrees.get(d)
        if deg is None:
            if not 0 <= d <= self.dmax:
                raise IndexError(f"ring degree {d} outside 0..{self.dmax}")
            P, c = self.polytope, self.c
            basis = tuple(lattice_points(P, c * d))
            expected = ehrhart_polynomial(P)(c * d)
            if len(basis) != expected:
                raise ConsistencyError(
                    f"|bases[{d}]| = {len(basis)} but Ehrhart predicts {expected}"
                )
            codes = tuple(_codes(self, basis))
            if len(set(codes)) != len(codes):
                raise ConsistencyError(
                    f"two points of bases[{d}] share a code (radix {self.radix})"
                )
            deg = self.degrees[d] = RingDegree(basis=basis, codes=codes)
        return deg

    @property
    def dim_V(self) -> int:
        return len(self.degree(1).basis)

    @property
    def pd(self) -> int:
        """Projective dimension of R over Sym V.  R is Cohen-Macaulay of
        Krull dimension dim P + 1, so by Auslander-Buchsbaum
        pd R = dim V - dim P - 1 and beta_{i,j} = 0 whenever i > pd."""
        return self.dim_V - self.polytope.dim - 1

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        return len(self.degree(d).basis)


def build_ring(P: LatticePolytope, c: int, dmax: int) -> GradedSectionRing:
    """The section ring of cP through degree dmax; no degree is built yet."""
    if c < 1 or dmax < 1:
        raise DegenerateInput("need c >= 1 and dmax >= 1")
    h = ehrhart_polynomial(P)
    r = integer_root_count(h).r
    reg = h.degree + 1 - (r + c) // c
    # h(c) = dim V, which the Ehrhart check of degree 1 confirms on first use
    radix = _radix(P, c, dmax, int(h(c)))
    return GradedSectionRing(polytope=P, c=c, dmax=dmax, reg=reg, radix=radix)


def _codes(ring: GradedSectionRing, points) -> List[int]:
    """The codes sum_k p_k * M^k of `points`, M the ring's radix."""
    powers = [ring.radix**k for k in range(ring.polytope.ambient_dim)]
    return [sum(map(mul, p, powers)) for p in points]


def _radix(P: LatticePolytope, c: int, dmax: int, dim_V: int) -> int:
    """M = 2 * (dim V + dmax) * A + 1, A = c * dmax * (largest |vertex
    coordinate| of P), which bounds every coordinate of c * dmax * P."""
    A = c * dmax * max((abs(x) for v in P.vertices for x in v), default=0)
    return 2 * (dim_V + dmax) * A + 1


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


# a cell e_S (x) r of wedge^q V (x) R_d, S a q-subset of generators and r an
# index into bases[d], has the multidegree sum_{s in S} bases[1][s] +
# bases[d][r], keyed by its code sum_{s in S} codes[1][s] + codes[d][r],
# injective by the radix bound; a block keeps of it only the bitmask of S and
# the down-shift mask of r (`_level_blocks`)

class _Wedge(NamedTuple):
    """The table of wedge^q V.

    codes[k] is the code of sum_{s in S} bases[1][s] for the k-th q-subset S
    in combinations order, and masks[k] is S as the bitmask
    sum_{s in S} 2^s.  A face's sign is not stored: `_boundary` reads it off
    the bitmask.
    """

    codes: list
    masks: list


def _wedge(ring: GradedSectionRing, q: int) -> _Wedge:
    """The `_Wedge` table of wedge^q V, memoized on the ring."""
    table = ring.wedges.get(q)
    if table is None:
        n = ring.dim_V
        gen_codes = ring.degree(1).codes
        bits = [1 << s for s in range(n)]
        codes, masks = [], []
        for S in itertools.combinations(range(n), q):
            codes.append(sum(map(gen_codes.__getitem__, S)))
            masks.append(sum(map(bits.__getitem__, S)))
        table = ring.wedges[q] = _Wedge(codes, masks)
    return table


def _boundary(S: int) -> List[Tuple[int, int]]:
    """The Koszul boundary of e_S, S a bitmask: (sign, S - {s_t}) for each
    bit s_t of S in increasing order, with sign (-1)^t.  The one place the
    exterior sign is written; the Morse columns and the d o d check call it."""
    terms = []
    rest, sign = S, 1
    while rest:
        bit = rest & -rest
        terms.append((sign, S ^ bit))
        rest ^= bit
        sign = -sign
    return terms


def _is_boundary(S: int, terms) -> bool:
    """Whether `terms` are (+-1, S - {s}), one for each bit s of S: the
    shape of a Koszul boundary that the d o d check's exactness and the Morse
    columns assume of the rule `_boundary`."""
    rest = S  # the bits of S no term has removed yet
    for sign, F in terms:
        bit = S ^ F
        if sign * sign != 1 or bit & (bit - 1) or not rest & bit:
            return False
        rest ^= bit
    return not rest


def _shift(ring: GradedSectionRing, d: int):
    """shift[s][r] = the index in bases[d + 1] of bases[d][r] + bases[1][s],
    memoized on the ring; one table serves the ranks and the d o d check."""
    table = ring.shifts.get(d)
    if table is None:
        gen_codes = ring.degree(1).codes
        codes = ring.degree(d).codes
        up = {u: k for k, u in enumerate(ring.degree(d + 1).codes)}
        table = ring.shifts[d] = tuple([tuple([up[p + g] for p in codes]) for g in gen_codes])
    return table


def _down(ring: GradedSectionRing, d: int):
    """down[r] = the bitmask of the generators v with bases[d][r] -
    bases[1][v] in R_{d-1}, the inverse of `_shift(ring, d - 1)`, memoized on
    the ring; all 0 at d = 0."""
    table = ring.downs.get(d)
    if table is None:
        down = [0] * ring.dim(d)
        if d >= 1:
            for v, row in enumerate(_shift(ring, d - 1)):
                bit = 1 << v
                for r in row:
                    down[r] |= bit
        table = ring.downs[d] = tuple(down)
    return table


def _level_blocks(ring: GradedSectionRing, q: int, d: int):
    """The blocks of wedge^q V (x) R_d, keyed by the code of their
    multidegree: u -> (faces, downs), two lists with one entry per cell
    e_S (x) r of the block, the bitmask of S as the very int of
    `_wedge(ring, q).masks` and the down-shift mask of r as the very int of
    `_down(ring, d)`.  No object is made per cell."""
    blocks: Dict[int, Tuple[list, list]] = {}
    if q < 0 or d < 0 or q > ring.dim_V or d > ring.dmax:
        return blocks
    level = list(zip(ring.degree(d).codes, _down(ring, d)))
    wedge = _wedge(ring, q)
    for s_code, S in zip(wedge.codes, wedge.masks):
        for p_code, D in level:
            u = s_code + p_code
            block = blocks.get(u)
            if block is None:
                blocks[u] = ([S], [D])
            else:
                block[0].append(S)
                block[1].append(D)
    return blocks


def _differential_columns(cells, critical, up):
    """Sparse columns of the Morse differential of one block on its critical
    cells `cells`, bitmasks of one level wedge^q V, each entry keyed by its
    row: the bitmask of a critical cell F of wedge^{q-1} V, F in `critical`.
    `up` is the block's partner map (`_Morse`).

    The Koszul boundary of S is sum_t (-1)^t (S - s_t), s_0 < s_1 < ...,
    read off the bitmask by `_boundary`.  A face F of S is replaced by its
    projection: a critical F is its own row; a matched F, with partner
    up[F] = F + {v} in wedge^q V, is eliminated along the unit entry
    e = [up[F] : F], so it projects to -e times the sum of
    [up[F] : F'] * projection(F') over the other faces F' of up[F]; any
    other F is matched down and projects to 0.  That is the sum over the
    gradient paths from S (module docstring).  Each projection is memoized,
    so each matched cell is expanded once, with an explicit stack; a cell
    that waits on itself means the matching was not acyclic, and a partner
    whose boundary lacks its matched face means the rule is not a boundary.
    """
    memo: Dict[int, Dict[int, int]] = {}  # matched cell -> its projection
    opened = set()

    def combine(terms):
        # the sum of sign * projection(F) over the terms (sign, F), for
        # faces that are critical, done or matched down; a face being expanded
        # is none of these, so it drops out of its own partner's boundary
        acc: Dict[int, int] = {}
        for sign, F in terms:
            if F in critical:
                acc[F] = acc.get(F, 0) + sign
            elif F in memo:
                for row, x in memo[F].items():
                    acc[row] = acc.get(row, 0) + sign * x
        return acc

    def project(F):
        stack = [F]
        while stack:
            F = stack[-1]
            if F in memo:
                stack.pop()
                continue
            terms = _boundary(up[F])
            waiting = [G for _, G in terms if G in up and G not in memo and G != F]
            if waiting:
                if F in opened:
                    raise ConsistencyError("the Morse matching has a cycle")
                opened.add(F)
                stack.extend(waiting)
                continue
            stack.pop()
            e = next((sign for sign, G in terms if G == F), None)
            if e is None:
                raise ConsistencyError(
                    f"the boundary of cell {up[F]} lacks its matched face {F}"
                )
            memo[F] = {row: -e * x for row, x in combine(terms).items() if x}

    cols = []
    for S in cells:
        terms = _boundary(S)
        for _, F in terms:
            if F in up and F not in memo:
                project(F)
        cols.append({row: x for row, x in combine(terms).items() if x})
    return cols


def _dense(cols):
    """The dense rows of sparse columns, one row per key some column holds,
    in increasing key order; a row no column touches would add nothing to
    the rank."""
    index = {F: i for i, F in enumerate(sorted({F for col in cols for F in col}))}
    rows = [[0] * len(cols) for _ in index]
    for j, col in enumerate(cols):
        for F, v in col.items():
            rows[index[F]][j] = v
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
    """dim Tor_i(R,k)_j; zero without computation above the regularity,
    beyond the projective dimension, on the linear strand j = i >= 1 and at
    (i, j) = (0, 1).

    Every rank is exact.  By default one block per Aut(P)-orbit is ranked,
    on its Morse complex; under `policy.certify` every block, on its full
    maps, with no matching and no orbit, and a strand with a block of more
    than `_CERTIFY_CELLS` middle cells is refused with `WindowExceeded`."""
    return _strand_betti(ring, i, j, policy) if _is_open(ring, i, j) else 0


def _is_open(ring: GradedSectionRing, i: int, j: int) -> bool:
    """Whether beta_{i,j} is read from the strand's blocks, not known to be 0.

    beta_{0,1} is 0 by definition: the strand's map V (x) R_0 -> R_1 is the
    identity on the basis, so the strand's homology is 0."""
    if i < 0 or j < 0:
        raise DegenerateInput("i, j must be nonnegative")
    if i > ring.dim_V or j < i:
        return False
    _check_window(ring, i, j)
    return not (j - i > ring.reg or i > ring.pd or (i >= 1 and j == i) or (i, j) == (0, 1))


def _certify_fits(blocks: Dict[int, Tuple[list, list]], i: int, j: int) -> None:
    """Refuse a strand with a block too large for certify's full maps;
    `blocks` as `_level_blocks` gives them."""
    largest = max((len(faces) for faces, _ in blocks.values()), default=0)
    if largest > _CERTIFY_CELLS:
        raise WindowExceeded(
            f"certify ranks full block maps, and strand (i={i}, j={j}) has a block "
            f"of {largest} middle cells, over the limit of {_CERTIFY_CELLS}"
        )


class _Morse(NamedTuple):
    """What the matching of one block leaves: its critical cells by level,
    and up, which maps each cell matched up, target or middle, to its
    partner.  A target cell has one bit fewer than a middle cell, so the
    two levels' keys never collide."""

    low: set
    middle: set
    high: set
    up: Dict[int, int]


def _morse_count(faces: list, downs: list, certify: bool) -> Optional[_Morse]:
    """The matching of one block of a strand's middle level: None when
    Delta_u is a cone at level i, else the block's `_Morse` record.

    `faces` and `downs` are the block as `_level_blocks` gives it: the
    bitmask S of each middle cell e_S (x) r and the down-shift mask of r.
    A cone is decided before any matching, by the AND of the spans.
    Otherwise the source and target cells are read off the spans, and the
    cells are matched one generator at a time, in index order, over the
    generators some span holds (module docstring).  Under `certify` there
    is no cone exit and no matching: the record holds every cell, with no
    partners.
    """
    # the span of e_S (x) r: the v with v in S or S + {v} a source face
    spans = list(map(or_, faces, downs))
    if not certify and reduce(and_, spans):
        return None  # Delta_u is a cone at level i
    # a bit of S gives the target face S - {v}, any other bit the source face
    # S + {v}
    low, high = set(), set()
    for S, span in zip(faces, spans):
        while span:
            bit = span & -span
            if S & bit:
                low.add(S ^ bit)
            elif bit > S:
                # T = S + {v} is added from S = T - max(T) alone, a middle
                # cell since Delta_u is closed under subsets
                high.add(S | bit)
            span ^= bit
    middle = set(faces)
    up: Dict[int, int] = {}
    if certify:
        return _Morse(low, middle, high, up)
    rest = reduce(or_, spans)  # the generators some span holds
    while rest and middle and (low or high):
        bit = rest & -rest
        rest ^= bit
        # pair each unmatched S without v with an unmatched S + {v}; the middle
        # cells paired down hold v and those paired up lack it, so no cell is
        # paired twice
        for lower, upper in ((low, middle), (middle, high)):
            if lower and upper:
                paired = [S for S in lower if not S & bit and S | bit in upper]
                if paired:
                    partners = [S | bit for S in paired]
                    lower.difference_update(paired)
                    upper.difference_update(partners)
                    up.update(zip(paired, partners))
    return _Morse(low, middle, high, up)


def _actions(ring: GradedSectionRing) -> List[tuple]:
    """For each g = (A, b) of Aut(P): the codes of the columns A e_1, ...,
    A e_n and the code of b, memoized on the ring, so that
    code(g.u) = sum_l u_l * code(A e_l) + c * j * code(b) for u of degree j
    (module docstring).  The group is searched for on first use."""
    if not ring.actions:
        for A, b in automorphisms(ring.polytope):
            *cols, shift = _codes(ring, [*zip(*A), b])
            ring.actions.append((tuple(cols), shift))
    return ring.actions


def _orbit(ring: GradedSectionRing, u: int, moves: List[tuple], blocks, seen: set) -> set:
    """The codes of the orbit of block u, added to `seen`.

    `moves` are the ring's `_actions` for the strand's degree j, each
    code(b) times c * j, and the coordinates of u are the balanced base-M
    digits of its code.  Every code of the orbit must be a block of the
    strand, in `blocks`, with as many middle cells as u."""
    M = ring.radix
    coords = []
    x = u
    for _ in moves[0][0]:
        digit = x % M
        if digit > M // 2:
            digit -= M
        coords.append(digit)
        x = (x - digit) // M
    orbit = {sum(map(mul, coords, cols)) + shift for cols, shift in moves}
    cells = len(blocks[u][0])
    if any(v not in blocks or len(blocks[v][0]) != cells for v in orbit):
        raise ConsistencyError(
            f"the Aut(P)-orbit of block {u} leaves the strand's blocks of its size"
        )
    seen.update(orbit)
    return orbit


def _strand_betti(ring: GradedSectionRing, i: int, j: int, policy: RankPolicy) -> int:
    """The sum over the strand's blocks of their Betti numbers.

    Only the middle level is split.  Each block is first matched
    (`_morse_count`): a cone adds 0.  Any other block adds its Betti number
    (`_block_betti`) once if no other block of the strand has its size, for
    the blocks of an orbit have equal sizes and it is an orbit of its own.
    Otherwise it adds it times the size of its Aut(P)-orbit, and the other
    blocks of the orbit, which have the same Betti number, are skipped.
    Under policy.certify nothing is matched and no orbit is taken, so every
    block with a source or a target cell has its full maps ranked, and a
    strand with a block of more than `_CERTIFY_CELLS` middle cells is
    refused.
    """
    blocks = _level_blocks(ring, i, j - i)
    if policy.certify:
        _certify_fits(blocks, i, j)
    seen = set()  # the blocks of the orbits taken
    sizes = moves = None
    total = 0
    for u, (faces, downs) in blocks.items():
        if u in seen:
            continue
        morse = _morse_count(faces, downs, policy.certify)
        if morse is None:
            continue
        b = _block_betti(i, j, u, morse)
        if sizes is None:  # a strand of cones needs no sizes
            sizes = Counter(len(faces) for faces, _ in blocks.values())
        if policy.certify or sizes[len(faces)] == 1:
            total += b
            continue
        if moves is None:
            moves = [(cols, ring.c * j * shift) for cols, shift in _actions(ring)]
        total += len(_orbit(ring, u, moves, blocks, seen)) * b
    return total


def _block_betti(i: int, j: int, u: int, morse: _Morse) -> int:
    """beta_u = #critical middle cells - rank(outgoing) - rank(incoming).

    Only the Morse maps with a critical source and a critical target cell
    are assembled and ranked, by Bareiss on their dense rows; any other map
    has rank 0."""
    ranked = 0
    for cells, lower in ((morse.middle, morse.low), (morse.high, morse.middle)):
        if cells and lower:
            ranked += rank(_dense(_differential_columns(cells, lower, morse.up)))
    critical = len(morse.middle)
    if critical < ranked:
        raise ConsistencyError(
            f"negative Betti block at (i={i}, j={j}, multidegree code {u}): "
            f"{critical} critical cells but the Morse maps have rank {ranked}"
        )
    return critical - ranked


def compose_is_zero(ring: GradedSectionRing, i: int, j: int) -> bool:
    """Exact check that the strand's two Koszul differentials compose to zero.

    The composite wedge^{i+1} V (x) R_d -> wedge^{i-1} V (x) R_{d+2},
    d = j - i - 1, sends e_S (x) r to the sum over ordered pairs s != t in S
    of eps(S, s) * eps(S - s, t) * e_{S - {s, t}} (x) x_t x_s r.  It is zero
    exactly when two facts hold (module docstring): the x's commute on R_d,
    x_t x_s r = x_s x_t r for every pair s < t, read in two steps from the
    ring's shift tables, `shift_{d+1}[t][shift_d[s][r]]`; and the signs
    cancel, every face S - {s, t} of a face of S getting sign sum 0 from the
    boundary rule `_boundary`, which must give each S exactly its faces
    S - {s}, with sign +-1 (`_is_boundary`).  These are the tables and the
    rule the matching and the Morse columns read.

    Each fact is checked once per pair of shift tables and once per i: when
    it passes, the ring records what it passed on, the shift pair or the
    rule itself, and a later strand whose shift tables equal the recorded
    ones, or whose rule is the recorded one, skips that fact.  The verdict
    is a function of the tables' contents and of the rule, so the record is
    exact; tables changed since, in place or by replacement, and any other
    rule, such as a patched one, get the full check.
    """
    if i < 0 or j < 0:
        raise DegenerateInput("i, j must be nonnegative")
    # at j = i the source level R_{-1} is empty
    if i < 1 or j <= i or i + 1 > ring.dim_V:
        return True
    _check_window(ring, i, j)
    d = j - i - 1
    shifts = _shift(ring, d), _shift(ring, d + 1)
    if ring.passed.get(("commute", d)) != shifts:
        first, second = shifts
        for s, t in itertools.combinations(range(ring.dim_V), 2):
            if [second[t][x] for x in first[s]] != [second[s][x] for x in first[t]]:
                return False
        ring.passed[("commute", d)] = shifts
    if ring.passed.get(("signs", i)) is not _boundary:
        # the boundaries of wedge^i V, built once per check and not kept
        faces = {F: _boundary(F) for F in _wedge(ring, i).masks}
        if not all(itertools.starmap(_is_boundary, faces.items())):
            return False
        for S in _wedge(ring, i + 1).masks:
            terms = _boundary(S)
            if not _is_boundary(S, terms):
                return False
            sums: Dict[int, int] = {}
            for sign, F in terms:
                for sign2, G in faces[F]:
                    sums[G] = sums.get(G, 0) + sign * sign2
            if any(sums.values()):
                return False
        ring.passed[("signs", i)] = _boundary
    return True


def betti_table(
    ring: GradedSectionRing,
    max_i: int,
    max_slope: int,
    policy: RankPolicy = RankPolicy(),
) -> BettiTable:
    """All beta_{i,j} for 0 <= i <= max_i, i <= j <= i + max_slope.

    Every rank is exact, by Bareiss.  `policy.certify` skips the Morse
    matching and ranks each block's full maps (`koszul_betti`); a window
    with a block of more than `_CERTIFY_CELLS` middle cells is refused with
    `WindowExceeded` before any rank is taken.
    """
    if max_i < 0 or max_slope < 0:
        raise DegenerateInput(f"need max_i, max_slope >= 0, got {max_i}, {max_slope}")
    if max_slope + 1 > ring.dmax:
        raise WindowExceeded(
            f"window slope {max_slope} needs dmax >= {max_slope + 1}, "
            f"ring has dmax = {ring.dmax}"
        )
    window = [(i, j) for i in range(max_i + 1) for j in range(i, i + max_slope + 1)]
    if policy.certify:
        for i, j in window:
            if _is_open(ring, i, j):
                _certify_fits(_level_blocks(ring, i, j - i), i, j)
    entries: Dict[Tuple[int, int], int] = {}
    for i, j in window:
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
