"""Independent brute-force oracles.

These deliberately avoid the library's computation paths and import
nothing from the package: hull membership goes through exact barycentric
coordinates (no facet inequalities), areas come from a monotone-chain hull
plus shoelace, and Betti numbers and d∘d = 0 from dense un-blocked strand
matrices; `level_blocks` splits a level by the multidegrees of its lattice
points and `block_matrix` gives one block's full Koszul map, for checking
the engine's split and its Morse complex block by block; `element_matching`
matches explicit face sets one generator at a time; `brute_automorphisms` finds the
lattice automorphisms of a polytope from every map of vertex tuples.  One Gauss-Jordan elimination over
Fraction, here, serves both the barycentric solve and every rank.  `box_points` is the one oracle that
reads the facets: it is the bounding-box filter that defines the output of
the library's lattice point walk, order included.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _gauss_jordan(rows):
    """(reduced row echelon form over Fraction, pivot columns)."""
    m = [[Fraction(v) for v in r] for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        # row r is 0 left of column c, so only columns c.. change
        inv = 1 / m[r][c]
        pr = m[r][c:] = [a * inv for a in m[r][c:]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i][c:] = [a - f * b if b else a for a, b in zip(m[i][c:], pr)]
        pivots.append(c)
    return m, pivots


def _solve(rows, rhs):
    """One solution of M x = rhs over Q (free variables 0), or None."""
    ncols = len(rows[0])
    m, pivots = _gauss_jordan([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for k, c in enumerate(pivots):
        x[c] = m[k][ncols]
    return x


def in_hull(vertices, x, d=1):
    """x in d * conv(vertices), via Caratheodory over affinely independent
    vertex subsets with exact barycentric coordinates.

    When the vertices affinely span R^n, some triangulation of their hull
    uses only the vertices, so x lies in one of its n-simplices and the
    (n + 1)-subsets suffice; a subset that is not affinely independent can
    only add a solution that is itself a convex combination.
    """
    verts = [tuple(d * c for c in v) for v in vertices]
    n = len(x)
    if fraction_rank([[a - b for a, b in zip(v, verts[0])] for v in verts[1:]]) == n:
        sizes = [n + 1]
    else:
        sizes = range(1, min(len(verts), n + 1) + 1)
    for k in sizes:
        for subset in itertools.combinations(verts, k):
            rows = [[v[i] for v in subset] for i in range(n)]
            rows.append([1] * k)
            sol = _solve(rows, list(x) + [1])
            if sol is not None and all(l >= 0 for l in sol):
                return True
    return False


def box_points(P, d, strict):
    """The lattice points of the bounding box of dP that pass every facet
    test <normal, x> >= d * offset (> when `strict`), in lexicographic order:
    the definition the library's fibre walk must reproduce, point by point."""
    n = len(P.vertices[0])
    los = [d * min(v[i] for v in P.vertices) for i in range(n)]
    his = [d * max(v[i] for v in P.vertices) for i in range(n)]
    return [
        x
        for x in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his)))
        if all(
            sum(a * b for a, b in zip(f.normal, x)) >= d * f.offset + int(strict)
            for f in P.facets
        )
    ]


def hull_area_twice(points):
    """Twice the area of the 2D convex hull (monotone chain + shoelace)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return 0

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    twice = 0
    for a, b in zip(hull, hull[1:] + hull[:1]):
        twice += a[0] * b[1] - a[1] * b[0]
    return abs(twice)


def fraction_rank(rows):
    return len(_gauss_jordan(rows)[1])


def _level(ring, q, d):
    """The basis (S, r) of wedge^q V (x) R_d, un-blocked; [] if it does not exist."""
    nv = len(ring.degree(1).basis)
    if q < 0 or d < 0 or q > nv or d > ring.dmax:
        return []
    return [
        (S, r)
        for S in itertools.combinations(range(nv), q)
        for r in range(len(ring.degree(d).basis))
    ]


def _matrix(ring, src_elts, q, d):
    """Dense differential wedge^q V (x) R_d -> wedge^{q-1} V (x) R_{d+1},
    rows in the order of `_level(ring, q - 1, d + 1)`."""
    return block_matrix(ring, src_elts, d, _level(ring, q - 1, d + 1))


def level_blocks(ring, q, d):
    """The basis (S, r) of wedge^q V (x) R_d grouped by multidegree, the
    lattice point sum_{s in S} bases[1][s] + bases[d][r]: a dict from that
    point to the pairs (S, r) of its block, in `_level` order."""
    blocks = {}
    nv = len(ring.degree(1).basis)
    if q < 0 or d < 0 or q > nv or d > ring.dmax:
        return blocks
    gens, points = ring.degree(1).basis, ring.degree(d).basis
    for S in itertools.combinations(range(nv), q):
        g = [sum(gens[s][a] for s in S) for a in range(len(gens[0]))]
        for r, x in enumerate(points):
            blocks.setdefault(tuple(a + b for a, b in zip(x, g)), []).append((S, r))
    return blocks


def block_matrix(ring, cells, d, targets):
    """Dense Koszul differential of one block: a column for each of `cells`
    in wedge^q V (x) R_d and a row for each of `targets` in
    wedge^{q-1} V (x) R_{d+1}, each a pair (S, r) of `level_blocks` (S the
    sorted tuple of generators, r the index of the point), with each product
    of points summed and looked up afresh."""
    gens = ring.degree(1).basis
    points = ring.degree(d).basis
    idx = {p: k for k, p in enumerate(ring.degree(d + 1).basis)}
    pos = {e: k for k, e in enumerate(targets)}
    rows = [[0] * len(cells) for _ in targets]
    for col, (S, r) in enumerate(cells):
        for t, s in enumerate(S):
            prod = tuple(a + b for a, b in zip(points[r], gens[s]))
            rows[pos[S[:t] + S[t + 1 :], idx[prod]]][col] += -1 if t % 2 else 1
    return rows


def dense_betti(ring, i, j):
    """beta_{i,j} from full (un-blocked) dense strand matrices."""
    mid = _level(ring, i, j - i)
    if not mid:
        return 0
    rank_out = fraction_rank(_matrix(ring, mid, i, j - i)) if i >= 1 else 0
    src = _level(ring, i + 1, j - i - 1)
    rank_in = fraction_rank(_matrix(ring, src, i + 1, j - i - 1)) if src else 0
    return len(mid) - rank_out - rank_in


def dense_compose_is_zero(ring, i, j):
    """Whether the product of the strand's two dense, un-blocked
    differentials wedge^{i+1} V (x) R_{j-i-1} -> wedge^{i-1} V (x) R_{j-i+1}
    is the zero matrix."""
    src = _level(ring, i + 1, j - i - 1)
    if i < 1 or not src:
        return True
    incoming = _matrix(ring, src, i + 1, j - i - 1)
    outgoing = _matrix(ring, _level(ring, i, j - i), i, j - i)
    return all(
        sum(a * b for a, b in zip(row, col)) == 0
        for row in outgoing
        for col in zip(*incoming)
    )


def element_matching(levels, order):
    """The sequential element matching of a family of faces, each face a
    frozenset of generator indices.  `levels` are sets of faces of
    consecutive sizes, smallest first.  For each generator v in `order`,
    every face F without v that is still unmatched is paired with F | {v}
    when that is a still unmatched face of the next level.  Returns the
    unmatched faces of each level, as a list of sets, and the pairs as a
    dict F -> F | {v}."""
    critical = [set(level) for level in levels]
    partner = {}
    for v in order:
        for lower, upper in zip(critical, critical[1:]):
            for F in [F for F in lower if v not in F and F | {v} in upper]:
                lower.remove(F)
                upper.remove(F | {v})
                partner[F] = F | {v}
    return critical, partner


def brute_det(m):
    """Determinant as the signed sum over all permutations."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for r, c in enumerate(perm):
            term *= m[r][c]
        total += term
    return total


def brute_automorphisms(vertices):
    """Every (A, b), A as its rows, with x -> A x + b in GL_n(Z) + Z^n
    mapping the vertex set of a full-dimensional polytope onto itself,
    sorted.

    The base is the first affinely independent (n + 1)-tuple of vertices
    x_0, ..., x_n; every ordered (n + 1)-tuple of distinct vertices
    y_0, ..., y_n is tried as its image, solving A (x_k - x_0) = y_k - y_0
    row by row over Fraction, and the map is kept when A and b are integral,
    det A = +-1 and the vertex set goes onto itself."""
    verts = [tuple(v) for v in vertices]
    n = len(verts[0])
    base = next(
        t for t in itertools.combinations(verts, n + 1)
        if fraction_rank([[a - b for a, b in zip(x, t[0])] for x in t[1:]]) == n
    )
    # rows of X^T: the k-th is x_k - x_0
    xt = [[a - b for a, b in zip(x, base[0])] for x in base[1:]]
    vset = set(verts)
    found = []
    for images in itertools.permutations(verts, n + 1):
        yt = [[a - b for a, b in zip(y, images[0])] for y in images[1:]]
        # row r of A solves X^T a_r = (column r of Y^T)
        A = [_solve(xt, [y[r] for y in yt]) for r in range(n)]
        if any(row is None for row in A) or any(a.denominator != 1 for row in A for a in row):
            continue
        A = [[int(a) for a in row] for row in A]
        if abs(brute_det(A)) != 1:
            continue
        b = [y - sum(a * x for a, x in zip(row, base[0])) for y, row in zip(images[0], A)]
        image = {tuple(sum(a * x for a, x in zip(row, v)) + c for row, c in zip(A, b)) for v in verts}
        if image == vset:
            found.append((tuple(map(tuple, A)), tuple(b)))
    return sorted(set(found))


def brute_decompositions(gens, x, m):
    """All multisets of m generators summing to x (exhaustive)."""
    out = []
    for combo in itertools.combinations_with_replacement(gens, m):
        total = tuple(sum(c) for c in zip(*combo))
        if total == x:
            out.append(combo)
    return out
