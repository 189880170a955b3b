"""Exact integer linear algebra: determinants, ranks, Hermite forms.

Everything here works on plain Python ints (arbitrary precision) so the
geometry layer never touches floating point.
"""

from __future__ import annotations

from fractions import Fraction


def _bareiss(rows):
    """(rank, signed last pivot) by fraction-free elimination (Bareiss 1968).

    Rows are swapped to find each pivot, and every swap flips the sign of
    the last pivot; for a square matrix of full rank the signed last pivot
    is the determinant.  The loop stops at full row rank.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    sign = 1
    prev = 1
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        pr = m[rank]
        p = pr[col]
        for i in range(rank + 1, nrows):
            ri = m[i]
            f = ri[col]
            if f:
                for k in range(col + 1, ncols):
                    ri[k] = (p * ri[k] - f * pr[k]) // prev
                ri[col] = 0
            else:
                for k in range(col + 1, ncols):
                    ri[k] = (p * ri[k]) // prev
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank, sign * prev


def exact_rank(rows) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination."""
    return _bareiss(rows)[0]


def det(rows) -> int:
    """Determinant of a square integer matrix (Bareiss)."""
    rank, last = _bareiss(rows)
    return last if rank == len(rows) else 0


def row_hnf(rows):
    """Row Hermite normal form; returns the nonzero rows.

    The returned rows generate the same lattice as the input rows and are
    in echelon form with positive pivots, entries above each pivot reduced.
    """
    m = [list(r) for r in rows]
    if not m:
        return []
    nrows = len(m)
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        nz = [i for i in range(r, nrows) if m[i][c]]
        if not nz:
            continue
        while len(nz) > 1:
            i = min(nz, key=lambda k: abs(m[k][c]))
            for j in nz:
                if j == i:
                    continue
                q = m[j][c] // m[i][c]
                m[j] = [a - q * b for a, b in zip(m[j], m[i])]
            nz = [i for i in range(r, nrows) if m[i][c]]
        i = nz[0]
        m[r], m[i] = m[i], m[r]
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        for j in range(r):
            q = m[j][c] // m[r][c]
            if q:
                m[j] = [a - q * b for a, b in zip(m[j], m[r])]
        r += 1
        if r == nrows:
            break
    return m[:r]


def kernel_basis(rows, ncols=None):
    """Basis (as rows) of the saturated integer kernel {x : M x = 0}.

    Works by row-reducing [M^T | I] and collecting the rows whose M^T part
    vanished.  The kernel of an integer matrix is automatically saturated,
    so the result is a lattice basis of the full rational kernel
    intersected with Z^n.
    """
    m = [list(r) for r in rows]
    if m:
        n = len(m[0])
    else:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        n = ncols
    nr = len(m)
    aug = []
    for j in range(n):
        aug.append([m[i][j] for i in range(nr)] + [1 if k == j else 0 for k in range(n)])
    reduced = row_hnf(aug)
    # the rows whose left block vanished are the last rows of an HNF, so
    # their right blocks are already in HNF
    return [row[nr:] for row in reduced if not any(row[:nr])]


def solve_in_hnf_basis(basis, target):
    """Integer coordinates of `target` in an echelon (HNF) lattice basis.

    Raises ValueError if the target is not in the lattice.
    """
    w = list(target)
    coords = []
    for row in basis:
        p = next((k for k, a in enumerate(row) if a), None)
        if p is None:
            raise ValueError("zero row in basis")
        if any(w[k] for k in range(p)):
            raise ValueError("target not in lattice")
        if w[p] % row[p]:
            raise ValueError("target not in lattice")
        q = w[p] // row[p]
        w = [a - q * b for a, b in zip(w, row)]
        coords.append(q)
    if any(w):
        raise ValueError("target not in lattice")
    return tuple(coords)


def solve_rational(rows, rhs):
    """Solve M x = rhs over Q; returns a tuple of Fractions or None."""
    m = [[Fraction(v) for v in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    nrows = len(m)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [a * inv for a in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    for i in range(r, nrows):
        if m[i][ncols]:
            return None
    x = [Fraction(0)] * ncols
    for k, c in enumerate(pivots):
        x[c] = m[k][ncols]
    return tuple(x)
