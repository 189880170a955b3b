"""Exact integer linear algebra: ranks, Hermite forms, integer kernels.

Everything here works on plain Python ints (arbitrary precision) so the
geometry layer never touches floating point.
"""

from __future__ import annotations


def exact_rank(rows) -> int:
    """Rank over the rationals by fraction-free elimination (Bareiss 1968).

    Every division is exact, so all entries stay integers.  The input is
    left as it was, and the loop stops at full row rank.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
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
    return rank


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


def kernel_basis(rows, ncols):
    """Basis (as rows) of the saturated integer kernel {x : M x = 0} of an
    integer matrix M with `ncols` columns (given, so M may have no rows).

    Works by row-reducing [M^T | I] and collecting the rows whose M^T part
    vanished.  The kernel of an integer matrix is automatically saturated,
    so the result is a lattice basis of the full rational kernel
    intersected with Z^n.
    """
    nr = len(rows)
    aug = [
        [r[j] for r in rows] + [1 if k == j else 0 for k in range(ncols)]
        for j in range(ncols)
    ]
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


def adjugate(E):
    """(det E, adj E) of a square integer matrix given as rows, with
    E adj(E) = det(E) I; each entry of adj E is a signed minor."""
    n = len(E)
    adj = [[(-1) ** (r + c) * _det([row[:r] + row[r + 1:] for k, row in enumerate(E) if k != c])
            for c in range(n)] for r in range(n)]
    return (sum(E[0][k] * adj[k][0] for k in range(n)) if n else 1), adj


def _det(m) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination: every division is exact, and 1 for the empty matrix."""
    m = [list(r) for r in m]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, len(m)):
            for c in range(k + 1, len(m)):
                m[i][c] = (m[i][c] * m[k][k] - m[i][k] * m[k][c]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if m else 1
