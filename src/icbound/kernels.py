"""Inner loops of the simplex core and of GF(p) elimination.

These are the hot paths of the whole package, in plain Python over ints.
The simplex kernels keep the basis inverse fraction-free: an integer matrix
B and one integer denominator D, which may be negative, with B / D the
inverse of the basis; the multipliers are an integer vector over the same
D, and, as the simplex's right-hand side is e_0, the basic values are
column 0 of B over D. Starting from the identity with D = 1 and integer
columns, D is the determinant of the basis and B its adjugate, so the
Bareiss update in `pivot_update` divides exactly and entries grow only as
large as the minors of the basis. No gcd is ever taken. Callers reach these
functions as `kernels.<name>` so that a tracer can wrap each one by its
dotted name.
"""

from __future__ import annotations

BACKEND = "pure"


def btran_dense(cb, binv, m):
    """y = cb^T * binv for dense rows; rows with a zero weight are skipped."""
    y = [0] * m
    for i in range(m):
        ci = cb[i]
        if ci:
            y = [a + ci * b for a, b in zip(y, binv[i])]
    return y


def ftran_sparse(binv, idx, val, m):
    """d = binv * a for a sparse column a given as (idx, val) pairs."""
    d = [0] * m
    for t in range(len(idx)):
        k = idx[t]
        vt = val[t]
        for i in range(m):
            w = binv[i][k]
            if w:
                d[i] += vt * w
    return d


def pivot_update(binv, d, r, den, y=None, rc=0):
    """Bareiss step for the entering column d = binv * a; returns the new D.

    Row r of binv stays as it is; every other row i becomes
    (row_i * d[r] - d[i] * row_r) / den, an exact division, and the new
    denominator is d[r]. Column 0 of binv carries the basic values, since
    the simplex's right-hand side is e_0. y, when given, is updated as one
    more such row with d_i = -rc, where rc is the entering column's reduced
    cost times den.
    """
    piv = d[r]
    row_r = binv[r]
    if piv == den:
        # Then row_i * piv / den is row_i itself and each d_i * row_r[j] is
        # divisible by den: only the nonzero columns of row r move.
        nz = [(j, b) for j, b in enumerate(row_r) if b]
        for i in range(len(binv)):
            di = d[i]
            if di and i != r:
                row_i = binv[i]
                for j, b in nz:
                    row_i[j] -= di * b // den
    else:
        for i in range(len(binv)):
            if i == r:
                continue
            di = d[i]
            if di:
                binv[i] = [(a * piv - di * b) // den for a, b in zip(binv[i], row_r)]
            else:
                binv[i] = [a * piv // den for a in binv[i]]
    if y is not None:
        y[:] = [(a * piv + rc * b) // den for a, b in zip(y, row_r)]
    return piv


def price_columns(y, cols_idx, cols_val, cobj, scale):
    """Pick an entering column with positive reduced cost, or -1.

    The reduced cost of column j is taken as cobj[j] * scale - a_j . y, so a
    positive common factor may sit on y and scale. Returns the most positive
    reduced cost, ties to the lowest column id. With y = c_B^T B and scale =
    D (both sign-corrected), a basic column prices at exactly zero in integer
    arithmetic, so basic columns need no mask: they are never picked.
    """
    best_j = -1
    best_rc = 0
    for j in range(len(cobj)):
        rc = cobj[j] * scale
        idx = cols_idx[j]
        val = cols_val[j]
        for t in range(len(idx)):
            yi = y[idx[t]]
            if yi:
                rc -= val[t] * yi
        if rc > best_rc:
            best_rc = rc
            best_j = j
    return best_j


def gfp_rref(rows, p):
    """In-place reduced row echelon form over GF(p); returns pivot columns.

    rows is a list of equal-length lists of ints in [0, p). Zero rows sink to
    the bottom and are left in place.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = -1
        for i in range(rank, nrows):
            if rows[i][col] % p:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        rowk = rows[rank]
        inv = pow(rowk[col], p - 2, p) if p > 2 else 1
        if inv != 1:
            for j in range(col, ncols):
                if rowk[j]:
                    rowk[j] = rowk[j] * inv % p
        for i in range(nrows):
            if i != rank:
                f = rows[i][col] % p
                if f:
                    rowi = rows[i]
                    for j in range(col, ncols):
                        if rowk[j]:
                            rowi[j] = (rowi[j] - f * rowk[j]) % p
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return pivots
