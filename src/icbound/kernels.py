"""Inner loops of the simplex core and of GF(p) elimination.

These are the hot paths of the whole package, in plain Python over
`fractions.Fraction` and ints. They avoid temporary objects where it
matters but stay readable; the work is dominated by rational arithmetic,
not by interpreter overhead. Callers reach them as `kernels.<name>` so that
a tracer can wrap each one by its dotted name.
"""

from __future__ import annotations

BACKEND = "pure"


def btran_dense(cb, binv, m, zero):
    """y = cb^T * binv for dense rows; rows with a zero weight are skipped."""
    y = [zero] * m
    for i in range(m):
        ci = cb[i]
        if ci:
            row = binv[i]
            for j in range(m):
                v = row[j]
                if v:
                    y[j] += ci * v
    return y


def ftran_sparse(binv, idx, val, m, zero):
    """d = binv * a for a sparse column a given as (idx, val) pairs."""
    d = [zero] * m
    for t in range(len(idx)):
        k = idx[t]
        vt = val[t]
        for i in range(m):
            w = binv[i][k]
            if w:
                d[i] += vt * w
    return d


def pivot_update(binv, xb, d, r, m):
    """Replace basis row r given the entering column's tableau image d.

    binv row r is scaled by 1/d[r]; every other row i gets d[i] times the new
    row r subtracted. xb is updated the same way, with xb[r] becoming the
    entering variable's value.
    """
    piv = d[r]
    row_r = binv[r]
    if piv != 1:
        for j in range(m):
            if row_r[j]:
                row_r[j] /= piv
        xb[r] /= piv
    theta = xb[r]
    for i in range(m):
        if i == r:
            continue
        di = d[i]
        if di:
            row_i = binv[i]
            for j in range(m):
                v = row_r[j]
                if v:
                    row_i[j] -= di * v
            if theta:
                xb[i] -= di * theta


def price_columns(y, cols_idx, cols_val, cobj, excluded):
    """Pick an entering column with positive reduced cost, or -1.

    Returns the most positive reduced cost, ties to the lowest column id.
    """
    best_j = -1
    best_rc = None
    for j in range(len(cobj)):
        if excluded[j]:
            continue
        rc = cobj[j]
        idx = cols_idx[j]
        val = cols_val[j]
        for t in range(len(idx)):
            yi = y[idx[t]]
            if yi:
                rc -= val[t] * yi
        if rc > 0:
            if best_rc is None or rc > best_rc:
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
