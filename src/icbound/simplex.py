"""Exact revised simplex over the rationals, computed fraction-free.

Solves max c.v subject to M v = e_0, v >= 0, the shape of the dual LP that
`lp.build_problem` hands over (e_0 is the unit vector of row 0, the empty
set's row), keeping an explicit basis inverse. Columns are sparse (index,
value) pairs. LP data are ints (rational data must be scaled to integers by
the caller), so the basis inverse is an integer matrix, the adjugate of the
basis, over one integer denominator, its determinant, updated by the
Bareiss step in `kernels.pivot_update`. The basic values, the inverse times
e_0, are its column 0. The simplex multipliers are an integer vector over
the same denominator, updated as one more row of each pivot, so BTRAN runs
once per solve. Fractions appear only in the result. No floating point
anywhere.

Degeneracy is the norm in these LPs (the right-hand side has a single
nonzero), so the leaving row is picked by the lexicographic ratio test,
which cannot cycle; as the basic values are column 0 of the inverse, that
test compares rows of the inverse alone. The entering column is the one of
most-positive reduced cost over a rotating chunk of columns (partial
pricing). A basic column prices at exactly zero (binv times it is den
times a unit vector), so pricing needs no mask of basic columns.
Artificial columns are appended internally to provide the starting basis;
they may never enter, and any artificial row touched by an entering column
is pivoted out at ratio zero, so artificials stay at value zero forever and
the optimum reached belongs to the genuine problem. Callers can hand over a
list of crash pivots to install a known feasible basis cheaply before the
loop.

The result is audited against the data as given before being returned:
exact primal feasibility, nonpositive reduced costs, and agreement of primal
and dual objectives. The audit brings x and y each to its own common
denominator and checks in integers, independently of the solver's state.
A failed audit is a bug in the solver, not in the model, and raises
VerificationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import lcm
from typing import List, Optional, Sequence, Tuple

from icbound import kernels
from icbound.errors import InputError, VerificationError
from icbound.rational import ZERO, Rational

__all__ = ["StandardFormLP", "SimplexResult", "solve_standard_form"]

_MAX_ITER = 200_000


@dataclass
class StandardFormLP:
    """max cobj . v  s.t.  sum_j v_j col_j = e_0, v >= 0.

    The right-hand side is always e_0, row 0's unit vector, so it is not
    stored. Every entry of cols_val and cobj is an int (not a bool); anything
    else is refused with InputError, since the solver never rescales.
    """

    nrows: int
    cols_idx: List[Tuple[int, ...]]
    cols_val: List[tuple]
    cobj: list

    def __post_init__(self):
        if self.nrows < 1:
            raise InputError("the right-hand side e_0 needs at least one row")
        if len(self.cols_val) != len(self.cols_idx) or len(self.cobj) != len(self.cols_idx):
            raise InputError("column arrays disagree in length")
        entries = chain(chain.from_iterable(self.cols_val), self.cobj)
        if set(map(type, entries)) != {int}:  # one C-speed pass when all is well
            _refuse_non_int("cols_val", self.cols_val, "that row")
            _refuse_non_int("cobj", [(c,) for c in self.cobj], "the costs")


def _refuse_non_int(name: str, entries, hint: str) -> None:
    """Raise InputError at the first value in entries, a sequence of tuples,
    whose type is not int."""
    for k, vals in enumerate(entries):
        for v in vals:
            if type(v) is not int:
                raise InputError(
                    f"LP data must be ints: {name} at column {k} holds "
                    f"{type(v).__name__} {v}; scale {hint} to integers")


@dataclass
class SimplexResult:
    status: str  # "optimal" or "unbounded"
    objective: Optional[object]
    x: Optional[list]  # per structural column
    y: Optional[list]  # per row, the simplex multipliers at the final basis
    iterations: int


def _lex_leaving(binv, d, rows, m):
    """Lexicographic minimum of binv row i / d_i over candidate rows.

    Column 0 holds the basic values, so this is the ratio test with ties
    broken by the rest of the row. The candidate d_i all share the sign of
    the common denominator, so the cross-multiplied comparisons below order
    the true ratios.
    """
    best = -1
    for i in rows:
        if best < 0:
            best = i
            continue
        di, db = d[i], d[best]
        row_i, row_b = binv[i], binv[best]
        for j in range(m):
            a = row_i[j] * db
            b = row_b[j] * di
            if a != b:
                break
        if a < b:
            best = i
    return best


def solve_standard_form(
    lp: StandardFormLP,
    crash: Sequence[Tuple[int, int]] = (),
) -> SimplexResult:
    """Revised simplex on an integer standard-form LP, solved exactly.

    crash is a list of (column, row) pivots applied before the main loop; it
    must leave a feasible basis in which every row with a nonzero basic value
    holds a structural column, since there is no phase-one here. Rows whose
    basic value is zero may keep their artificial columns; those are pivoted
    out at ratio zero the moment an entering column touches them.
    """
    m = lp.nrows
    nstruct = len(lp.cols_idx)
    cols_idx, cols_val, cobj = lp.cols_idx, lp.cols_val, lp.cobj

    # Artificial identity columns occupy ids nstruct .. nstruct+m-1. The
    # basis inverse is binv / den and basic value i is binv[i][0] / den.
    binv = [[0] * m for _ in range(m)]
    for i in range(m):
        binv[i][i] = 1
    den = 1
    basis = [nstruct + i for i in range(m)]

    def is_artificial(col: int) -> bool:
        return col >= nstruct

    def ftran(col: int):
        return kernels.ftran_sparse(binv, cols_idx[col], cols_val[col], m)

    def do_pivot(col: int, row: int, d, y=None, rc=0) -> None:
        nonlocal den
        den = kernels.pivot_update(binv, d, row, den, y, rc)
        basis[row] = col

    for col, row in crash:
        if not (0 <= col < nstruct):
            raise InputError("crash pivot on a non-structural column")
        d = ftran(col)
        if not d[row]:
            raise InputError("crash pivot hits a zero tableau entry")
        if not is_artificial(basis[row]):
            raise InputError("crash pivot would evict a structural column")
        do_pivot(col, row, d)
    if any(row[0] * den < 0 for row in binv):
        raise InputError("crash basis is not feasible")
    for i in range(m):
        if binv[i][0] and is_artificial(basis[i]):
            raise InputError(
                f"row {i} has a nonzero basic value but no crash pivot covers it"
            )

    # Multipliers y / den, kept current by every pivot from here on.
    y = kernels.btran_dense([cobj[c] if c < nstruct else 0 for c in basis], binv, m)

    chunk = max(64, nstruct // 16)
    cursor = 0
    iterations = 0

    while True:
        # Reduced costs times |den|, so their signs and order are the true ones.
        y_pos = y if den > 0 else [-v for v in y]
        scale = abs(den)

        # Partial pricing: scan chunks from the cursor until one yields a
        # positive reduced cost; a full wrap with nothing positive is optimality.
        enter = -1
        scanned = 0
        while scanned < nstruct:
            lo = cursor
            hi = min(nstruct, lo + chunk)
            j = kernels.price_columns(
                y_pos,
                cols_idx[lo:hi],
                cols_val[lo:hi],
                cobj[lo:hi],
                scale,
            )
            scanned += hi - lo
            cursor = hi % nstruct
            if j >= 0:
                enter = lo + j
                break
        if enter < 0:
            break

        d = ftran(enter)

        # Artificial rows all carry zero values (checked after the crash and
        # preserved by every pivot), so any the column touches can leave
        # first, degenerately, keeping the basis feasible.
        forced = -1
        for i in range(m):
            if d[i] and is_artificial(basis[i]):
                forced = i
                break
        if forced >= 0:
            leave = forced
        else:
            # Tableau entries d_i / den are positive where d_i has den's sign.
            candidates = [i for i in range(m) if d[i] * den > 0]
            if not candidates:
                return SimplexResult("unbounded", None, None, None, iterations)
            leave = _lex_leaving(binv, d, candidates, m)

        rc = cobj[enter] * den
        for k, v in zip(cols_idx[enter], cols_val[enter]):
            rc -= v * y[k]
        do_pivot(enter, leave, d, y, rc)
        iterations += 1
        if iterations > _MAX_ITER:
            raise VerificationError(
                f"simplex exceeded {_MAX_ITER} iterations; lexicographic rule should "
                "terminate long before this, so something is inconsistent"
            )

    x = [ZERO] * nstruct
    for i, c in enumerate(basis):
        v = binv[i][0]
        if c < nstruct:
            x[c] = Rational(v, den)
        elif v:
            raise VerificationError("artificial column ended basic at a nonzero value")
    y = [Rational(v, den) for v in y]
    _audit(lp, x, y)
    objective = sum((lp.cobj[j] * x[j] for j in range(nstruct) if x[j]), ZERO)
    return SimplexResult("optimal", objective, x, y, iterations)


def _audit(lp: StandardFormLP, x, y) -> None:
    """Check the optimum (x, y) against lp's data as given, in this order:
    x >= 0 while the rows are summed, every primal row against e_0, every
    reduced cost, primal objective = dual objective y_0.

    x and y are brought to integers over the lcm of their own denominators,
    dx and dy, never over the solver's denominator, so a bug in the solver's
    state cannot pass its own audit. Every check is then integer arithmetic; Fractions are
    built only for an error message.
    """
    m = lp.nrows
    dx = lcm(*(v.denominator for v in x if v))
    dy = lcm(*(v.denominator for v in y if v))
    lhs = [0] * m
    primal = 0
    for j, xj in enumerate(x):
        if not xj:
            continue
        if xj < 0:
            raise VerificationError("negative primal value in audit")
        xn = xj.numerator * (dx // xj.denominator)
        for k, v in zip(lp.cols_idx[j], lp.cols_val[j]):
            lhs[k] += v * xn
        primal += lp.cobj[j] * xn
    for i, v in enumerate(lhs):
        b = 1 if i == 0 else 0
        if v != b * dx:
            raise VerificationError(
                f"audit: row {i} violated, {Rational(v, dx)} != {b}")
    yn = [v.numerator * (dy // v.denominator) for v in y]
    for j, (idx, val) in enumerate(zip(lp.cols_idx, lp.cols_val)):
        rc = lp.cobj[j] * dy
        for k, v in zip(idx, val):
            rc -= v * yn[k]
        if rc > 0:
            raise VerificationError(
                f"audit: column {j} has positive reduced cost {Rational(rc, dy)}")
    dual = yn[0]
    if primal * dy != dual * dx:
        raise VerificationError(
            f"audit: objective mismatch {Rational(primal, dx)} != {Rational(dual, dy)}")
