"""Exact revised simplex over the rationals, computed fraction-free.

Solves max c.v subject to M v = e_0, v >= 0, the shape of the dual LP that
`lp.build_problem` hands over (e_0 is the unit vector of row 0, the empty
set's row), keeping an explicit basis inverse. Columns are sparse (index,
value) pairs. LP data are ints (rational data must be scaled to integers by
the caller), so the basis inverse is an integer matrix, the adjugate of the
basis times the sign of its determinant, over one positive denominator, the
determinant's absolute value, updated by the Bareiss step in
`kernels.pivot_update`. The adjugate is held as one packed int per column
(`kernels.Adjugate`), in fields as narrow as the Hadamard bound of the LP
proves wide enough, or in 16-bit fields widened on demand when no width up
to 64 bits is proven. The basic values, the inverse times e_0, are its
column 0. The simplex multipliers are an integer vector over
the same denominator, updated as one more row of each pivot, so BTRAN runs
once per solve. Fractions appear only in the result. No floating point
anywhere.

Degeneracy is the norm in these LPs (the right-hand side has a single
nonzero), so the leaving row is picked by the lexicographic ratio test,
which cannot cycle; as the basic values are column 0 of the inverse, that
test compares rows of the inverse alone, reading the packed columns one at
a time. The entering column is the one of most-positive reduced cost over
a rotating chunk of columns, read from packed rows in LPs of up to 64 rows.
A basic column prices at exactly zero (the adjugate times it is den times a
unit vector), so pricing needs no mask of basic columns. Artificial columns are appended internally
to provide the starting basis; they may never enter, and any artificial
row touched by an entering column is pivoted out at ratio zero, so
artificials stay at value zero forever and the optimum reached belongs to
the genuine problem. Callers can hand over a list of crash pivots to
install a known feasible basis cheaply before the loop. Each result
carries `SolveStats`, counts of what the solve did.

The result is audited against the data as given before being returned:
exact primal feasibility, nonpositive reduced costs, and agreement of primal
and dual objectives. The audit brings x and y each to its own common
denominator and checks in integers, independently of the solver's state.
A failed audit is a bug in the solver, not in the model, and raises
VerificationError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from typing import List, Optional, Sequence, Tuple

from icbound import kernels
from icbound.errors import InputError, VerificationError
from icbound.rational import ZERO, Rational

__all__ = ["SimplexResult", "SolveStats", "StandardFormLP", "solve_standard_form"]

_MAX_ITER = 200_000


@dataclass
class StandardFormLP:
    """max cobj . v  s.t.  sum_j v_j col_j = e_0, v >= 0.

    The right-hand side is always e_0, row 0's unit vector, so it is not
    stored. Every entry of cols_val and cobj is an int (not a bool); anything
    else is refused with InputError, since the solver never rescales. Each
    cols_idx tuple holds int row indices that increase strictly within
    0..nrows-1, one per value in the matching cols_val tuple; anything else
    is refused too, since the solver would misread it (a negative index
    would name a row counted from the end). One pass over the columns checks
    all of this and records `longest` and `largest`.
    """

    nrows: int
    cols_idx: List[Tuple[int, ...]]
    cols_val: List[tuple]
    cobj: list
    # Filled in by the checks: the most entries in a column and the largest
    # |entry| (each at least 1), which bound the solver's numbers.
    longest: int = field(init=False, repr=False, compare=False)
    largest: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.nrows
        if m < 1:
            raise InputError("the right-hand side e_0 needs at least one row")
        if len(self.cols_val) != len(self.cols_idx) or len(self.cobj) != len(self.cols_idx):
            raise InputError("column arrays disagree in length")
        self.longest, self.largest = _scan_columns(self.cols_idx, self.cols_val, m)
        if set(map(type, self.cobj)) - {int}:  # one C-speed pass in the common case
            k = next(k for k, c in enumerate(self.cobj) if type(c) is not int)
            raise _not_int("cobj", k, self.cobj[k], "the costs")


def _scan_columns(cols_idx, cols_val, m: int):
    """(most entries in a column, largest |value|), each at least 1; raises
    InputError at the first column that breaks a rule of `StandardFormLP`.
    Plain loops are the fastest check here."""
    longest = largest = 1
    for k, (idx, val) in enumerate(zip(cols_idx, cols_val)):
        n = len(idx)
        if n != len(val):
            raise InputError(f"column {k} has {n} row indices but {len(val)} values")
        if n > longest:
            longest = n
        prev = -1
        for i in idx:
            if type(i) is not int or not prev < i < m:
                raise InputError(f"cols_idx at column {k} is {tuple(idx)}: row indices must be "
                                 f"ints that increase strictly within 0..{m - 1}")
            prev = i
        for v in val:
            if type(v) is not int:
                raise _not_int("cols_val", k, v, "that row")
            if v > largest:
                largest = v
            elif -v > largest:
                largest = -v
    return longest, largest


def _not_int(name: str, k: int, v, hint: str) -> InputError:
    """The refusal of v, not an int, found in column k of the array name."""
    return InputError(f"LP data must be ints: {name} at column {k} holds "
                      f"{type(v).__name__} {v}; scale {hint} to integers")


@dataclass
class SolveStats:
    """What one solve did, counted at O(1) per pivot.

    iterations: pivots of the main loop (crash pivots excluded);
    degenerate: those whose leaving row had basic value zero;
    forced_exits: those that pivoted an artificial column out;
    rescaling: pivots, crash pivots included, whose pivot entry |piv|
    differs from the denominator D, so that every column of the adjugate
    moves;
    widenings: repacks of the adjugate into wider fields;
    tightenings: exact recomputations of the adjugate's entry bound;
    width: the bits per field of the adjugate at the end;
    den_bits: the largest bit length the denominator D reached.
    """

    iterations: int = 0
    degenerate: int = 0
    forced_exits: int = 0
    rescaling: int = 0
    widenings: int = 0
    tightenings: int = 0
    width: int = 0
    den_bits: int = 1  # D starts at 1


@dataclass
class SimplexResult:
    status: str  # "optimal" or "unbounded"
    objective: Optional[object]
    x: Optional[list]  # per structural column
    y: Optional[list]  # per row, the simplex multipliers at the final basis
    stats: SolveStats

    @property
    def iterations(self) -> int:
        return self.stats.iterations


def _hadamard_square(lp: StandardFormLP) -> int:
    """The square of a bound on every determinant of m columns of the LP
    or of the identity. Every entry of the adjugate of a basis, and of an
    entering column times it, is such a determinant or a minor of one, and
    by Hadamard's inequality it is at most the product of the column norms;
    no column's squared norm exceeds its length times its largest squared
    entry."""
    return (lp.longest * lp.largest * lp.largest) ** lp.nrows


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
    stats = SolveStats()

    # Artificial identity columns occupy ids nstruct .. nstruct+m-1. The
    # basis inverse is adj / den, den positive; basic value i is entry (i, 0) / den.
    adj = kernels.Adjugate(m, _hadamard_square(lp))
    den = 1
    basis = [nstruct + i for i in range(m)]  # adj marks the rows of artificial columns

    def is_artificial(col: int) -> bool:
        return col >= nstruct

    def ftran(col: int) -> int:
        return kernels.ftran_sparse(adj, cols_idx[col], cols_val[col])

    def result(status, objective=None, x=None, y=None) -> SimplexResult:
        stats.widenings, stats.tightenings = adj.widenings, adj.tightenings
        stats.width = adj.width
        return SimplexResult(status, objective, x, y, stats)

    def do_pivot(col: int, row: int, packed_d, y=None, rc=0) -> None:
        nonlocal den
        piv = kernels.pivot_update(adj, packed_d, row, den, y, rc)
        if piv != den:
            stats.rescaling += 1
            stats.den_bits = max(stats.den_bits, piv.bit_length())
        den = piv
        if is_artificial(basis[row]):
            adj.unmark(row)
        basis[row] = col

    for col, row in crash:
        if not (0 <= col < nstruct):
            raise InputError("crash pivot on a non-structural column")
        if not (type(row) is int and 0 <= row < m):
            raise InputError(f"crash pivot {(col, row)}: the row must be an int within 0..{m - 1}")
        packed_d = ftran(col)
        if not adj.entry(packed_d, row):
            raise InputError("crash pivot hits a zero tableau entry")
        if not is_artificial(basis[row]):
            raise InputError("crash pivot would evict a structural column")
        do_pivot(col, row, packed_d)
    values = adj.unpack(adj.cols[0])
    if any(v < 0 for v in values):
        raise InputError("crash basis is not feasible")
    for i in range(m):
        if values[i] and is_artificial(basis[i]):
            raise InputError(
                f"row {i} has a nonzero basic value but no crash pivot covers it"
            )

    # Multipliers y / den, kept current by every pivot from here on.
    y = kernels.btran_dense([cobj[c] if c < nstruct else 0 for c in basis], adj)

    chunk = max(64, nstruct // 16)
    cursor = 0
    packs = {}

    while True:
        # Partial pricing: scan chunks from the cursor until one yields a
        # positive reduced cost (times den); a full wrap with nothing positive
        # is optimality.
        enter = -1
        scanned = 0
        while scanned < nstruct:
            lo = cursor
            hi = min(nstruct, lo + chunk)
            enter, rc = kernels.price_columns(y, lp, den, lo, hi, packs)
            scanned += hi - lo
            cursor = hi % nstruct
            if enter >= 0:
                break
        if enter < 0:
            break

        packed_d = ftran(enter)

        # Artificial rows all carry zero values (checked after the crash and
        # preserved by every pivot), so any the column touches can leave
        # first, degenerately, keeping the basis feasible.
        leave = adj.first_marked_nonzero(packed_d)
        if leave >= 0:
            stats.forced_exits += 1
            stats.degenerate += 1
        else:
            leave = kernels.leaving_row(adj, packed_d)
            if leave < 0:
                return result("unbounded")
            if not adj.entry(adj.cols[0], leave):
                stats.degenerate += 1

        do_pivot(enter, leave, packed_d, y, rc)
        stats.iterations += 1
        if stats.iterations > _MAX_ITER:
            raise VerificationError(
                f"simplex exceeded {_MAX_ITER} iterations; lexicographic rule should "
                "terminate long before this, so something is inconsistent"
            )

    x = [ZERO] * nstruct
    for i, (c, v) in enumerate(zip(basis, adj.unpack(adj.cols[0]))):
        if c < nstruct:
            x[c] = Rational(v, den)
        elif v:
            raise VerificationError("artificial column ended basic at a nonzero value")
    y = [Rational(v, den) for v in y]
    _audit(lp, x, y)
    objective = sum((lp.cobj[j] * x[j] for j in range(nstruct) if x[j]), ZERO)
    return result("optimal", objective, x, y)


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
