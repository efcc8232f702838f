"""Inner loops of the simplex core; one walk, `gf.span_ranks`, answers every
GF(p) rank, and `gfp_rref`, at the end, serves no package path.

These are the hot paths of the whole package, in plain Python over ints.
Callers reach these functions as `kernels.<name>` so that a tracer can wrap
each one by its dotted name.

The simplex keeps its basis inverse fraction-free: an integer matrix B and
one integer denominator D > 0, with B / D the inverse of the basis; the
multipliers are an integer vector over the same D, and, as the simplex's
right-hand side is e_0, the basic values are column 0 of B over D. Starting
from the identity with D = 1 and integer columns, D is |det| of the basis
and B its adjugate times the sign of det, so the Bareiss step in
`pivot_update` divides exactly and entries grow only as large as the minors
of the basis. No gcd is ever taken. (B, D) and (-B, -D) are the same
inverse; `pivot_update` keeps D > 0, so no kernel has a case for D < 0.

`Adjugate` stores column j of B as one Python int, `cols[j]`. Its W-bit
fields hold the entries (i, j), field i at bit W*i, each biased by
H = 2^(W-1) so that every field is nonnegative:

    cols[j] = sum_i (B[i][j] + H) << (W*i) = P_j + BIAS,

where P_j = sum_i B[i][j] << (W*i) is the signed packed column and BIAS
holds H in every field. P_j is a linear function of the column, so any
integer combination of columns is the same combination of their packed
ints, carries and borrows included. Exact division distributes over the
fields too: if every entry of a column is divisible by den, then
P // den is the packed column of the quotients, since the sum of the
quotients times den is P again. So FTRAN is one big-int product per
nonzero of the entering column, and a Bareiss step, which computes every
new entry as (B[i][j] * piv - d[i] * B[r][j]) / den with an exact
division, is four or five big-int operations per column, three where
B[r][j] is 0. When den divides piv, d is divided once and no column is:
two operations per column, and none on the columns where B[r][j] is 0 when
|piv| == den (see `pivot_update`).
Reads: a whole column becomes a list at C speed through `to_bytes` and a
memoryview cast to 16-, 32- or 64-bit ints (XOR with BIAS turns each biased
field into its two's complement), which is how the simplex reads column 0,
the basic values. 24-, 40-, 48- and 56-bit fields are first copied into
8-byte items, a strided slice per byte, over sign bytes that one
`bytes.translate` reads from each field's top byte. `make_room` reads all
columns at once.
Row r of B, the only transposed read, costs one shift and mask per column,
or, when |piv| == den, one AND per column to find its nonzero entries and
a shift only for those; BTRAN reads the rows of its nonzero weights with a
shift per column. FTRAN hands d back packed like a column, and the simplex
tests the signs of its fields with masks over the whole int.

Width invariant: a field is read back only while |entry| < H. The packed
sum stays exact in any case, but a field that outgrew its W bits carries
into its neighbour and can no longer be told apart from it. Two proofs keep
the invariant. Every entry of B, and of B times an LP column, is a minor of
a matrix made of at most m columns of the LP, so Hadamard's inequality
bounds it by the product of their norms; when the caller's bound is below
H the adjugate is `capped` and nothing more is checked. Otherwise the
adjugate keeps one proven `bound` on every |entry| of B, and every kernel
bounds what it is about to write or decode. FTRAN: |d_i| <= bound * sum|v|.
A Bareiss step: for a row i != r, |new B[i][j]| <= (|B[i][j]| * |piv| +
|d_i| * |B[r][j]|) / den <= (bound * |piv| + max|d'| * max_j |B[r][j]|) /
den, floored, as entries are integers; row r, unchanged, is covered too,
as |B[r][j]| <= bound and |piv| + max|d'| >= |piv| + |piv - den| >= den.
When the bound reaches H, it is first recomputed exactly from the stored
columns, which are still readable; if that is not enough, every column is
repacked into wider fields. The representation is the same at every width.

Width rule: every packed field, of the adjugate and of pricing, is as
wide as `_width_for` the bound at hand, the narrowest whole number of
bytes, at least 16 bits, whose H exceeds it (16, 24, 32, 40, ... bits;
past 64, read with `int.from_bytes`). The adjugate is capped when its
caller's bound asks for 64 bits or less; otherwise it starts at 16 bits
with the bound, and `make_room` widens it, a byte or more at a time. Every
big-int operation costs in proportion to the width, and the entries of the
128-row bound LPs stay far below the Hadamard bound: C7 ends at 16 bits and
non-Fano at 24, and their solves took about 0.6 times as long as with
64-bit fields (C7 0.60-0.64, non-Fano 0.57: medians of 9 or 15 solves that
alternate the two in one process, CPython 3.11, 2 vCPUs). Small LPs keep
the capped path: starting them at 16 bits with the bound made 4-message
solves 6-7% slower, as each bounded pivot pays about 3 us to unpack d and
take the maxima.

Pricing packs the LP's rows alike: over columns lo..hi-1, row i is R_i =
sum_j a_ij << (W*(j-lo)) and the costs C = sum_j c_j << (W*(j-lo)), so one
`_unpack` of den * C - sum_i y_i * R_i + BIAS reads every reduced cost times
den. W is the width for max|c| * den + longest * largest * max|y| (at least
||a_j||_1 * max|y|), on every call. Replaying one solve's pricing calls, us
per call, loop -> packed (CPython 3.11, 2 vCPUs): C4 19 -> 9, C5 18 -> 11,
C6 23 -> 17, C7 25 -> 27, non-Fano 27 -> 35, C8 64 -> 119. So LPs of over
64 rows keep the loop.
"""

from __future__ import annotations

import struct
import sys
from math import gcd, isqrt

from icbound.errors import VerificationError

BACKEND = "pure"

# The memoryview item code of each field size, in bytes, that has one.
_ITEM_CODES = {2: "h", 4: "i", 8: "q"}
# The sign byte of a field, 0 or 0xff, indexed by its top byte.
_SIGN_BYTE = bytes(0xFF * (b >> 7) for b in range(256))
# The most rows of an LP priced from packed rows (see the module docstring).
_PACKED_PRICING_ROWS = 64


def _width_for(bound: int) -> int:
    """The narrowest width of whole bytes, at least 16 bits, whose H exceeds bound."""
    return max(16, (bound.bit_length() + 8) // 8 * 8)


def _bias(width: int, count: int) -> int:
    """H = 2^(width-1) in each of count fields of width bits."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * count, "little")


def _fields(raw, step: int) -> list:
    """The two's complement fields of step bytes each, little-endian, that
    make up the bytes raw, as a list: a memoryview cast to 2-, 4- or 8-byte
    items as they are; at other sizes up to 8 bytes, the fields' bytes are
    first copied into 8-byte items over sign bytes; `int.from_bytes` per
    field beyond."""
    code = _ITEM_CODES.get(step)
    if not code:
        if step > 8:
            return [int.from_bytes(raw[k:k + step], "little", signed=True)
                    for k in range(0, len(raw), step)]
        items = bytearray(8 * (len(raw) // step))
        sign = raw[step - 1::step].translate(_SIGN_BYTE)
        for k in range(8):
            items[k::8] = raw[k::step] if k < step else sign
        raw, code = items, "q"
    if sys.byteorder == "big":  # reversed, raw holds big-endian items, the last first
        return memoryview(raw[::-1]).cast(code).tolist()[::-1]
    return memoryview(raw).cast(code).tolist()


def _unpack(q: int, width: int, bias: int, count: int) -> list:
    """The count fields of the biased packed int q, as a list."""
    # XOR with the bias turns each field into its two's complement.
    return _fields((q ^ bias).to_bytes(width * count // 8, "little"), width // 8)


class Adjugate:
    """The integer adjugate of the basis, one packed int per column, times
    the sign of the determinant, so that its denominator D stays positive.

    Starts as the m x m identity. `cols`, `width`, `half` (H), `mask` (one
    field of ones), `bias` and `low` (all but the top bit of every field)
    follow the layout in the module docstring. cap_square is the square of
    a bound on every entry that can ever arise. When `_width_for` its
    square root is 64 bits or less, the fields start at that width, and
    then `capped` is set and `bound` is not maintained; otherwise they
    start at 16 bits, `bound` bounds every |entry|, and `make_room` widens
    them when it must. `marks` holds the top bit of the field of each
    row the caller has marked, every row to start with. `widenings` and
    `tightenings` count repacks into wider fields and exact recomputations
    of `bound`.
    """

    __slots__ = ("m", "width", "half", "mask", "bias", "low", "cols", "capped", "bound",
                 "marks", "widenings", "tightenings")

    def __init__(self, m: int, cap_square: int):
        self.m = m
        width = _width_for(isqrt(cap_square))  # H > isqrt(cap_square): H^2 > cap_square
        self.capped = width <= 64
        self._set_width(width if self.capped else 16)
        self.cols = [self.bias + (1 << self.width * j) for j in range(m)]
        self.marks = self.bias
        self.bound = 1
        self.widenings = 0
        self.tightenings = 0

    def _set_width(self, width: int) -> None:
        self.width = width
        self.half = 1 << width - 1
        self.mask = (1 << width) - 1
        self.bias = _bias(width, self.m)
        self.low = self.bias - (self.bias >> width - 1)

    def unpack(self, q: int) -> list:
        """The entries of the biased packed column q, as a list."""
        return _unpack(q, self.width, self.bias, self.m)

    def entry(self, q: int, i: int) -> int:
        """Entry i of the biased packed column q."""
        return ((q >> self.width * i) & self.mask) - self.half

    def unmark(self, i: int) -> None:
        self.marks &= ~(self.half << self.width * i)

    def first_marked_nonzero(self, q: int) -> int:
        """The lowest marked row whose entry of the biased packed column q is
        nonzero, or -1."""
        low = self.low
        signed = q ^ self.bias  # two's complement fields
        hits = (((signed & low) + low) | signed) & self.marks  # top bit: field is nonzero
        return (hits & -hits).bit_length() // self.width - 1

    def pack(self, entries) -> int:
        """The biased packed column of a list of entries that fit the width:
        up to 64 bits, the low bytes of each entry's 8-byte item."""
        step = self.width // 8
        if step > 8:
            raw = b"".join(v.to_bytes(step, "little", signed=True) for v in entries)
        else:
            raw = items = struct.pack(f"<{len(entries)}q", *entries)
            if step < 8:
                raw = bytearray(step * len(entries))
                for k in range(step):
                    raw[k::step] = items[k::8]
        return int.from_bytes(raw, "little") ^ self.bias

    def make_room(self, reach) -> None:
        """Make the fields hold every value up to reach(), a bound computed
        from `bound`: recompute `bound` exactly from the columns, then, if
        reach() still reaches H, widen the fields to `_width_for` it, a byte
        or more at a time."""
        m, step = self.m, self.width // 8
        raw = b"".join((q ^ self.bias).to_bytes(step * m, "little") for q in self.cols)
        entries = _fields(raw, step)  # every column at once
        self.bound = max(max(entries), -min(entries))
        self.tightenings += 1
        need = reach()
        if need >= self.half:
            marked = [i for i in range(m) if self.marks >> self.width * i & self.half]
            self._set_width(_width_for(need))
            self.cols = [self.pack(entries[j * m:j * m + m]) for j in range(m)]
            self.marks = sum(self.half << self.width * i for i in marked)
            self.widenings += 1


def btran_dense(cb, adj: Adjugate):
    """y = cb^T * B, row by row of B; rows with a zero weight are skipped."""
    width, mask, half = adj.width, adj.mask, adj.half
    y = [0] * adj.m
    for i, c in enumerate(cb):
        if c:
            shift = width * i
            y = [a + c * (((q >> shift) & mask) - half) for a, q in zip(y, adj.cols)]
    return y


def ftran_sparse(adj: Adjugate, idx, val) -> int:
    """d = B * a for a sparse column a given as (idx, val) pairs, packed and
    biased like a column of B."""
    if not adj.capped:
        norm = sum(map(abs, val))
        if adj.bound * norm >= adj.half:
            adj.make_room(lambda: adj.bound * norm)
    cols = adj.cols
    packed = 0
    total = 0
    for k, v in zip(idx, val):
        packed += v * cols[k]
        total += v
    return packed - (total - 1) * adj.bias  # the sum carries total biases; keep one


def pivot_update(adj: Adjugate, packed_d, r, den, y=None, rc=0):
    """Bareiss step for the entering column d = B * a; returns |d[r]|, the new D.

    packed_d is d as `ftran_sparse` returns it, and den is positive. Row r
    stays as it is; every other row i becomes (row_i * d[r] - d[i] * row_r)
    / den, an exact division, and the new denominator is d[r]. On packed
    columns that is, for every column j, P_j <- (P_j * piv - D' * B[r][j]) /
    den, where D' is d packed without the bias and with field r lowered by
    den (so that row r comes out unchanged); with the bias folded in,
    cols[j] <- (cols[j] * piv + BIAS * (den - piv) - D' * B[r][j]) // den.
    When piv < 0, piv, D' and rc are negated first, which negates the new
    B, D and y: the same inverse, over a positive D.

    When den divides piv, no column is divided: P_j * piv / den is P_j *
    (piv / den), and den divides d_i * B[r][j] for every i and j (the new
    entries are integers), so with k = gcd(den, row r), D' divides by
    den / k exactly, once, and D' * B[r][j] / den is D' / (den / k) times
    B[r][j] / k. When piv == den, P_j * piv / den is P_j itself: only the
    columns with a nonzero entry in row r move, and the bias stays. y, when
    given, is updated as one more such row with d_i = -rc, where rc is the
    entering column's reduced cost times den; when piv == den, only its
    entries over those columns move.
    """
    width, mask, half = adj.width, adj.mask, adj.half
    shift = width * r
    piv = ((packed_d >> shift) & mask) - half
    cols = adj.cols
    whole = not piv % den  # piv / den is a whole number
    if whole:
        # Most pivots land here (419 of C7's 498 have |piv| == den; sent
        # through the general update, they make a C7 solve three times as
        # slow), and row r holds few nonzero entries: one AND per column
        # finds them, and only they are read, as {column: entry}.
        field, zero = mask << shift, half << shift
        row = {j: ((q >> shift) & mask) - half for j, q in enumerate(cols) if q & field != zero}
    else:
        row_u = [(q >> shift) & mask for q in cols]  # row r, each entry plus H
    if not adj.capped:
        d = adj.unpack(packed_d)
        if whole:
            row_max = max(map(abs, row.values()))
        else:
            row_max = max(max(row_u) - half, half - min(row_u))
        grow = max(max(d), -min(d), abs(piv - den)) * row_max
        reach = lambda: (adj.bound * abs(piv) + grow) // den
        if reach() >= half:
            adj.make_room(reach)
            if adj.width != width:  # start over on the wider fields
                return pivot_update(adj, adj.pack(d), r, den, y, rc)
        adj.bound = reach()
    lowered = packed_d - adj.bias - (den << shift)
    if piv < 0:  # (B, D) and (-B, -D) are the same inverse; keep D > 0
        piv, lowered, rc = -piv, -lowered, -rc
    if whole:
        times = piv // den
        if times > 1:
            still = adj.bias * (1 - times)
            adj.cols = cols = [q * times + still for q in cols]
            if y is not None:
                y[:] = [a * times for a in y]
        k = gcd(den, *row.values()) if den > 1 else 1
        if k < den:
            lowered //= den // k
        for j, x in row.items():
            cols[j] -= lowered * (x // k)
            if y is not None:
                y[j] += rc * x // den
    else:
        # a column whose entry in row r is zero (u == H) takes no D' product
        still = adj.bias * (den - piv)
        fold = still + lowered * half
        adj.cols = [(q * piv + still if u == half else q * piv + fold - lowered * u) // den
                    for q, u in zip(cols, row_u)]
        if y is not None:
            rc_half = rc * half
            y[:] = [(a * piv + rc * u - rc_half) // den for a, u in zip(y, row_u)]
    return piv


def leaving_row(adj: Adjugate, packed_d) -> int:
    """The leaving row by the lexicographic ratio test, or -1 when no entry
    of the entering column d (packed_d, biased) is positive: the LP is
    unbounded.

    The candidates are the rows i with d_i > 0 (D is positive), and the
    winner is the lexicographic minimum of row i of the adjugate over d_i.
    Column 0 holds the basic values, so this is the ratio test with ties
    broken by the rest of the row. The rows still tied are kept as flags,
    the top bit of their fields. Columns in which every tied entry is zero
    are skipped with one masked AND each; in the next column, the sign of
    each tied entry orders the ratios, so actual ratios are compared only
    among the tied rows of the least sign. Two rows of a nonsingular matrix
    are never proportional, so the minimum is unique and one row is left in
    the end.
    """
    width, top, low = adj.width, adj.bias, adj.low
    tied = packed_d & ((packed_d & low) + low) & top  # top bit set and some other bit too
    if not tied:
        return -1
    cols = adj.cols
    ones = adj.mask
    j = 0
    while tied & (tied - 1):
        fields = (tied >> width - 1) * ones
        try:
            q = cols[j]
            while q & fields == tied:  # every tied entry is zero: biased, it is H
                j += 1
                q = cols[j]
        except IndexError:
            raise VerificationError(
                "lexicographic ratio test: two rows of the adjugate are proportional") from None
        j += 1
        smaller = tied & ~q  # negative entries
        if smaller:
            tied = _least_ratio(adj, q, packed_d, smaller) if smaller & (smaller - 1) else smaller
            continue
        zero = tied & ~((q & low) + low)
        tied = zero if zero else _least_ratio(adj, q, packed_d, tied)
    return tied.bit_length() // width - 1


def _least_ratio(adj: Adjugate, q, packed_d, flags) -> int:
    """The flags, among the given ones, of the rows i at which entry i of
    the packed column q over entry i of packed_d is least."""
    width, mask, half = adj.width, adj.mask, adj.half
    kept = 0
    while flags:
        bit = flags & -flags
        flags ^= bit
        shift = bit.bit_length() - width
        a = ((q >> shift) & mask) - half
        d = ((packed_d >> shift) & mask) - half
        if not kept:
            best_a, best_d, kept = a, d, bit
            continue
        lhs, rhs = a * best_d, best_a * d
        if lhs < rhs:
            best_a, best_d, kept = a, d, bit
        elif lhs == rhs:
            kept |= bit
    return kept


def price_columns(y, lp, den, lo, hi, packs):
    """Pick an entering column among lo..hi-1 of the `StandardFormLP` lp with
    positive reduced cost: returns (j, its reduced cost times den), or (-1, 0).

    The reduced cost of column j times den is cobj[j] * den - a_j . y, with
    y the multipliers times den. Returns the most positive reduced cost,
    ties to the lowest column id. With y = c_B^T B, a basic column prices at
    exactly zero in integer arithmetic, so basic columns need no mask: they
    are never picked. The chunk is read in place, not sliced: from rows packed
    in packs, a dict per LP, when the LP has at most `_PACKED_PRICING_ROWS` rows.
    """
    cols_idx, cols_val, cobj = lp.cols_idx, lp.cols_val, lp.cobj
    if len(y) > _PACKED_PRICING_ROWS:
        best_j, best_rc = -1, 0
        for j in range(lo, hi):
            rc = cobj[j] * den
            idx = cols_idx[j]
            val = cols_val[j]
            for t in range(len(idx)):
                yi = y[idx[t]]
                if yi:
                    rc -= val[t] * yi
            if rc > best_rc:
                best_j, best_rc = j, rc
        return best_j, best_rc
    cost, by_width = packs.get((lo, hi)) or packs.setdefault(
        (lo, hi), (max(map(abs, cobj[lo:hi])), {}))
    bound = cost * den + lp.longest * lp.largest * max(map(abs, y))
    width = _width_for(bound)
    if width not in by_width:  # sums of shifted entries: exact even past a field
        costs, rows = 0, {}
        for j in range(lo, hi):
            shift = width * (j - lo)
            costs += cobj[j] << shift
            for i, v in zip(cols_idx[j], cols_val[j]):
                rows[i] = rows.get(i, 0) + (v << shift)
        by_width[width] = (costs, list(rows.items()), _bias(width, hi - lo))
    costs, rows, bias = by_width[width]
    total = costs * den + bias
    for i, row in rows:
        if y[i]:
            total -= y[i] * row
    rcs = _unpack(total, width, bias, hi - lo)
    best = max(rcs)
    return (lo + rcs.index(best), best) if best > 0 else (-1, 0)


def gfp_rref(rows, p):
    """In-place reduced row echelon form over GF(p); returns pivot columns.

    rows is a list of equal-length lists of ints in [0, p). Zero rows sink to
    the bottom and are left in place. Kept only for the benchmark's layer
    table and the tests' `lemmas.rref`, as `gf.EchelonBasis` and `gf.Gf2Basis` are.
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
