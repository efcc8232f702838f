"""The packed adjugate of `icbound.kernels`: field layout, reads, exact
division over the fields, widening, and the sign of the denominator; and
pricing, from packed rows and entry by entry."""

import random
from fractions import Fraction

import pytest

from icbound import kernels
from icbound.kernels import Adjugate, ftran_sparse, leaving_row, pivot_update, price_columns
from icbound.simplex import StandardFormLP
from oracles import best_reduced_cost

# The widths an adjugate can start at: whole bytes from 16 bits to 64.
WIDTHS = list(range(16, 65, 8))
# Whole-byte widths: strided reads up to 64 bits, `int.from_bytes` past it.
BYTE_WIDTHS = list(range(8, 65, 8)) + [72, 96, 128, 200]


def capped_at(width: int) -> int:
    """The largest cap_square that starts an adjugate capped at width bits:
    its fields hold |entry| < H = 2^(width-1), so H^2 must exceed it."""
    return (1 << 2 * width - 2) - 1


def extremes(width: int) -> list:
    """Entries that fill the fields of the given width in every way: zero,
    both signs, and the largest of each sign."""
    half = 1 << width - 1
    return [0, 1, -1, half - 1, -half, half // 3, -(half // 5)]


def rotations(values):
    return [values[k:] + values[:k] for k in range(len(values))]


def at_width(width: int, m: int) -> Adjugate:
    """The m x m identity adjugate in fields of any whole number of bytes,
    every row marked."""
    adj = Adjugate(m, 0)
    adj._set_width(width)
    adj.cols = [adj.pack([int(i == j) for i in range(m)]) for j in range(m)]
    adj.marks = adj.bias
    return adj


def least_ratio_row(rows, d):
    """The row i with d[i] > 0 whose row over d[i] is lexicographically
    least, or -1; None when two rows tie for it."""
    keyed = sorted(([Fraction(v, d[i]) for v in row], i) for i, row in enumerate(rows) if d[i] > 0)
    if not keyed:
        return -1
    if len(keyed) > 1 and keyed[0][0] == keyed[1][0]:
        return None
    return keyed[0][1]


@pytest.mark.parametrize("width", BYTE_WIDTHS)
def test_every_whole_byte_width_reads_what_it_packs(width):
    # the extremes H - 1 and -(H - 1), with +-1 and 0, in every field
    half = 1 << width - 1
    values = [0, 1, -1, half - 1, -(half - 1), 0]
    adj = at_width(width, len(values))
    assert adj.unpack(adj.cols[2]) == [0, 0, 1, 0, 0, 0]
    for col in rotations(values):
        q = adj.pack(col)
        assert kernels._unpack(q, width, adj.bias, len(col)) == col
        assert [adj.entry(q, i) for i in range(len(col))] == col
        assert [(q >> width * i) & adj.mask for i in range(len(col))] == [v + half for v in col]
        assert adj.first_marked_nonzero(q) == next(i for i, v in enumerate(col) if v)
    adj.unmark(1)
    adj.unmark(3)
    assert adj.first_marked_nonzero(adj.pack([0, 1, 0, -1, 0, half - 1])) == 5
    assert adj.first_marked_nonzero(adj.pack([0, half - 1, 0, 1, 0, 0])) == -1


@pytest.mark.parametrize("width", BYTE_WIDTHS)
def test_leaving_row_at_every_whole_byte_width(width):
    # rows of 0, +-1 and +-(H - 1) often tie in column 0, so that the test
    # reads further; the answer is the least row over d among d's positive
    # rows, or -1 when there is none
    half = 1 << width - 1
    rng = random.Random(width)
    choices = [0, 0, 0, 1, -1, half - 1, -(half - 1)]
    m = 6
    adj = at_width(width, m)
    seen = set()
    for _ in range(80):
        rows = [[rng.choice(choices) for _ in range(m)] for _ in range(m)]
        d = [rng.choice(choices) for _ in range(m)]
        want = least_ratio_row(rows, d)
        if want is None:
            continue
        adj.cols = [adj.pack(list(col)) for col in zip(*rows)]
        assert leaving_row(adj, adj.pack(d)) == want
        firsts = sorted(Fraction(row[0], di) for row, di in zip(rows, d) if di > 0)
        seen.add("unbounded" if not firsts else "tie" if firsts[1:2] == firsts[:1] else "column 0")
    assert seen == {"unbounded", "tie", "column 0"}


def test_adjugate_starts_as_the_identity():
    adj = Adjugate(3, 0)
    assert [adj.unpack(q) for q in adj.cols] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert adj.capped


def test_fields_hold_entries_plus_half():
    for width in WIDTHS:
        values = extremes(width)
        adj = Adjugate(len(values), capped_at(width))
        assert adj.width == width
        col = adj.pack(values)
        assert adj.unpack(col) == values
        assert [(col >> width * i) & adj.mask for i in range(len(values))] == [
            v + adj.half for v in values]


def test_exact_division_distributes_over_the_fields():
    rng = random.Random(5)
    for width in WIDTHS:
        adj = Adjugate(6, capped_at(width))
        assert adj.width == width
        top = adj.half // 8  # times |den| <= 7, still inside the fields
        for _ in range(200):
            den = rng.choice([-7, -3, -1, 1, 2, 5])
            quotients = [rng.randint(-top, top) for _ in range(6)]
            signed = adj.pack([v * den for v in quotients]) - adj.bias
            assert adj.unpack(signed // den + adj.bias) == quotients


def test_cap_decides_whether_bounds_are_kept():
    # the narrowest whole-byte width whose H^2 = 2^(2W-2) exceeds cap_square
    # starts capped; past 64 bits, the fields start at 16 bits with bounds
    for cap_square, start in [(0, (16, True)), ((1 << 30) - 1, (16, True)),
                              (1 << 30, (24, True)), ((1 << 46) - 1, (24, True)),
                              (1 << 46, (32, True)), ((1 << 62) - 1, (32, True)),
                              (1 << 62, (40, True)), ((1 << 110) - 1, (56, True)),
                              (1 << 110, (64, True)), ((1 << 126) - 1, (64, True)),
                              (1 << 126, (16, False))]:
        adj = Adjugate(4, cap_square)
        assert (adj.width, adj.capped) == start, cap_square
        assert [adj.unpack(q) for q in adj.cols] == [[int(i == j) for i in range(4)]
                                                     for j in range(4)]


def test_make_room_tightens_before_it_widens():
    for width in WIDTHS:
        adj = Adjugate(2, capped_at(width))
        adj.bound = 1 << width + 6  # valid but loose
        adj.make_room(lambda: adj.bound)
        assert (adj.width, adj.bound, adj.tightenings, adj.widenings) == (width, 1, 1, 0)


def test_make_room_widens_and_keeps_every_entry():
    for width in WIDTHS:
        values = extremes(width)
        adj = Adjugate(len(values), capped_at(width))
        assert adj.width == width
        cols = rotations(values)
        adj.cols = [adj.pack(col) for col in cols]
        adj.make_room(lambda: 1 << 100)  # 101 bits: H > 2^100 at 13 bytes
        assert (adj.width, adj.tightenings, adj.widenings) == (104, 1, 1)
        assert [adj.unpack(q) for q in adj.cols] == cols
        assert adj.bound == 1 << width - 1
        wide = [1 << 100, -(1 << 100), 0, 1, -1, 2, -2]
        assert adj.unpack(adj.pack(wide)) == wide


def test_marks_find_the_lowest_marked_nonzero_row_at_every_width():
    for width in WIDTHS:
        adj = Adjugate(4, capped_at(width))
        assert adj.width == width
        adj.unmark(1)
        col = adj.pack([0, 5, -3, 7])
        assert [adj.entry(col, i) for i in range(4)] == [0, 5, -3, 7]
        assert adj.first_marked_nonzero(col) == 2
        adj.cols = [adj.pack([adj.half - 1, 0, 0, 0])] * 4
        adj.make_room(lambda: 1 << width)
        assert adj.width == width + 8
        col = adj.pack([0, 5, -(1 << width), 7])
        assert adj.first_marked_nonzero(col) == 2
        assert adj.first_marked_nonzero(adj.pack([0, 5, 0, 0])) == -1


def bareiss(rows, d, r, den):
    """The Bareiss step on plain rows: row r stays, every other row i
    becomes (row_i * d[r] - d[i] * row_r) / den, which must divide."""
    new = []
    for i, row in enumerate(rows):
        if i == r:
            new.append(list(row))
            continue
        nums = [b * d[r] - d[i] * br for b, br in zip(row, rows[r])]
        assert all(v % den == 0 for v in nums)
        new.append([v // den for v in nums])
    return new


@pytest.mark.parametrize("cap", [0, 1 << 200], ids=["capped", "bounded"])
@pytest.mark.parametrize("a", [(1, 2, -1), (1, 2, -2)], ids=["piv=-D", "piv=-2D"])
def test_pivot_update_keeps_the_denominator_positive(cap, a):
    # B over D = 3 is the adjugate of the basis [(3, 1, 0), e_1, e_2], and
    # y = c_B^T B for the costs c_B = (2, 0, 1). The entering column a, of
    # cost 1, has d = B a with d[2] = -3 or -6: a determinant of the sign
    # opposite to D's. The step must store (-B', -d[2]), where (B', d[2])
    # is the plain Bareiss step, with y as one more row of d entry -rc.
    rows = [[1, 0, 0], [-1, 3, 0], [0, 0, 3]]
    y0 = [2, 0, 3]
    adj = Adjugate(3, cap)
    adj.cols = [adj.pack(col) for col in zip(*rows)]
    adj.bound = 3
    before = list(adj.cols)
    d = [sum(b * v for b, v in zip(row, a)) for row in rows]
    rc = 1 * 3 - sum(v * w for v, w in zip(a, y0))
    y = list(y0)
    den = pivot_update(adj, ftran_sparse(adj, (0, 1, 2), a), 2, 3, y, rc)
    new = bareiss(rows + [y0], d + [-rc], 2, 3)
    assert den == -d[2] > 0
    assert [adj.unpack(q) for q in adj.cols] == [[-v for v in col] for col in zip(*new[:3])]
    assert y == [-v for v in new[3]]
    if d[2] == -3:  # |piv| == D: the columns with a zero in row 2 are left alone
        assert adj.cols[:2] == before[:2]


@pytest.mark.parametrize("cap", [capped_at(64), 1 << 400], ids=["capped", "bounded"])
def test_pivot_update_matches_plain_bareiss_on_every_path(cap):
    # chains of pivots from the identity on random columns, each step checked
    # against plain rows: |piv| == D (only the columns with a nonzero entry in
    # row r move), D dividing piv (no column divided), and the general step,
    # at either sign of piv; the bounded adjugate widens on the way
    rng = random.Random(4518)
    paths, widenings = set(), 0
    for _ in range(60):
        m = rng.randint(2, 7)
        adj = Adjugate(m, cap)
        rows = [[int(i == j) for j in range(m)] for i in range(m)]
        costs = [rng.randint(-3, 3) for _ in range(m)]
        y, den = list(costs), 1
        for _ in range(2 * m):
            a = [rng.choice((-3, -2, -1, 0, 0, 1, 2, 3)) for _ in range(m)]
            d = [sum(b * v for b, v in zip(row, a)) for row in rows]
            nonzero = [i for i in range(m) if d[i]]
            if not nonzero:
                continue
            r = rng.choice(nonzero)
            rc = rng.randint(-3, 3) * den - sum(v * w for v, w in zip(a, y))
            before, width, still = list(adj.cols), adj.width, [not v for v in rows[r]]
            new = bareiss(rows + [y], d + [-rc], r, den)
            path = ("|piv| == D" if abs(d[r]) == den else "D | piv" if d[r] % den == 0
                    else "general")
            paths.add((path, d[r] < 0))
            got = pivot_update(adj, ftran_sparse(adj, range(m), a), r, den, y, rc)
            sign = -1 if d[r] < 0 else 1
            rows, y, den = ([[sign * v for v in row] for row in new[:m]],
                            [sign * v for v in new[m]], abs(d[r]))
            assert got == den
            assert [adj.unpack(q) for q in adj.cols] == [list(col) for col in zip(*rows)]
            assert adj.capped or max(abs(v) for row in rows for v in row) <= adj.bound
            if path == "|piv| == D" and adj.width == width:
                assert [q for q, s in zip(adj.cols, still) if s] == [
                    q for q, s in zip(before, still) if s]
        widenings += adj.widenings
    assert (widenings > 0) == (not adj.capped)
    assert paths == {(path, neg) for path in ("|piv| == D", "D | piv", "general")
                     for neg in (False, True)}


def random_pricing_lp(rng, m):
    """Sparse columns over m rows, entries and costs in -3..3; a few columns
    are copies of earlier ones, whose reduced costs tie with theirs."""
    n = rng.randint(1, 90)
    cols = []
    for j in range(n):
        if j and rng.random() < 0.1:
            cols.append(cols[rng.randrange(j)])
            continue
        idx = tuple(sorted(rng.sample(range(m), rng.randint(0, min(m, 6)))))
        cols.append((idx, tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in idx),
                     rng.randint(-3, 3)))
    cols_idx, cols_val, cobj = map(list, zip(*cols))
    return StandardFormLP(m, cols_idx, cols_val, cobj)


@pytest.mark.parametrize("rows", [(1, 64), (65, 130)], ids=["packed", "loop"])
def test_price_columns_matches_the_reference(rows):
    # multipliers of up to 70 bits and denominators of up to 130 take the
    # packed rows through whole-byte widths from 16 bits to 136, strided
    # reads of 24, 40 and 56 bits and `int.from_bytes` past 64 included;
    # LPs of more than 64 rows are priced entry by entry and pack nothing
    rng = random.Random(3324 + rows[0])
    picked, ties, widths = set(), 0, set()
    for _ in range(60):
        m = rng.randint(*rows)
        lp = random_pricing_lp(rng, m)
        packs = {}
        for _ in range(8):
            bits = rng.choice((0, 4, 12, 28, 60, 70))
            y = [rng.choice((-1, 1)) * rng.getrandbits(bits) if rng.random() < 0.7 else 0
                 for _ in range(m)]
            den = rng.getrandbits(rng.choice((1, 8, 24, 56, 70, 130))) + 1
            chunk = rng.choice((1, 7, 64))
            for lo in range(0, len(lp.cobj), chunk):
                hi = min(len(lp.cobj), lo + chunk)
                want = best_reduced_cost(y, lp, den, lo, hi)
                assert price_columns(y, lp, den, lo, hi, packs) == want
                picked.add(want[0] >= 0)
                ties += want[0] >= 0 and sum(
                    best_reduced_cost(y, lp, den, j, j + 1)[1] == want[1]
                    for j in range(lo, hi)) > 1
        widths.update(w for _, packed in packs.values() for w in packed)
    assert picked == {True, False} and ties > 0
    if rows[1] <= kernels._PACKED_PRICING_ROWS:
        assert widths == {16, 24, 32, 40, 56, 64, 72, 80, 128, 136}
    else:
        assert widths == set()
