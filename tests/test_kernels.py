"""The packed adjugate of `icbound.kernels`: field layout, reads, exact
division over the fields, widening, and the sign of the denominator."""

import random

import pytest

from icbound.kernels import Adjugate, ftran_sparse, pivot_update

# The widths an adjugate can start at.
WIDTHS = [16, 32, 64]


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
    # the narrowest width whose H^2 = 2^(2W-2) exceeds cap_square starts
    # capped; past every such width, the fields start at 16 bits with bounds
    for cap_square, start in [((1 << 30) - 1, (16, True)), (1 << 30, (32, True)),
                              ((1 << 62) - 1, (32, True)), (1 << 62, (64, True)),
                              ((1 << 126) - 1, (64, True)), (1 << 126, (16, False))]:
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
        adj.make_room(lambda: 1 << 100)
        assert (adj.width, adj.tightenings, adj.widenings) == (128, 1, 1)
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
        assert adj.width == 2 * width
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
