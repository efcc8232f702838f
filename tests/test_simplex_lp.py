"""Exact simplex and the subset-entropy bound LP."""

import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from icbound import kernels
from icbound.errors import InputError
from icbound.groundset import GroundSet, popcount
from icbound.instance import IndexCodingInstance, cycle_instance, from_graph
from icbound.lp import build_problem, solve_problem
from icbound.matroid import Matroid, fano, nonfano, to_index_coding
from icbound.rational import ONE, ZERO, rat, rat_str
from icbound.schema import SubmodRow, SubmodSchema
from icbound.simplex import SolveStats, StandardFormLP, solve_standard_form
from icbound.tighten import schema_with_submod

from oracles import (all_rank_functions, entropy_feasible, fm_bound, fraction_simplex,
                     graphic_rank)
from test_matroid import uniform


def to_fraction(v):
    return Fraction(int(v.numerator), int(v.denominator))


def lp_bound(inst, schema=None):
    """The optimum of the bound LP (default schema: submodularity)."""
    return solve_problem(build_problem(inst, schema)).value


def hand_lp_arrays():
    """The arrays of max 3a + 2b s.t. a + b = 1, a - b = 0, as fresh lists."""
    return dict(nrows=2, cols_idx=[(0, 1), (0, 1)], cols_val=[(1, 1), (1, -1)],
                cobj=[3, 2])


def test_solver_reports_optimum():
    lp = StandardFormLP(**hand_lp_arrays())
    res = solve_standard_form(lp, crash=[(1, 1), (0, 0)])
    assert res.status == "optimal"
    assert res.objective == rat("5/2")
    assert res.x == [rat("1/2"), rat("1/2")]
    assert_same_as_fraction_simplex(lp, [(1, 1), (0, 0)])

    # Row 0's entries halved: rational data is refused, not rescaled; the
    # caller scales the row back to integers.
    halved = hand_lp_arrays()
    halved.update(cols_val=[(rat("1/2"), 1), (rat("1/2"), -1)])
    with pytest.raises(InputError, match=re.escape(
            "cols_val at column 0 holds Fraction 1/2; scale that row to integers")):
        StandardFormLP(**halved)


@pytest.mark.parametrize("bad", [rat("1/2"), True, 0.5], ids=["Fraction", "bool", "float"])
@pytest.mark.parametrize("array, where", [
    ("cols_val", "column 1"), ("cobj", "column 1")])
def test_lp_data_must_be_int(array, where, bad):
    arrays = hand_lp_arrays()
    if array == "cols_val":
        arrays["cols_val"][1] = (1, bad)
    else:
        arrays[array][1] = bad
    message = f"LP data must be ints: {array} at {where} holds {type(bad).__name__} {bad};"
    with pytest.raises(InputError, match=re.escape(message)):
        StandardFormLP(**arrays)


@pytest.mark.parametrize("changes, message", [
    (dict(cols_val=[(1, 1)]), "column arrays disagree in length"),
    (dict(cobj=[3]), "column arrays disagree in length"),
    (dict(nrows=0, cols_idx=[], cols_val=[], cobj=[]),
     "the right-hand side e_0 needs at least one row"),
], ids=["cols_val", "cobj", "no-rows"])
def test_lp_shape_errors(changes, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        StandardFormLP(**dict(hand_lp_arrays(), **changes))


# Row indices the solver would misread. Index -1 would name the last row, and
# read that way MISREAD is optimal with objective 5.
MISREAD = dict(nrows=2, cols_idx=[(0,), (-1,), (0, 1)], cols_val=[(1,), (1,), (1, -1)],
               cobj=[1, 5, 0])


@pytest.mark.parametrize("idx, val, message", [
    ((-1,), (1,), "cols_idx at column 1 is (-1,)"),
    ((2,), (1,), "cols_idx at column 1 is (2,)"),
    ((1, 1), (1, 1), "cols_idx at column 1 is (1, 1)"),
    ((1, 0), (1, 1), "cols_idx at column 1 is (1, 0)"),
    ((True,), (1,), "cols_idx at column 1 is (True,)"),
    ((0.0,), (1,), "cols_idx at column 1 is (0.0,)"),
], ids=["negative", "past-the-end", "repeated", "decreasing", "bool", "float"])
def test_lp_refuses_row_indices_it_would_misread(idx, val, message):
    arrays = dict(MISREAD)
    arrays["cols_idx"] = [(0,), idx, (0, 1)]
    arrays["cols_val"] = [(1,), val, (1, -1)]
    with pytest.raises(InputError, match="^" + re.escape(
            message + ": row indices must be ints that increase strictly within 0..1") + "$"):
        StandardFormLP(**arrays)


def test_lp_names_the_earlier_of_two_faulty_columns():
    # every column's values used to be checked before any column's rows
    arrays = dict(MISREAD, cols_val=[(1,), (1,), (1, rat("1/2"))])
    with pytest.raises(InputError, match="^" + re.escape(
            "cols_idx at column 1 is (-1,): row indices must be ints") + " "):
        StandardFormLP(**arrays)


def test_lp_refuses_a_column_whose_lengths_disagree():
    arrays = dict(MISREAD, cols_idx=[(0,), (1,), (0, 1)], cols_val=[(1,), (1, 2), (1, -1)])
    with pytest.raises(InputError, match="^column 1 has 1 row indices but 2 values$"):
        StandardFormLP(**arrays)


def test_lp_accepts_empty_and_full_columns():
    lp = StandardFormLP(2, [(0,), (), (0, 1)], [(1,), (), (1, -1)], [1, 0, 0])
    assert (lp.longest, lp.largest) == (2, 1)
    assert solve_standard_form(lp, crash=[(0, 0)]).status == "optimal"


# max v s.t. v = 1; an LP whose column 0 has no entry in row 1; and one whose
# only column, pivoted in on row 0, leaves row 1's artificial at value 1.
ONE_ROW = dict(nrows=1, cols_idx=[(0,)], cols_val=[(1,)], cobj=[1])
ZERO_IN_ROW_1 = dict(nrows=2, cols_idx=[(0,), (0, 1)], cols_val=[(1,), (1, 1)],
                     cobj=[1, 1])
ROW_1_UNCOVERED = dict(nrows=2, cols_idx=[(0, 1)], cols_val=[(1, -1)], cobj=[1])


@pytest.mark.parametrize("arrays, crash, message", [
    (hand_lp_arrays(), [(2, 0)], "crash pivot on a non-structural column"),
    (hand_lp_arrays(), [(-1, 0)], "crash pivot on a non-structural column"),
    (ZERO_IN_ROW_1, [(0, 1)], "crash pivot hits a zero tableau entry"),
    (hand_lp_arrays(), [(1, 1), (0, 1)], "crash pivot would evict a structural column"),
    (dict(ONE_ROW, cols_val=[(-1,)]), [(0, 0)], "crash basis is not feasible"),
    (ONE_ROW, [], "row 0 has a nonzero basic value but no crash pivot covers it"),
    (ROW_1_UNCOVERED, [(0, 0)],
     "row 1 has a nonzero basic value but no crash pivot covers it"),
    (ZERO_IN_ROW_1, [(0, 2)], "crash pivot (0, 2): the row must be an int within 0..1"),
    (ZERO_IN_ROW_1, [(1, -1)], "crash pivot (1, -1): the row must be an int within 0..1"),
    (ZERO_IN_ROW_1, [(1, True)], "crash pivot (1, True): the row must be an int within 0..1"),
], ids=["past-the-end", "negative", "zero-entry", "evicts", "infeasible", "uncovered",
        "uncovered-row-1", "row-past-the-end", "row-negative", "row-bool"])
def test_crash_refusals(arrays, crash, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        solve_standard_form(StandardFormLP(**arrays), crash=crash)


def test_solver_leaves_lp_data_unchanged():
    for lp, crash in [(StandardFormLP(**hand_lp_arrays()), [(1, 1), (0, 0)])] + [
            (p.lp, p.crash) for p in (build_problem(cycle_instance(5)),
                                      build_problem(to_index_coding(fano())))]:
        before = (list(lp.cobj), list(lp.cols_val), list(lp.cols_idx))
        res = solve_standard_form(lp, crash=crash)
        assert res.status == "optimal"
        assert (lp.cobj, lp.cols_val, lp.cols_idx) == before
        assert solve_standard_form(lp, crash=crash) == res


def record_pivots(monkeypatch):
    """Wrap kernels.pivot_update; returns the lists of pivot entries it is
    called on and of denominators it returns, filled as the solver runs."""
    pivots, dens = [], []
    pivot_update = kernels.pivot_update

    def recording(adj, packed_d, r, *rest):
        pivots.append(adj.entry(packed_d, r))
        dens.append(pivot_update(adj, packed_d, r, *rest))
        return dens[-1]

    monkeypatch.setattr(kernels, "pivot_update", recording)
    return pivots, dens


def test_solver_with_negative_denominator(monkeypatch):
    # max a + 3b + 3c subject to a + c = 1, -a + b + d = 0, -a + b = 0. The
    # first crash pivot is on the -1 entry of a, so the basis determinant
    # is -1 from the start; the solver keeps the denominator at +1 instead.
    lp = StandardFormLP(
        nrows=3,
        cols_idx=[(0, 1, 2), (1, 2), (0,), (1,)],
        cols_val=[(1, -1, -1), (1, 1), (1,), (1,)],
        cobj=[1, 3, 3, 0],
    )
    crash = [(0, 1), (2, 0)]
    pivots, dens = record_pivots(monkeypatch)
    res = solve_standard_form(lp, crash=crash)
    assert pivots[0] == -1
    assert min(dens) > 0
    assert res.status == "optimal" and res.iterations >= 1
    assert res.objective == rat(4)
    assert res.x == [ONE, ONE, ZERO, ZERO]
    assert_same_as_fraction_simplex(lp, crash)


def assert_same_as_fraction_simplex(lp, crash):
    res = solve_standard_form(lp, crash=crash)
    status, objective, x, y, iterations = fraction_simplex(lp, crash)
    assert (res.status, res.iterations) == (status, iterations)
    assert res.objective == objective
    assert res.x == x
    assert res.y == y
    return res


def random_receivers(rng, n, kind):
    """Receivers (want, knows) of a random graph, digraph or hypergraph instance."""
    density = rng.uniform(0.25, 0.6)
    if kind == "graph":
        edges = [(i, j) for i, j in itertools.combinations(range(n), 2)
                 if rng.random() < density]
        return list(from_graph(range(n), edges).receivers)
    recs = []
    for w in range(n):
        for _ in range(1 if kind == "digraph" else rng.randint(1, 2)):
            recs.append((w, sum(1 << j for j in range(n) if j != w and rng.random() < density)))
    return recs


def differential_instances():
    insts = [cycle_instance(k) for k in (3, 4, 5)]
    rng = random.Random(11082489)
    kinds = ("graph", "digraph", "hypergraph")
    for k in range(30):
        n = 3 + k % 3
        gs = GroundSet([str(i) for i in range(n)])
        insts.append(IndexCodingInstance(gs, random_receivers(rng, n, kinds[k // 3 % 3])))
    gs6 = GroundSet([str(i) for i in range(6)])
    insts.append(IndexCodingInstance(gs6, random_receivers(rng, 6, "digraph")))
    insts.append(IndexCodingInstance(gs6, random_receivers(rng, 6, "hypergraph")))
    return insts


def test_solver_matches_fraction_simplex():
    for inst in differential_instances():
        prob = build_problem(inst)
        assert_same_as_fraction_simplex(prob.lp, prob.crash)


def random_e0_lp(rng, rows=(2, 6), bound=2):
    """A random LP of the solver's shape that is not a bound LP: rows rows
    (a range), entries in -bound..bound, costs in -3..3. Column 0 touches
    only row 0, with a positive entry, so the crash [(0, 0)] covers the
    right-hand side e_0."""
    m = rng.randint(*rows)
    cols_idx, cols_val = [(0,)], [(rng.randint(1, bound),)]
    for _ in range(rng.randint(m, 2 * m + 2)):
        col = [rng.randint(-bound, bound) for _ in range(m)]
        idx = tuple(i for i in range(m) if col[i])
        cols_idx.append(idx)
        cols_val.append(tuple(col[i] for i in idx))
    cobj = [rng.randint(-3, 3) for _ in cols_idx]
    return StandardFormLP(m, cols_idx, cols_val, cobj)


def sparse_e0_lp(rng, rows):
    """Like random_e0_lp, but 30 columns of three entries each in -2..2, so
    that LPs of many rows solve in a few dozen pivots."""
    m = rng.randint(*rows)
    cols_idx, cols_val = [(0,)], [(rng.randint(1, 2),)]
    for _ in range(30):
        cols_idx.append(tuple(sorted(rng.sample(range(m), 3))))
        cols_val.append(tuple(rng.choice((-2, -1, 1, 2)) for _ in range(3)))
    cobj = [rng.randint(-3, 3) for _ in cols_idx]
    return StandardFormLP(m, cols_idx, cols_val, cobj)


def record_adjugates(monkeypatch):
    """Wrap kernels.Adjugate; returns the list of adjugates the solver
    makes, each with `widths`, the field widths it started at and was
    widened to, in order."""
    made = []

    class Recording(kernels.Adjugate):
        def __init__(self, m, cap_square):
            super().__init__(m, cap_square)
            self.widths = [self.width]
            made.append(self)

        def make_room(self, reach):
            super().make_room(reach)
            if self.width != self.widths[-1]:
                self.widths.append(self.width)

    monkeypatch.setattr(kernels, "Adjugate", Recording)
    return made


def test_solver_matches_fraction_simplex_on_random_lps(monkeypatch):
    pivots, dens = record_pivots(monkeypatch)
    made = record_adjugates(monkeypatch)
    rng = random.Random(2489)
    statuses = set()
    for _ in range(200):
        statuses.add(assert_same_as_fraction_simplex(random_e0_lp(rng), [(0, 0)]).status)
    # the series reaches both outcomes and negative pivot entries, yet the
    # denominator stays positive; 2-6 rows of entries in -2..2 prove 16 bits
    assert statuses == {"optimal", "unbounded"}
    assert min(pivots) < 0
    assert min(dens) > 0
    assert {(adj.widths[0], adj.capped) for adj in made} == {(16, True)}


@pytest.mark.parametrize("rows, count, starts", [
    ((8, 8), 20, {24}),
    ((10, 11), 30, {32}),
    ((13, 18), 10, {40, 48, 56}),
    ((19, 19), 6, {64}),
], ids=["24-capped", "32-capped", "40-to-56-capped", "64-capped"])
def test_solver_matches_fraction_simplex_from_wider_capped_starts(monkeypatch, rows, count,
                                                                  starts):
    # entries in -2..2: the rows and the longest column set the Hadamard
    # bound, and with it the whole-byte width the adjugate starts at (2-6
    # rows start at 16 bits capped, 20 and more at 16 bits with bounds: see
    # the neighbouring tests)
    made = record_adjugates(monkeypatch)
    rng = random.Random(1108 + rows[0])
    statuses = set()
    for _ in range(count):
        statuses.add(assert_same_as_fraction_simplex(random_e0_lp(rng, rows), [(0, 0)]).status)
    assert "optimal" in statuses
    assert {(adj.widths[0], adj.capped) for adj in made} == {(w, True) for w in starts}


def test_solver_widens_from_16_bits_through_every_width(monkeypatch):
    # coefficients up to 2^20 on 3-6 rows: no width is proven, and the
    # entries outgrow one whole-byte width after another, the strided reads
    # of 24, 40 and 48 bits and the `int.from_bytes` reads past 64 included
    made = record_adjugates(monkeypatch)
    rng = random.Random(24890)
    for _ in range(30):
        assert_same_as_fraction_simplex(random_e0_lp(rng, (3, 6), 1 << 20), [(0, 0)])
    ladders = [adj.widths for adj in made if not adj.capped]
    assert [16, 24, 48, 64, 88, 104, 112, 128] in ladders
    assert {24, 40, 48} <= {w for ladder in ladders for w in ladder}
    assert all(ladder[0] == 16 and all(b > a and b % 8 == 0 for a, b in zip(ladder, ladder[1:]))
               for ladder in ladders)


EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def test_cycle_bound_lps_keep_their_path_at_every_start(monkeypatch):
    # C3-C5 start capped at 16, 24 and 40 bits, C6 and C7 at 16 bits with
    # bounds; b is the known value and the iterations are the benchmark's
    # references where it has them
    fixed = json.loads(EXPECTED.read_text())["fixed"]
    assert {"C3", "C4", "C5", "C7"} <= fixed.keys()
    made = record_adjugates(monkeypatch)
    for n, b, start in [(3, "1", (16, True)), (4, "2", (24, True)), (5, "5/2", (40, True)),
                        (6, "3", (16, False)), (7, "7/2", (16, False))]:
        sol = solve_problem(build_problem(cycle_instance(n)))
        assert (made[-1].widths[0], made[-1].capped) == start
        assert rat_str(sol.value) == b
        ref = fixed.get(f"C{n}")
        if ref:
            assert (b, sol.iterations) == (ref["b"], ref["iterations"])


def test_solver_matches_fraction_simplex_on_tall_lps(monkeypatch):
    # 20-40 rows: the adjugate's columns hold that many fields, which start
    # at 16 bits with bounds, as no width up to 64 is proven
    made = record_adjugates(monkeypatch)
    rng = random.Random(1108)
    statuses = set()
    for _ in range(6):
        res = assert_same_as_fraction_simplex(random_e0_lp(rng, (20, 40)), [(0, 0)])
        statuses.add(res.status)
    assert "optimal" in statuses
    assert {(adj.widths[0], adj.capped) for adj in made} == {(16, False)}


def test_solver_matches_fraction_simplex_on_both_sides_of_packed_pricing():
    # 60-70 rows: LPs of up to 64 rows are priced from packed rows, taller
    # ones entry by entry
    rng = random.Random(6465)
    tall = set()
    for _ in range(12):
        lp = sparse_e0_lp(rng, (60, 70))
        assert_same_as_fraction_simplex(lp, [(0, 0)])
        tall.add(lp.nrows > kernels._PACKED_PRICING_ROWS)
    assert tall == {False, True}


def test_solver_widens_its_fields_on_wide_lps():
    # coefficients up to 2^40 on 3-6 rows: adjugate entries pass 2^63
    rng = random.Random(24890)
    statuses = set()
    widenings = 0
    for _ in range(60):
        res = assert_same_as_fraction_simplex(random_e0_lp(rng, (3, 6), 1 << 40), [(0, 0)])
        statuses.add(res.status)
        widenings += res.stats.widenings
    assert statuses == {"optimal", "unbounded"}
    assert widenings > 0


def test_entry_bound_holds_after_every_kernel_call(monkeypatch):
    # an adjugate that is not capped keeps `bound` on every |entry| of B,
    # below H, through every FTRAN and Bareiss step, widenings included
    checked = []

    def checking(kernel):
        def call(adj, *args):
            out = kernel(adj, *args)
            if not adj.capped:
                assert max(max(map(abs, adj.unpack(q))) for q in adj.cols) <= adj.bound < adj.half
                checked.append(kernel.__name__)
            return out
        return call

    for name in ("ftran_sparse", "pivot_update"):
        monkeypatch.setattr(kernels, name, checking(getattr(kernels, name)))
    tall, wide = random.Random(1108), random.Random(24890)
    lps = [random_e0_lp(tall, (20, 40)) for _ in range(6)]
    lps += [random_e0_lp(wide, (3, 6), 1 << 20) for _ in range(30)]
    stats = [solve_standard_form(lp, crash=[(0, 0)]).stats for lp in lps]
    stats += [solve_problem(build_problem(cycle_instance(n))).stats for n in (6, 7)]
    assert set(checked) == {"ftran_sparse", "pivot_update"}
    assert sum(s.widenings for s in stats) > 0 and sum(s.tightenings for s in stats) > 0


@pytest.mark.parametrize("make, stats", [
    (lambda: build_problem(cycle_instance(5)),
     SolveStats(iterations=50, degenerate=48, forced_exits=26, rescaling=7,
                width=40, den_bits=3)),
    (lambda: build_problem(cycle_instance(7)),
     SolveStats(iterations=490, degenerate=487, forced_exits=120, rescaling=79,
                tightenings=5, width=16, den_bits=6)),
    (lambda: build_problem(to_index_coding(nonfano()), schema_with_submod("odd")),
     SolveStats(iterations=440, degenerate=440, forced_exits=120, rescaling=165,
                widenings=1, tightenings=6, width=24, den_bits=14)),
], ids=["C5", "C7", "nonfano-odd"])
def test_solve_stats_pin_the_pivot_path(make, stats):
    # iterations, degenerate and forced_exits follow the pivot path alone,
    # so an arithmetic-only change to the solver leaves them as they are;
    # rescaling and den_bits count the work of the pivots on that path.
    # C5's Hadamard bound proves 40-bit fields, so they are capped there;
    # the 128-row LPs start at 16 bits, where C7 stays through five exact
    # recomputations of its entry bound; non-Fano, with six, widens once,
    # by a byte, to 24 bits.
    sol = solve_problem(make())
    assert sol.stats == stats
    assert sol.iterations == stats.iterations


def test_full_c8_widens_its_256_rows_and_keeps_its_path():
    # the only bound LP of 256 rows solved here: from 16 bits it widens four
    # times, a byte or more at a time, to 48 bits
    sol = solve_problem(build_problem(cycle_instance(8)))
    assert rat_str(sol.value) == "4"
    assert sol.stats == SolveStats(iterations=2203, degenerate=1866, forced_exits=247,
                                   rescaling=997, widenings=4, tightenings=33, width=48,
                                   den_bits=28)


def test_solver_requires_covering_crash():
    lp = StandardFormLP(
        nrows=1,
        cols_idx=[(0,)],
        cols_val=[(1,)],
        cobj=[1],
    )
    with pytest.raises(InputError):
        solve_standard_form(lp)  # row 0 has basic value 1 and no crash pivot
    res = solve_standard_form(lp, crash=[(0, 0)])
    assert res.status == "optimal" and res.objective == ONE


def test_solver_detects_unbounded():
    # a - b = 1 with both rewarded: the ray a = 1 + t, b = t grows forever
    lp = StandardFormLP(
        nrows=1,
        cols_idx=[(0,), (0,)],
        cols_val=[(1,), (-1,)],
        cobj=[1, 1],
    )
    res = solve_standard_form(lp, crash=[(0, 0)])
    assert res.status == "unbounded"


def test_problem_shape_counts():
    p5 = build_problem(cycle_instance(5))
    assert p5.lp.nrows == 32
    assert p5.dec_count == 80
    assert len(p5.schema_rows) == 80
    pf = build_problem(to_index_coding(fano()))
    assert pf.lp.nrows == 128
    assert pf.dec_count == 448
    assert len(pf.schema_rows) == 672


def test_degenerate_schema_rows_dropped():
    class WithJunk(SubmodSchema):
        def rows(self, gs):
            yield SubmodRow(0b001, 0b011)  # nested pair, zero row
            yield from super().rows(gs)

    inst = from_graph([1, 2, 3], [(1, 2)])
    prob = build_problem(inst, WithJunk())
    assert len(prob.schema_rows) == 3 * 2  # junk row was dropped
    assert lp_bound(inst, WithJunk()) == lp_bound(inst)


def graph_instances_upto_3():
    out = []
    for nv in (1, 2, 3):
        pairs = list(itertools.combinations(range(nv), 2))
        for pick in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if pick >> i & 1]
            out.append(from_graph(list(range(nv)), edges))
    return out


def test_bound_matches_elimination_oracle_on_small_graphs():
    for inst in graph_instances_upto_3():
        expect = fm_bound(inst.n, list(inst.receivers))
        assert to_fraction(lp_bound(inst)) == expect


def test_bound_matches_elimination_oracle_on_hypergraph_receivers():
    gs = GroundSet(["a", "b", "c"])
    cases = [
        [(0, 0b110), (1, 0b001), (2, 0b011)],
        [(0, 0b110), (1, 0b101), (2, 0b011)],
        [(0, 0b110), (1, 0b001), (2, 0b011), (0, 0b010)],
    ]
    for receivers in cases:
        inst = IndexCodingInstance(gs, receivers)
        expect = fm_bound(3, list(inst.receivers))
        assert to_fraction(lp_bound(inst)) == expect


def test_named_values():
    assert lp_bound(cycle_instance(5)) == rat("5/2")
    assert lp_bound(from_graph([1, 2, 3], [])) == rat(3)
    assert lp_bound(from_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])) == rat(1)
    single = IndexCodingInstance(GroundSet(["v"]), [(0, 0)])
    assert lp_bound(single) == rat(1)


def all_pairs_bound(inst):
    """Same dual LP but with every nested pair, not just single steps."""
    n = inst.n
    nrows = 1 << n
    cols_idx, cols_val, cobj = [], [], []
    empty_to_full = None
    for s in range(nrows):
        cl = inst.closure(s)
        sup = (nrows - 1) & ~s
        t = sup
        while t:
            if s == 0 and s | t == nrows - 1:
                empty_to_full = len(cols_idx)
            cols_idx.append((s, s | t))
            cols_val.append((1, -1))
            cobj.append(-popcount((s | t) & ~cl & ~s))
            t = (t - 1) & sup
    schema = SubmodSchema()
    for row in schema.rows(inst.messages):
        items = sorted(schema.row_vector(row, inst.messages).items())
        cols_idx.append(tuple(k for k, _ in items))
        cols_val.append(tuple(int(v) for _, v in items))
        cobj.append(0)
    full = nrows - 1
    w_plus = len(cols_idx)
    cols_idx += [(full,), (full,)]
    cols_val += [(1,), (-1,)]
    cobj += [n, -n]
    lp = StandardFormLP(nrows, cols_idx, cols_val, cobj)
    res = solve_standard_form(lp, crash=[(empty_to_full, 0), (w_plus, full)])
    assert res.status == "optimal"
    return res.objective


def test_single_step_family_loses_nothing():
    insts = graph_instances_upto_3()
    pairs4 = list(itertools.combinations(range(4), 2))
    for pick in range(1 << 6):
        edges = [pairs4[i] for i in range(6) if pick >> i & 1]
        insts.append(from_graph(list(range(4)), edges))
    for inst in insts:
        assert lp_bound(inst) == all_pairs_bound(inst)


def test_strong_duality_and_forced_w():
    for inst in (cycle_instance(5), to_index_coding(fano())):
        problem = build_problem(inst)
        res = solve_standard_form(problem.lp, crash=problem.crash)
        assert res.x[problem.w_plus] == ONE
        sol = solve_problem(problem)
        assert sol.z[0] == sol.value
        assert sol.z[inst.messages.full_mask] == rat(inst.n)
        z = [to_fraction(sol.z[s]) for s in range(1 << inst.n)]
        assert entropy_feasible(inst.n, list(inst.receivers), z)
        # explicit strong duality: objective equals the dual mass y_0
        assert all(v >= ZERO for v in sol.cert.x.values())
        assert all(v >= ZERO for v in sol.cert.y.values())


def test_matroid_lp_value_every_rank_function_up_to_4():
    for n in (1, 2, 3, 4):
        gs = GroundSet([str(i) for i in range(n)])
        for ranks in all_rank_functions(n):
            m = Matroid(gs, ranks)
            inst = to_index_coding(m)
            if not inst.receivers:
                continue  # free matroid: no decodable element anywhere
            assert lp_bound(inst) == rat(n - m.full_rank)


def test_matroid_lp_value_free_matroid():
    # no receivers at all still yields a well-posed LP pinned at 0
    inst = to_index_coding(uniform(3, 3))
    assert lp_bound(inst) == ZERO


def test_matroid_lp_value_uniform():
    for n in range(1, 7):
        for k in range(n + 1):
            inst = to_index_coding(uniform(k, n))
            assert lp_bound(inst) == rat(n - k)


def graphic_matroid(nv, edges):
    gs = GroundSet([f"{u}-{v}" for u, v in edges])
    ranks = [graphic_rank(nv, edges, s) for s in range(1 << len(edges))]
    return Matroid(gs, ranks)


def test_matroid_lp_value_graphic():
    pairs4 = list(itertools.combinations(range(4), 2))
    for pick in range(1, 1 << 6):
        edges = [pairs4[i] for i in range(6) if pick >> i & 1]
        m = graphic_matroid(4, edges)
        inst = to_index_coding(m)
        if not inst.receivers:
            continue  # forests have nothing to decode
        assert lp_bound(inst) == rat(len(edges) - m.full_rank)
    # one 5-vertex case with 7 edges: K4 plus a pendant edge
    edges = pairs4 + [(0, 4)]
    m = graphic_matroid(5, edges)
    assert lp_bound(to_index_coding(m)) == rat(7 - m.full_rank)


def test_schema_rows_never_hurt():
    for inst in (cycle_instance(5), to_index_coding(fano()),
                 to_index_coding(nonfano())):
        base = lp_bound(inst)
        for parity in ("even", "odd"):
            assert lp_bound(inst, schema_with_submod(parity)) >= base


def test_fano_separation_direction():
    fano_odd = lp_bound(to_index_coding(fano()), schema_with_submod("odd"))
    nonfano_even = lp_bound(to_index_coding(nonfano()), schema_with_submod("even"))
    assert fano_odd > rat(4)
    assert nonfano_even > rat(4)
