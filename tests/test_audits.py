"""The checks of an LP optimum: every check of the two audits fires on a
broken optimum, the simplex audit agrees with a Fraction reference, and
`solve_problem` refuses a certificate that `verify_certificate` refuses. The
subset vectors and LP data are ints while every result handed back is a
Fraction. A schema row that is not integral is refused when its vector is
built, and one that does not sum to zero before the LP is built."""

import dataclasses
import random
import re
from fractions import Fraction

import pytest

from icbound import lp as lp_module
from icbound import simplex
from icbound.certificate import DualCertificate
from icbound.errors import InputError, VerificationError
from icbound.groundset import GroundSet, SetVector
from icbound.instance import IndexCodingInstance, cycle_instance
from icbound.lincode import ScalarLinearCode, code_entropy_vector
from icbound.lp import build_problem, solve_problem
from icbound.matroid import fano, nonfano, to_index_coding
from icbound.rational import ONE, ZERO, rat
from icbound.schema import HomExtSchema, SubmodRow, SubmodSchema, UnionSchema
from icbound.simplex import SimplexResult, SolveStats, StandardFormLP, solve_standard_form
from icbound.tighten import dimension_vector, fano_alpha, schema_with_submod

from lemmas import random_subspace_tuple
from oracles import fraction_audit
from test_simplex_lp import differential_instances, hand_lp_arrays, lp_bound

HALF = rat("1/2")


def simplex_audit_message(lp, x, y):
    """None if simplex._audit accepts (x, y), else its VerificationError text."""
    try:
        simplex._audit(lp, x, y)
    except VerificationError as err:
        return str(err)
    return None


def instance_audit_message(problem, sol, w=ONE, **changes):
    """The same for lp._audit_against_instance on sol with fields replaced."""
    try:
        lp_module._audit_against_instance(problem, dataclasses.replace(sol, **changes), w)
    except VerificationError as err:
        return str(err)
    return None


def hand_lps():
    """(lp, crash) pairs: max 3a + 2b s.t. a + b = 1, a - b = 0. The same
    arrays with row 0's entries halved and the costs over 3 are refused, not
    rescaled."""
    with pytest.raises(InputError, match=re.escape(
            "cols_val at column 0 holds Fraction 1/2; scale that row to integers")):
        StandardFormLP(2, [(0, 1), (0, 1)], [(HALF, 1), (HALF, -1)],
                       [1, rat("2/3")])
    return [(StandardFormLP(**hand_lp_arrays()), [(1, 1), (0, 0)])]


def test_fractional_schema_row_is_refused():
    # A generating row with coefficient 1/2 is refused where its vector is
    # built, so it never reaches a schema, let alone the LP.
    gen = GroundSet(["u", "v", "w"])
    alpha = SetVector(gen, {0b001: 1, 0b010: 1, 0b011: -1, 0b000: -1})
    inst = IndexCodingInstance(gen, [(0, 0b010), (1, 0b100), (2, 0b001)])
    whole = build_problem(inst, HomExtSchema("whole", gen, alpha, "w"))
    assert len(whole.schema_rows) == 1
    assert solve_problem(whole).value == rat(2)
    with pytest.raises(InputError, match="^" + re.escape(
            "set vector entries must be ints: subset () holds Fraction -1/2") + "$"):
        SetVector(gen, {mask: v * HALF for mask, v in sorted(alpha.items())})
    # a row of 1/2 and -1/2 sums to an integer, and is still refused
    with pytest.raises(InputError, match="^" + re.escape(
            "set vector entries must be ints: subset ('u',) holds Fraction 1/2") + "$"):
        SetVector(gen, {0b001: HALF, 0b010: -HALF})

    # a schema that is not built on SetVector can still hand over Fractions;
    # the LP's own type check refuses them
    class Halves(SubmodSchema):
        def row_vector(self, row, gs):
            return {0b001: HALF, 0b010: -HALF}

    with pytest.raises(InputError, match="^" + re.escape(
            "LP data must be ints: cols_val at column 12 holds Fraction 1/2")):
        build_problem(inst, Halves())


def test_schema_row_must_sum_to_zero():
    # The lone schema's one row is e_{u}: it sums to 1, so it would not
    # vanish on z = n everywhere, and the scale multiplier would be free.
    gen = GroundSet(["u", "v"])
    lone = HomExtSchema("lone", gen, SetVector(gen, {0b01: 1}), "v")
    inst = IndexCodingInstance(gen, [(0, 0b10)])
    with pytest.raises(InputError, match="^" + re.escape(
            "schema 'lone' row 0: coefficients sum to 1, not 0") + "$"):
        build_problem(inst, lone)

    # the position counts every row the schema yields, zero rows included
    class JunkFirst(SubmodSchema):
        def rows(self, gs):
            yield SubmodRow(0b01, 0b11)  # nested pair, zero row
            yield from super().rows(gs)

    with pytest.raises(InputError, match="^" + re.escape(
            "schema 'submod+lone' row 2: coefficients sum to 1, not 0") + "$"):
        build_problem(inst, UnionSchema(JunkFirst(), lone))


def test_unbounded_solver_result_is_a_bug(monkeypatch):
    problem = build_problem(cycle_instance(4))
    monkeypatch.setattr(lp_module, "solve_standard_form",
                        lambda lp, crash: SimplexResult("unbounded", None, None, None,
                                                        SolveStats(iterations=3)))
    with pytest.raises(VerificationError, match=re.escape(
            "bound LP came back unbounded, yet z = n on every subset is feasible")):
        solve_problem(problem)


def test_forged_scale_multiplier_is_refused(monkeypatch):
    problem = build_problem(cycle_instance(4))

    def forged(lp, crash):
        res = solve_standard_form(lp, crash=crash)
        res.x[problem.w_plus] += 1
        return res

    monkeypatch.setattr(lp_module, "solve_standard_form", forged)
    with pytest.raises(VerificationError, match="^scale multiplier w = 2, not 1$"):
        solve_problem(problem)


def test_simplex_audit_fires_on_each_check():
    lp, crash = hand_lps()[0]
    res = solve_standard_form(lp, crash=crash)
    x, y = res.x, res.y
    assert (x, y) == ([HALF, HALF], [rat("5/2"), HALF])
    assert simplex_audit_message(lp, x, y) is None
    cases = [
        ([ONE, HALF], y, "audit: row 0 violated, 3/2 != 1"),
        ([HALF, -HALF], y, "negative primal value in audit"),
        (x, [rat(2), HALF], "audit: column 0 has positive reduced cost 1/2"),
        # y = (3, 0) is dual feasible but not optimal
        (x, [rat(3), ZERO], "audit: objective mismatch 5/2 != 3"),
    ]
    for bad_x, bad_y, message in cases:
        assert simplex_audit_message(lp, bad_x, bad_y) == message
        assert fraction_audit(lp, bad_x, bad_y) == message
        with pytest.raises(VerificationError, match=re.escape(message)):
            simplex._audit(lp, bad_x, bad_y)


def test_instance_audit_fires_on_each_check():
    problem = build_problem(cycle_instance(5))
    sol = solve_problem(problem)
    assert instance_audit_message(problem, sol) is None

    assert instance_audit_message(problem, sol, w=HALF) == "scale multiplier w = 1/2, not 1"
    z = dict(sol.z)
    z[problem.instance.messages.full_mask] = rat(6)
    assert instance_audit_message(problem, sol, z=z) == "full-set value is not pinned to n"
    assert (instance_audit_message(problem, sol, value=sol.value + 1)
            == "empty-set value disagrees with the LP objective")

    # Two messages, no receivers: every step costs 1 and the one schema row
    # is submodularity at {a}, {b}.
    pair_problem = build_problem(IndexCodingInstance(GroundSet(["a", "b"]), []))
    pair_sol = solve_problem(pair_problem)
    assert instance_audit_message(pair_problem, pair_sol) is None
    steep = {0: ZERO, 1: rat(2), 2: rat(2), 3: rat(2)}
    assert (instance_audit_message(pair_problem, pair_sol, z=steep, value=ZERO)
            == "solution violates the one-step decoding bound at ()+a")
    flat = {0: ONE, 1: ONE, 2: ONE, 3: rat(2)}
    assert (instance_audit_message(pair_problem, pair_sol, z=flat, value=ONE)
            == "solution violates submod row (('a',), ('b',))")
    with pytest.raises(VerificationError, match=re.escape("submod row (('a',), ('b',))")):
        lp_module._audit_against_instance(
            pair_problem, dataclasses.replace(pair_sol, z=flat, value=ONE), ONE)


def test_solve_problem_verifies_its_certificate(monkeypatch):
    # Schema rows read back in reverse pair each y weight with another row:
    # z and the value still pass the instance audit, the certificate does not.
    problem = build_problem(cycle_instance(5))
    backwards = dataclasses.replace(problem, schema_rows=problem.schema_rows[::-1])
    with pytest.raises(VerificationError, match="^" + re.escape(
            "extracted certificate: combination misses e_empty - e_full; "
            "first offender () with excess -1/2") + "$"):
        solve_problem(backwards)

    # A doubled x weight on a pair that decodes, once caught by a dual value
    # identity in the instance audit.
    def doubled(lp, crash):
        res = solve_standard_form(lp, crash=crash)
        col = next(c for c in range(problem.dec_count)
                   if res.x[c] and problem.instance.dst(*lp.cols_idx[c]))
        res.x[col] *= 2
        return res

    monkeypatch.setattr(lp_module, "solve_standard_form", doubled)
    with pytest.raises(VerificationError, match="^" + re.escape(
            "extracted certificate: combination misses e_empty - e_full; "
            "first offender (1, 4) with excess 1/2") + "$"):
        solve_problem(problem)


def test_instance_audit_names_a_homext_row_by_labels():
    # z = n - r + rank is feasible for the submodular LP of a matroid
    # instance, and the odd-characteristic row cuts Fano's rank vector.
    matroid = fano()
    problem = build_problem(to_index_coding(matroid), schema_with_submod("odd"))
    value = rat(matroid.n - matroid.full_rank)
    z = {s: value + r for s, r in enumerate(matroid.ranks)}
    cert = DualCertificate("submod+fano-odd")
    sol = lp_module.BoundSolution(value, z, cert, SolveStats())
    atoms = ", ".join(f"{lab!r} -> ({lab!r},)" for lab in matroid.gs.labels)
    assert instance_audit_message(problem, sol) == (
        f"solution violates right fano-odd row (base (), {atoms}, 'e' -> ())")


def perturbations(rng, x, y, count):
    """count copies of (x, y), each with one or two entries changed."""
    out = []
    for _ in range(count):
        bx, by = list(x), list(y)
        for _ in range(rng.randint(1, 2)):
            kind = rng.randrange(4)
            step = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            if kind == 0:
                j = rng.randrange(len(bx))
                bx[j] += step
            elif kind == 1:
                j = rng.choice([j for j in range(len(bx)) if bx[j]] or [0])
                bx[j] = -abs(step) if not bx[j] else -bx[j]
            elif kind == 2:
                i = rng.randrange(len(by))
                by[i] += step
            else:
                by[0] += abs(step)  # the right-hand side is e_0
        out.append((bx, by))
    return out


def test_simplex_audit_matches_fraction_audit():
    rng = random.Random(1108)
    cases = list(hand_lps())
    cases += [(p.lp, p.crash) for p in map(build_problem, differential_instances())]
    verdicts = set()
    for lp, crash in cases:
        res = solve_standard_form(lp, crash=crash)
        assert simplex_audit_message(lp, res.x, res.y) is None
        assert fraction_audit(lp, res.x, res.y) is None
        for x, y in perturbations(rng, res.x, res.y, 8):
            expect = fraction_audit(lp, x, y)
            assert simplex_audit_message(lp, x, y) == expect
            verdicts.add(expect.split(",")[0] if expect else None)
    # the perturbations reach every check and sometimes pass them all
    assert {None, "negative primal value in audit"} <= verdicts
    assert any(v and v.startswith("audit: row") for v in verdicts)
    assert any(v and "reduced cost" in v for v in verdicts)
    assert any(v and "objective mismatch" in v for v in verdicts)


def test_lp_data_are_int_and_results_are_fraction():
    for inst, schema in (
        (cycle_instance(5), None),
        (to_index_coding(fano()), None),
        (to_index_coding(fano()), schema_with_submod("odd")),
        (to_index_coding(nonfano()), schema_with_submod("even")),
    ):
        problem = build_problem(inst, schema)
        for row in problem.schema_rows:
            vec = problem.schema.row_vector(row, inst.messages)
            assert {type(v) for _, v in vec.items()} == {int}
        lp = problem.lp
        assert {type(v) for val in lp.cols_val for v in val} == {int}
        assert {type(c) for c in lp.cobj} == {int}
        res = solve_standard_form(lp, crash=problem.crash)
        assert type(res.objective) is Fraction
        assert {type(v) for v in res.x + res.y} == {Fraction}
        sol = solve_problem(problem)
        assert type(sol.value) is Fraction
        for weights in (sol.z, sol.cert.x, sol.cert.y):
            assert {type(v) for v in weights.values()} <= {Fraction}
        assert sol.z and sol.cert.x
    assert type(lp_bound(cycle_instance(5))) is Fraction
    vectors = [fano_alpha("even"), fano_alpha("odd"),
               dimension_vector(random_subspace_tuple(3, 4, 5, seed=7)),
               code_entropy_vector(cycle_instance(5), ScalarLinearCode(2, ((1, 1, 0, 1, 1),)))]
    for vec in vectors:
        assert {type(v) for _, v in vec.items()} == {int}
