"""Scalar linear codes: validity, minimum-length search, matroid duality,
and entropy vectors."""

import random
from fractions import Fraction

import pytest

from icbound.errors import InputError, ResourceCapError
from icbound.gf import rank
from icbound.groundset import GroundSet
from icbound.instance import IndexCodingInstance, cycle_instance, from_graph
from icbound.lincode import (ScalarLinearCode, code_entropy_vector,
                             is_valid_code, min_scalar_linear_rate,
                             underrep_check)
from icbound.matroid import (_FANO_LABELS, Matroid, fano, nonfano,
                             rank_from_matrix, to_index_coding)
from icbound.rational import rat
from icbound.tighten import fano_schema

import oracles
from lemmas import dot, nullspace

C5 = cycle_instance(5)
K2 = from_graph([1, 2], [(1, 2)])

# rows of the representing matrix: coordinate i of every label
FANO_ROWS = tuple(
    tuple(int(lab[i]) for lab in _FANO_LABELS) for i in range(3)
)

# partition {1,2} {3,4} {5}: each part broadcast as one sum
C5_CODE = ScalarLinearCode(
    2,
    (
        (1, 1, 0, 0, 0),
        (0, 0, 1, 1, 0),
        (0, 0, 0, 0, 1),
    ),
)


def to_fraction(v):
    return Fraction(int(v.numerator), int(v.denominator))


def identity_code(p, n):
    return ScalarLinearCode(p, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def test_code_constructor_guards():
    with pytest.raises(InputError):
        ScalarLinearCode(4, ((1, 0),))
    with pytest.raises(InputError):
        ScalarLinearCode(2, ((1, 0), (1,)))
    with pytest.raises(InputError):
        ScalarLinearCode(3, ((0, 4),))
    eye = identity_code(3, 4)
    assert eye.length == 4 and eye.n == 4 and rank([list(r) for r in eye.matrix], 3) == 4
    empty = ScalarLinearCode(2, ())
    assert empty.length == 0 and empty.n == 0


def test_validity_matches_brute_force_decoding():
    rng = random.Random(7)
    for trial in range(60):
        nv = rng.randint(2, 4)
        verts = list(range(1, nv + 1))
        edges = [e for e in
                 [(a, b) for a in verts for b in verts if a < b]
                 if rng.random() < 0.6]
        inst = from_graph(verts, edges)
        p = rng.choice((2, 3))
        length = rng.randint(0, nv)
        rows = tuple(
            tuple(rng.randrange(p) for _ in range(nv)) for _ in range(length)
        )
        code = ScalarLinearCode(p, rows)
        assert is_valid_code(inst, code) == oracles.brute_decodes(
            inst.n, list(inst.receivers), p, [list(r) for r in rows]
        )
    # not from a graph: up to three receivers per message, each knowing a
    # random subset of the others, so side information is asymmetric
    seen = set()
    for trial in range(120):
        n = rng.randint(2, 4)
        receivers = [(w, rng.randrange(1 << n) & ~(1 << w))
                     for w in range(n) for _ in range(rng.randint(1, 3))]
        inst = IndexCodingInstance(GroundSet(range(n)), receivers)
        p = rng.choice((2, 3, 5))
        rows = tuple(tuple(rng.randrange(p) for _ in range(n))
                     for _ in range(rng.randint(0, n)))
        valid = is_valid_code(inst, ScalarLinearCode(p, rows))
        assert valid == oracles.brute_decodes(
            n, list(inst.receivers), p, [list(r) for r in rows])
        seen.add((p, valid))
    assert seen == {(p, v) for p in (2, 3, 5) for v in (False, True)}


def test_c5_partition_code_is_optimal():
    assert is_valid_code(C5, C5_CODE)
    assert min_scalar_linear_rate(C5, 2) == 3
    assert min_scalar_linear_rate(C5, 2, l_max=2) is None


def test_search_values_small_graphs():
    assert min_scalar_linear_rate(from_graph([1], []), 2) == 1
    triangle = from_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert min_scalar_linear_rate(triangle, 2) == 1
    assert min_scalar_linear_rate(triangle, 3) == 1
    lonely = from_graph([1, 2, 3], [])
    assert min_scalar_linear_rate(lonely, 2) == 3


def test_search_caps():
    with pytest.raises(ResourceCapError) as err:
        min_scalar_linear_rate(to_index_coding(fano()), 2)
    assert str(err.value) == (
        "exhaustive search supports only n <= 5 over GF(2), n <= 4 over GF(3); "
        "got n = 7 over GF(2)"
    )
    with pytest.raises(ResourceCapError):
        min_scalar_linear_rate(C5, 3)  # n = 5 over GF(3) is past the cap
    with pytest.raises(ResourceCapError):
        min_scalar_linear_rate(K2, 5)  # no cap entry at all for GF(5)


def test_rate_equals_matroid_duality_complement():
    """Minimum code length is n minus the largest under-representation."""
    for n in range(1, 5):
        gs = GroundSet([str(i) for i in range(n)])
        for ranks in oracles.all_rank_functions(n):
            m = Matroid(gs, ranks)
            inst = to_index_coding(m)
            lam = min_scalar_linear_rate(inst, 2)
            d_max = max(
                d
                for d in range(n + 1)
                if any(underrep_check(m, rows, 2)
                       for rows in oracles.rref_spaces(2, d, n))
            )
            assert lam == n - d_max, (n, ranks)


def underrep_code(matroid, rows, p):
    """An under-representation's null-space basis, as a code of length
    n - d that decodes the matroid's instance."""
    assert underrep_check(matroid, rows, p)
    basis = nullspace([list(r) for r in rows], p, matroid.n)
    code = ScalarLinearCode(p, tuple(tuple(v) for v in basis))
    assert is_valid_code(to_index_coding(matroid), code)
    return code


def test_fano_underrep_roundtrip():
    assert underrep_check(fano(), FANO_ROWS, 2)
    code = underrep_code(fano(), FANO_ROWS, 2)
    assert code.length == 4 and code.n == 7 and code.p == 2
    assert is_valid_code(to_index_coding(fano()), code)
    back = nullspace([list(r) for r in code.matrix], 2, 7)
    assert underrep_check(fano(), back, 2)
    # same row space as the matrix we started from
    stacked = [list(r) for r in FANO_ROWS] + [list(r) for r in back]
    assert len(back) == 3 and rank(stacked, 2) == 3

    assert underrep_check(nonfano(), FANO_ROWS, 3)
    code3 = underrep_code(nonfano(), FANO_ROWS, 3)
    assert code3.length == 4 and code3.p == 3
    assert is_valid_code(to_index_coding(nonfano()), code3)


def test_underrep_rejects_mismatched_characteristic():
    # the three-point line {110,101,011} is dependent in the fano matroid
    # but its columns are independent mod 3, and vice versa for the nonfano
    assert not underrep_check(fano(), FANO_ROWS, 3)
    assert not underrep_check(nonfano(), FANO_ROWS, 2)


def test_underrep_check_guards():
    with pytest.raises(InputError):
        underrep_check(fano(), ((1, 0, 0),), 2)
    with pytest.raises(InputError):
        underrep_check(fano(), FANO_ROWS, 4)
    assert not underrep_check(fano(), (FANO_ROWS[0], FANO_ROWS[0]), 2)


def perturbed_column(rng, rows, p):
    j = rng.randrange(len(rows[0]))
    i = rng.randrange(len(rows))
    out = [list(r) for r in rows]
    out[i][j] = (out[i][j] + rng.randrange(1, p)) % p
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_underrep_check_matches_full_oracle(p):
    """The independent-set scan agrees with the every-(S, x) definition, on
    matrices that under-represent (the representation itself and row
    subspaces of it) and on ones that do not (rank-deficient rows, a
    perturbed column, an unrelated matrix)."""
    rng = random.Random(800 + p)
    outcomes = set()
    for _ in range(10):
        n = rng.randint(3, 7)
        d = rng.randint(1, 4)
        rep = [[rng.randrange(p) for _ in range(n)] for _ in range(d)]
        matroid = rank_from_matrix([str(j) for j in range(n)],
                                   [[row[j] for row in rep] for j in range(n)], p)
        mix = [[rng.randrange(p) for _ in range(d)] for _ in range(rng.randint(1, d))]
        sub = [[sum(c * row[j] for c, row in zip(m, rep)) % p for j in range(n)] for m in mix]
        candidates = [rep, sub, rep + rep[:1], perturbed_column(rng, rep, p),
                      [[rng.randrange(p) for _ in range(n)] for _ in range(d)]]
        for rows in candidates:
            got = underrep_check(matroid, rows, p)
            assert got == oracles.underrep_holds(matroid.ranks, n, rows, p), (rep, rows)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_underrep_check_matches_full_oracle_on_fano_pair():
    for matroid in (fano(), nonfano()):
        for p in (2, 3, 5):
            rows = [list(r) for r in FANO_ROWS]
            for candidate in (rows, rows[:2], [rows[0], rows[1], rows[0]]):
                assert underrep_check(matroid, candidate, p) == oracles.underrep_holds(
                    matroid.ranks, 7, candidate, p)


def test_every_valid_c5_code_entropy_is_lp_feasible():
    receivers = list(C5.receivers)
    shortest = None
    checked = 0
    for d in range(6):
        for rows in oracles.rref_spaces(2, d, 5):
            code = ScalarLinearCode(2, tuple(tuple(r) for r in rows))
            if not is_valid_code(C5, code):
                continue
            if shortest is None:
                shortest = d
            z = code_entropy_vector(C5, code)
            assert z.get(0) == rat(d)
            assert z.get(C5.messages.full_mask) == rat(5)
            dense = [to_fraction(z.get(s)) for s in range(32)]
            assert oracles.entropy_feasible(5, receivers, dense)
            checked += 1
    assert shortest == 3
    assert checked > 30


@pytest.mark.parametrize("p", [2, 3, 5])
def test_code_entropy_vector_matches_oracle(p):
    rng = random.Random(600 + p)
    n = 6
    inst = cycle_instance(n)
    codes = [(), ((0,) * n,), ((1,) + (0,) * (n - 1),) * 2]
    for _ in range(12):
        rows = [[rng.randrange(p) for _ in range(n)]
                for _ in range(rng.randint(1, n + 1))]
        if rng.random() < 0.5:
            rows.append([(a + 2 * b) % p for a, b in zip(rows[0], rows[-1])])
        if rng.random() < 0.5:
            zero = rng.randrange(n)
            rows = [r[:zero] + [0] + r[zero + 1:] for r in rows]
        codes.append(tuple(map(tuple, rows)))
    for rows in codes:
        z = code_entropy_vector(inst, ScalarLinearCode(p, rows))
        for s in range(1 << n):
            units = [[1 if j == i else 0 for j in range(n)]
                     for i in range(n) if s >> i & 1]
            assert z.get(s) == oracles.fp_rank([list(r) for r in rows] + units, p)


def extend_with_unit(code, column):
    """Add a zero column at the end plus one unit row selecting it."""
    width = code.n + 1
    rows = [r + (0,) for r in code.matrix]
    unit = tuple(1 if j == column else 0 for j in range(width))
    return ScalarLinearCode(code.p, tuple(rows) + (unit,))


def test_characteristic_schema_rows_on_code_entropy():
    rng = random.Random(11)
    for matroid, parity, p in ((fano(), "even", 2), (nonfano(), "odd", 3)):
        inst = to_index_coding(oracles.adjoin_zero(matroid, "e"))
        gs = inst.messages
        schema = fano_schema(parity)
        schema_rows = list(schema.rows(gs))
        # identity embedding; the adjoined element collapses to the empty set
        assert len(schema_rows) == 1
        vec = schema.row_vector(schema_rows[0], gs)

        codes = [identity_code(p, 8),
                 extend_with_unit(underrep_code(matroid, FANO_ROWS, p), 7)]
        while len(codes) < 8:
            rows = tuple(
                tuple(rng.randrange(p) for _ in range(8)) for _ in range(6)
            )
            candidate = ScalarLinearCode(p, rows)
            if is_valid_code(inst, candidate):
                codes.append(candidate)
        for code in codes:
            z = code_entropy_vector(inst, code)
            assert dot(vec, z) >= rat(0), (parity, code.matrix)


def test_entropy_vector_free_instance():
    inst = from_graph([1, 2], [(1, 2)])
    code = ScalarLinearCode(2, ((1, 1),))
    z = code_entropy_vector(inst, code)
    assert z.get(0) == rat(1)
    assert z.get(3) == rat(2)
    with pytest.raises(InputError):
        code_entropy_vector(C5, code)
