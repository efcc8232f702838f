"""Matroids: matrix ranks, axioms, the two seven-point builds, conversion."""

import random
import re
from fractions import Fraction

import pytest

from icbound.errors import InputError, ResourceCapError
from icbound.groundset import GroundSet, popcount
from icbound.matroid import Matroid, fano, nonfano, rank_from_matrix, to_index_coding

from lemmas import closure
from oracles import (adjoin_zero, all_rank_functions, axiom_failure, fp_rank, graphic_rank,
                     matroid_receivers)

FANO_COLS = [[int(c) for c in lab] for lab in
             ("100", "010", "001", "110", "101", "011", "111")]


def uniform(k, n):
    """The uniform matroid U(k, n): rank min(|S|, k) on elements e1..en."""
    gs = GroundSet([f"e{i + 1}" for i in range(n)])
    return Matroid(gs, [min(popcount(s), k) for s in range(1 << n)])


def column_submatrix(cols, mask):
    return [list(row) for row in zip(*(c for i, c in enumerate(cols)
                                       if mask >> i & 1))] if mask else []


@pytest.mark.parametrize("p,builder", [(2, fano), (3, nonfano)])
def test_matrix_ranks_match_elimination_oracle(p, builder):
    m = builder()
    for mask in range(1 << 7):
        sub = column_submatrix(FANO_COLS, mask)
        assert m.ranks[mask] == fp_rank(sub, p)


def test_characteristic_splits_the_triangle():
    tri = fano().gs.mask_of(["110", "101", "011"])
    assert fano().ranks[tri] == 2
    assert nonfano().ranks[tri] == 3
    # and over any odd prime the ranks agree with GF(3)
    m5 = rank_from_matrix(nonfano().gs.labels, FANO_COLS, 5)
    assert m5.ranks == nonfano().ranks


def test_identity_matrix_is_free():
    cols = [[1 if i == j else 0 for i in range(4)] for j in range(4)]
    m = rank_from_matrix(["a", "b", "c", "d"], cols, 2)
    assert all(m.ranks[s] == popcount(s) for s in range(16))


def test_rank_invariant_under_row_operations():
    # add row 0 into row 1 and scale row 2: the matroid cannot notice
    cols = [[c[0], (c[1] + c[0]) % 3, (2 * c[2]) % 3] for c in FANO_COLS]
    assert rank_from_matrix(nonfano().gs.labels, cols, 3) == nonfano()


def test_axioms_reject_bad_vectors():
    gs = GroundSet(["a", "b"])
    with pytest.raises(InputError):
        Matroid(gs, [1, 1, 1, 2])  # r(empty) != 0
    with pytest.raises(InputError):
        Matroid(gs, [0, 2, 1, 2])  # rank jump of 2
    with pytest.raises(InputError):
        # steps are all 0 or 1, yet two loops cannot span anything
        Matroid(gs, [0, 0, 0, 1])


@pytest.mark.parametrize("ranks, held", [
    ([0, Fraction(3, 2), 1.9, 1], "('a',) holds Fraction 3/2"),
    ([0, 1, 1.9, 1], "('b',) holds float 1.9"),
    ([0, True, True, True], "('a',) holds bool True"),
], ids=["Fraction", "float", "bool"])
def test_constructor_rejects_non_int_ranks(ranks, held):
    # int() would read each of these as (0, 1, 1, 1), a valid matroid
    with pytest.raises(InputError, match="^" + re.escape(
            f"matroid ranks must be ints: subset {held}") + "$"):
        Matroid(GroundSet(["a", "b"]), ranks)


def axiom_message(ranks):
    n = (len(ranks) - 1).bit_length()
    try:
        Matroid(GroundSet([f"e{i}" for i in range(n)]), ranks)
    except InputError as exc:
        return str(exc)
    return None


def test_packed_axioms_name_the_first_offender_of_the_loops():
    rng = random.Random(77)
    kinds = set()

    def check(ranks):
        message = axiom_message(ranks)
        assert message == axiom_failure((len(ranks) - 1).bit_length(), ranks), ranks
        kinds.add(re.sub(r"[0-9]+", "#", message or ""))

    for n in range(5):
        for ranks in all_rank_functions(n):
            assert axiom_message(list(ranks)) is None
            for shift in (-1, 1, n + 1, -(1 << 70)):
                bent = list(ranks)
                bent[rng.randrange(1 << n)] += shift
                check(bent)
            # two bends: several pairs can fail, at masks in either order
            bent = list(ranks)
            for mask in rng.sample(range(1, 1 << n), min(2, (1 << n) - 1)):
                bent[mask] += rng.choice((-1, 1))
            check(bent)
    for trial in range(40):
        p, n = rng.choice((2, 3, 5)), rng.randint(1, 12)
        dim = rng.randint(1, 4)
        cols = [[rng.randrange(p) for _ in range(dim)] for _ in range(n)]
        ranks = list(rank_from_matrix([f"e{i}" for i in range(n)], cols, p).ranks)
        check(ranks)
        for _ in range(rng.randint(1, 3)):
            ranks[rng.randrange(1, 1 << n)] += rng.choice((-2, -1, 1, 2, n + 3))
        check(ranks)
    assert kinds >= {"", "rank of the empty set must be #", "rank step # at mask # plus element #",
                     "rank step -# at mask # plus element #", "submodularity fails at masks #, #"}


def test_constructor_rejects_rank_drop():
    # r({a, c}) = 1 > r({a, b, c}) = 0; accepted, these ranks would make
    # to_index_coding keep receiver (c, {a, b}) though the empty set spans c
    with pytest.raises(InputError):
        Matroid(GroundSet(["a", "b", "c"]), [0, 0, 0, 0, 0, 1, 1, 0])


def test_constructor_checks_computed_ranks():
    gs = GroundSet(["a", "b", "c"])
    m = Matroid(gs, [min(popcount(s), 2) for s in range(8)])
    assert m.ranks == uniform(2, 3).ranks
    with pytest.raises(InputError):
        Matroid(gs, [popcount(s) % 2 for s in range(8)])


def test_graphic_rank_functions_are_matroids():
    rng = random.Random(5)
    for _ in range(10):
        nv = rng.randint(2, 5)
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
                 if rng.random() < 0.6]
        if not edges:
            continue
        gs = GroundSet([f"{u}-{v}" for u, v in edges])
        m = Matroid(gs, [graphic_rank(nv, edges, s) for s in range(1 << gs.n)])
        assert m.full_rank <= nv - 1


def test_closure_operator():
    m = fano()
    gs = m.gs
    pair = gs.mask_of(["100", "010"])
    assert closure(m, pair) == gs.mask_of(["100", "010", "110"])
    assert closure(m, 0) == 0  # no loops here
    line = gs.mask_of(["110", "101"])
    assert closure(m, line) == gs.mask_of(["110", "101", "011"])
    for s in range(0, 1 << 7, 5):
        cl = closure(m, s)
        assert cl & s == s
        assert m.ranks[cl] == m.ranks[s]


def test_adjoin_zero():
    m = adjoin_zero(fano(), "e")
    assert m.n == 8
    assert m.gs.labels[-1] == "e"
    e_bit = 1 << 7
    for s in range(1 << 7):
        assert m.ranks[s | e_bit] == fano().ranks[s]
    assert closure(m, 0) == e_bit  # the new element is a loop
    with pytest.raises(InputError):
        adjoin_zero(fano(), "111")  # label collision


def test_basis_intersection_empty():
    def no_coloops(m):
        """No element lies in every basis: dropping any one keeps full rank."""
        full = m.gs.full_mask
        return all(m.ranks[full & ~(1 << i)] == m.full_rank for i in range(m.n))

    assert no_coloops(fano())
    assert no_coloops(nonfano())
    assert no_coloops(uniform(2, 4))
    assert not no_coloops(uniform(3, 3))  # all coloops
    # one bridge in an otherwise parallel pair
    gs = GroundSet(["a", "b"])
    bridge = Matroid(gs, [0, 1, 1, 2])
    assert not no_coloops(bridge)


def test_to_index_coding_receiver_structure():
    inst = to_index_coding(fano())
    assert len(inst.receivers) == 49
    assert len(to_index_coding(nonfano()).receivers) == 62
    # every receiver decodes: the wanted element sits in the closure
    m = fano()
    for want, knows in inst.receivers:
        assert m.ranks[knows | 1 << want] == m.ranks[knows]
        # minimality: dropping any known element breaks the span
        for i in range(7):
            bit = 1 << i
            if knows & bit:
                smaller = knows & ~bit
                assert m.ranks[smaller | 1 << want] > m.ranks[smaller]
    full = to_index_coding(fano(), minimal=False)
    assert len(full.receivers) > 49
    for s in range(0, 1 << 7, 3):
        assert inst.closure(s) == full.closure(s)


def receiver_list(gs, pairs):
    """Stands in for IndexCodingInstance to see the receivers in the order
    to_index_coding lists them, before the instance sorts them."""
    return list(pairs)


def test_to_index_coding_matches_pairwise_filter(monkeypatch):
    rng = random.Random(23)
    gs = GroundSet(["a", "b", "c", "d"])
    matroids = [Matroid(gs, ranks) for ranks in all_rank_functions(4)]
    for p in (2, 3, 5):
        for _ in range(6):
            n = rng.randint(6, 8)
            height = rng.randint(1, 5)
            cols = [[rng.randrange(p) for _ in range(height)] for _ in range(n)]
            matroids.append(rank_from_matrix([f"e{i}" for i in range(n)], cols, p))
    for m in matroids:
        for minimal in (True, False):
            want = matroid_receivers(m.ranks, m.n, minimal)
            assert to_index_coding(m, minimal).receivers == tuple(sorted(want))
            with monkeypatch.context() as patch:
                patch.setattr("icbound.matroid.IndexCodingInstance", receiver_list)
                assert to_index_coding(m, minimal) == want, (m.ranks, minimal)


def test_to_index_coding_bitsets_at_the_edges(monkeypatch):
    # one element, a loop or not; nine columns over GF(3) with a zero and a
    # repeated column, so some receivers know nothing and some know one
    # element; the spanning sets are bits of 2^n-bit ints on either side
    rng = random.Random(9)
    cols = [[rng.randrange(3) for _ in range(4)] for _ in range(7)] + [[0] * 4]
    cols.append(cols[2][:])
    matroids = [Matroid(GroundSet(["a"]), ranks) for ranks in ([0, 0], [0, 1])]
    matroids.append(rank_from_matrix([f"e{i}" for i in range(9)], cols, 3))
    monkeypatch.setattr("icbound.matroid.IndexCodingInstance", receiver_list)
    for m in matroids:
        for minimal in (True, False):
            assert to_index_coding(m, minimal) == matroid_receivers(m.ranks, m.n, minimal)
    assert (7, 0) in to_index_coding(matroids[-1]) and (8, 1 << 2) in to_index_coding(matroids[-1])


def test_dense_cap():
    with pytest.raises(ResourceCapError):
        uniform(2, 13)


def test_rank_from_matrix_validation():
    with pytest.raises(InputError):
        rank_from_matrix(["a"], [[1, 0]], 4)  # not prime
    with pytest.raises(InputError):
        rank_from_matrix(["a", "b"], [[1, 0]], 2)  # column count mismatch
    with pytest.raises(InputError):
        rank_from_matrix(["a", "b"], [[1, 0], [1]], 2)  # ragged heights
