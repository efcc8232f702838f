"""Finite-field rank, echelon bases, and the null spaces and inverses of
tests/lemmas.py."""

import random

import pytest

from icbound.errors import InputError
from icbound.gf import EchelonBasis, Gf2Basis, check_prime, rank, rref, span_ranks
from icbound.groundset import GroundSet

from lemmas import inverse, nullspace
from oracles import fp_in_span, fp_rank, matvec


def matvec_mod(mat, vec, p):
    return [v % p for v in matvec(mat, vec)]


def random_matrix(rng, m, n, p):
    return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]


def test_check_prime():
    for p in (2, 3, 5, 7, 31, 2**31 - 1):
        assert check_prime(p) == p
    for bad in (1, 4, 6, 9, 0, -3, 1022117, 2**61 - 1):
        with pytest.raises(InputError):
            check_prime(bad)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_matches_oracle(p):
    rng = random.Random(100 + p)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = random_matrix(rng, m, n, p)
        assert rank(mat, p) == fp_rank([row[:] for row in mat], p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_shape_and_row_space(p):
    rng = random.Random(200 + p)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        mat = random_matrix(rng, m, n, p)
        red, pivots = rref(mat, p)
        r = rank(mat, p)
        assert len(red) == m and len(pivots) == r
        for row in red[r:]:
            assert row == [0] * n  # zero rows sink to the bottom
        for row, pc in zip(red, pivots):
            assert row[pc] == 1
            assert all(row[j] == 0 for j in range(pc))
            # pivot columns are cleared above as well
            assert all(other[pc] == 0 for other in red[:r] if other is not row)
        # same row space both directions
        for row in red[:r]:
            assert fp_in_span([r2[:] for r2 in mat], row, p)
        for row in mat:
            assert fp_in_span([r2[:] for r2 in red[:r]], row, p)
        assert pivots == sorted(pivots)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nullspace_is_exact_kernel(p):
    rng = random.Random(300 + p)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        mat = random_matrix(rng, m, n, p)
        ns = nullspace(mat, p, n)
        assert len(ns) == n - rank(mat, p)
        for vec in ns:
            assert matvec_mod(mat, vec, p) == [0] * m
        assert rank(ns, p) == len(ns) if ns else True


def test_inverse_roundtrip():
    rng = random.Random(7)
    for p in (2, 3, 5):
        found = 0
        while found < 10:
            n = rng.randint(1, 4)
            mat = random_matrix(rng, n, n, p)
            if rank(mat, p) < n:
                continue
            found += 1
            inv = inverse(mat, p)
            prod = [matvec_mod(mat, col, p) for col in zip(*inv)]
            ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            assert [list(col) for col in zip(*prod)] == ident
    with pytest.raises(InputError):
        inverse([[1, 1], [1, 1]], 2)


def test_echelon_basis_matches_batch_rank():
    rng = random.Random(9)
    for p in (2, 3, 5):
        for _ in range(25):
            n = rng.randint(1, 6)
            vecs = random_matrix(rng, rng.randint(1, 7), n, p)
            basis = EchelonBasis(p, n)
            grew = [basis.add(v) for v in vecs]
            assert basis.rank == fp_rank([v[:] for v in vecs], p)
            assert sum(grew) == basis.rank
            for v in vecs:
                assert basis.contains(v)
            fork = basis.copy()
            fork.add([rng.randrange(p) for _ in range(n)])
            assert fork.rank >= basis.rank  # copy must not alias


def test_gf2_basis_agrees_with_general():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 8)
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(1, 9))]
        vecs = [[mask >> j & 1 for j in range(n)] for mask in masks]
        basis = Gf2Basis()
        for mask in masks:
            basis.add(mask)
        assert basis.rank == rank(vecs, 2)
        for mask in masks:
            assert basis.reduce(mask) == 0
        probe = rng.randrange(1 << n)
        assert (basis.reduce(probe) == 0) == fp_in_span(
            [v[:] for v in vecs], [probe >> j & 1 for j in range(n)], 2)


def test_mask_from_bits():
    gs = GroundSet(range(4))
    assert gs.mask_of([0, 2, 3]) == 0b1101
    assert gs.mask_of([]) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_span_ranks_matches_oracle(p):
    rng = random.Random(400 + p)
    for trial in range(50):
        if trial < 30:
            n, ambient, most = rng.randint(0, 5), rng.randint(1, 5), 3
        else:
            # small ambient, many generators: most masks extend a parent
            # basis that already has full rank
            n, ambient, most = rng.randint(4, 8), rng.randint(1, 3), 2

        def vec():
            # entries outside [0, p), negatives too, must reduce exactly
            return [rng.randint(-2 * p, 2 * p) for _ in range(ambient)]

        gens = [[vec() for _ in range(rng.randint(0, most))] for _ in range(n)]
        ranks = span_ranks(p, ambient, gens)
        assert len(ranks) == 1 << n
        for s in range(1 << n):
            rows = [v[:] for i in range(n) if s >> i & 1 for v in gens[i]]
            assert ranks[s] == fp_rank(rows, p), (s, gens)


@pytest.mark.parametrize("p", [2, 3])
def test_span_ranks_rejects_wrong_length(p):
    # a vector longer than ambient could push a rank past ambient, and one
    # shorter is not in GF(p)^ambient; both name the generator
    with pytest.raises(InputError, match="generator 0 has a vector of length 2"):
        span_ranks(p, 1, [[[0, 1]], [[0, p - 1]]])
    with pytest.raises(InputError, match="generator 1 has a vector of length 2"):
        span_ranks(p, 1, [[[0]], [[0, 1]]])
    with pytest.raises(InputError, match="generator 0 has a vector of length 1"):
        span_ranks(p, 2, [[[1]]])
    with pytest.raises(InputError, match="generator 2"):
        span_ranks(p, 3, [[], [[1, 0, 0]], [[1, 0, 0], [0, 1]]])
    assert span_ranks(p, 1, [[[0]], [[1]]]) == [0, 0, 1, 1]
