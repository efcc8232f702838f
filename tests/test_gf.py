"""Finite-field ranks, echelon bases, and the echelon forms, null spaces and
inverses of tests/lemmas.py."""

import random

import pytest

from icbound.errors import InputError, ResourceCapError
from icbound.gf import EchelonBasis, Gf2Basis, check_prime, span_ranks
from icbound.groundset import GroundSet
from icbound.matroid import rank_from_matrix

from lemmas import inverse, nullspace, rref
from oracles import fp_in_span, fp_rank, matvec, walk_span_ranks


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
        assert len(rref(mat, p)[1]) == fp_rank([row[:] for row in mat], p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_shape_and_row_space(p):
    rng = random.Random(200 + p)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        mat = random_matrix(rng, m, n, p)
        red, pivots = rref(mat, p)
        r = fp_rank(mat, p)
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
        assert len(ns) == n - fp_rank(mat, p)
        for vec in ns:
            assert matvec_mod(mat, vec, p) == [0] * m
        assert fp_rank(ns, p) == len(ns)


def test_inverse_roundtrip():
    rng = random.Random(7)
    for p in (2, 3, 5):
        found = 0
        while found < 10:
            n = rng.randint(1, 4)
            mat = random_matrix(rng, n, n, p)
            if fp_rank(mat, p) < n:
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
        assert basis.rank == fp_rank(vecs, 2)
        for mask in masks:
            assert basis.reduce(mask) == 0
        probe = rng.randrange(1 << n)
        assert (basis.reduce(probe) == 0) == fp_in_span(
            [v[:] for v in vecs], [probe >> j & 1 for j in range(n)], 2)


def test_mask_from_bits():
    gs = GroundSet(range(4))
    assert gs.mask_of([0, 2, 3]) == 0b1101
    assert gs.mask_of([]) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, (1 << 31) - 1])
def test_span_ranks_matches_oracle(p):
    rng = random.Random(400 + p)
    # every mask starts at top, the rank of all the generators, and the walk
    # below top extends a parent's basis by one element's vectors. Count the
    # cases where top < ambient, so top is not the ambient rank; where an
    # element's vectors are dependent on a basis below top, so the child
    # keeps its parent's rank; and where the walk goes three elements deep
    # at ambient >= 4, whose fields are 65 bits or wider for p = 2^31 - 1
    short = dependent = deep = 0
    for trial in range(50):
        if trial < 20:
            n, ambient, most = rng.randint(0, 5), rng.randint(1, 7), 3
        elif trial < 35:
            n, ambient, most = rng.randint(3, 6), rng.randint(4, 7), 3
        else:
            # small ambient, many generators: most children reach top, and
            # the walk drops them there
            n, ambient, most = rng.randint(4, 8), rng.randint(1, 3), 2
        made = []

        def vec():
            # entries outside [0, p), negatives too, must reduce exactly; a
            # combination of two earlier vectors keeps large p from being
            # independent every time
            if len(made) > 1 and rng.random() < 0.4:
                (a, b), c = rng.sample(made, 2), rng.randrange(p)
                out = [x + c * y + p * rng.randint(-2, 2) for x, y in zip(a, b)]
            else:
                out = [rng.randint(-2 * p, 2 * p) for _ in range(ambient)]
            made.append(out)
            return out

        gens = [[vec() for _ in range(rng.randint(0, most))] for _ in range(n)]
        ranks = span_ranks(p, ambient, gens)
        assert len(ranks) == 1 << n
        top = ranks[-1]
        short += n > 0 and top < ambient
        dependent += any(ranks[s | 1 << i] == ranks[s] < top for s in range(1 << n)
                         for i in range(n) if not s >> i & 1 and gens[i])
        deep += ambient >= 4 and any(ranks[s] < top for s in range(1 << n) if s.bit_count() >= 3)
        for s in range(1 << n):
            rows = [v[:] for i in range(n) if s >> i & 1 for v in gens[i]]
            assert ranks[s] == fp_rank(rows, p), (s, gens)
    assert short >= 10 and dependent >= 10 and deep >= 10, (short, dependent, deep)


@pytest.mark.parametrize("p", [2, 3, 7, (1 << 31) - 1])
def test_span_ranks_at_the_field_bound(p):
    # v is added last and is the sum of the six units, so reducing it adds
    # (p-1)^2 to its last field six times: 6 (p-1)^2 + p - 6 is past 2^64
    # for p = 2^31 - 1, and a truncated field would read nonzero mod p
    units = [[[int(j == k) + (p - 1) * (j == 6) for j in range(7)]] for k in range(6)]
    v = [[1] * 6 + [p - 6]]
    ranks = span_ranks(p, 7, [v] + units)
    assert ranks[-1] == 6
    for s in range(1 << 7):
        rows = [vec for i, gen in enumerate([v] + units) if s >> i & 1 for vec in gen]
        assert ranks[s] == fp_rank(rows, p), s


def assert_span_ranks(p, ambient, gens, masks=None):
    ranks = span_ranks(p, ambient, gens)
    assert len(ranks) == 1 << len(gens)
    for s in range(1 << len(gens)) if masks is None else masks:
        rows = [v for i, gen in enumerate(gens) if s >> i & 1 for v in gen]
        assert ranks[s] == fp_rank(rows, p), (s, gens)
    return ranks


@pytest.mark.parametrize("p", [2, 3, 5])
def test_span_ranks_in_a_proper_subspace(p):
    # every vector is a combination of two, so the walk stops at rank 2 < 5
    rng = random.Random(900 + p)
    for trial in range(20):
        base = random_matrix(rng, 2, 5, p)
        pairs = [[(rng.randrange(p), rng.randrange(p)) for _ in range(rng.randint(0, 2))]
                 for _ in range(rng.randint(1, 7))]
        gens = [[[a * x + b * y for x, y in zip(*base)] for a, b in gen] for gen in pairs]
        assert assert_span_ranks(p, 5, gens)[-1] <= 2


@pytest.mark.parametrize("p", [2, 3])
def test_span_ranks_of_zero_and_empty_generators(p):
    assert span_ranks(p, 3, [[[0, 0, 0]], [[0, p, -p]], [[0, 0, 0]] * 2]) == [0] * 8
    assert span_ranks(p, 3, [[]] * 4) == [0] * 16
    assert span_ranks(p, 0, [[[]], []]) == [0] * 4
    # empty and zero generators add nothing to the masks that hold them
    gens = [[], [[1, 0, 1]], [[0, 0, 0]], [], [[0, 1, 1], [1, 1, 0]], []]
    ranks = assert_span_ranks(p, 3, gens)
    assert all(ranks[s] == ranks[s & 0b10010] for s in range(1 << 6))


def test_span_ranks_of_sixteen_generators_in_the_plane():
    rng = random.Random(16)
    for p in (2, 3):
        gens = [[[rng.randrange(p) for _ in range(2)] for _ in range(rng.randint(0, 1))]
                for _ in range(16)]
        gens[3] = [[1, 0]]
        masks = [0, 1 << 3, (1 << 16) - 1] + [rng.randrange(1 << 16) for _ in range(300)]
        assert_span_ranks(p, 2, gens, masks)


def test_span_ranks_refuses_past_the_dense_cap():
    with pytest.raises(ResourceCapError, match="dense enumeration of 2\\^17 subsets exceeds cap 16"):
        span_ranks(2, 1, [[[1]]] * 17)
    assert span_ranks(2, 1, [[[1]]] * 16)[-1] == 1


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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 65537, (1 << 31) - 1])
def test_span_ranks_matches_the_basis_walk(p):
    # 0-12 generators of 0-3 vectors in ambient 0-7: entries outside [0, p),
    # negative ones too, zero and repeated vectors. Generator 0 often holds
    # u and u + c w, w a vector of the last generator: independent, but one
    # vector modulo the last generator's span, where a walk that counted
    # nonzero residuals without eliminating them among themselves would be
    # one too high. Every mask is checked against the basis walk, a sample
    # against fp_rank.
    rng = random.Random(700 + p % 1000)
    merged = 0
    for trial in range(40):
        n, ambient = rng.randint(0, 12), rng.randint(0 if trial % 3 == 0 else 3, 7)
        made = []

        def vec():
            roll = rng.random()
            if made and roll < 0.15:
                out = list(rng.choice(made))
            elif roll < 0.25:
                out = [p * rng.randint(-2, 2) for _ in range(ambient)]
            elif len(made) > 1 and roll < 0.5:
                (a, b), c = rng.sample(made, 2), rng.randrange(p)
                out = [x + c * y + p * rng.randint(-2, 2) for x, y in zip(a, b)]
            else:
                out = [rng.randint(-2 * p, 2 * p) for _ in range(ambient)]
            made.append(out)
            return out

        gens = [[vec() for _ in range(rng.randint(0, 3))] for _ in range(n)]
        if n >= 2 and gens[-1] and trial % 3:
            u, c = vec(), rng.randrange(1, p)
            gens[0] = [u, [x + c * y for x, y in zip(u, gens[-1][0])]]
        ranks = span_ranks(p, ambient, gens)
        assert ranks == walk_span_ranks(p, ambient, gens), gens
        for s in range(1 << n) if n <= 6 else rng.sample(range(1 << n), 40):
            rows = [v[:] for i in range(n) if s >> i & 1 for v in gens[i]]
            assert ranks[s] == fp_rank(rows, p), (s, gens)
        if n >= 2:
            last = 1 << n - 1
            merged += (len(gens[0]) == 2 == fp_rank([v[:] for v in gens[0]], p)
                       and ranks[1 | last] == ranks[last] + 1 < ranks[-1])
    assert merged >= 4, merged


@pytest.mark.parametrize("p", [2, 3, 7, 17])
def test_span_ranks_eliminates_a_generator_modulo_its_parent(p):
    # generator 0's two vectors are independent but differ by generator 1's,
    # so added to {1} they raise the rank by one: rank {0, 1} is 2, not 3
    gens = [[[0, 1, 0], [p - 1, 1, 2 * p]], [[1, 0, 0]], [[0, 0, 1]]]
    assert span_ranks(p, 3, gens) == [0, 2, 1, 2, 1, 3, 2, 3]
    assert walk_span_ranks(p, 3, gens) == [0, 2, 1, 2, 1, 3, 2, 3]


@pytest.mark.parametrize("bad", [1.5, "1", None, True])
def test_span_ranks_refuses_non_int_entries(bad):
    # a float or str used to raise a raw TypeError from the packing, and a
    # bool was taken for 0 or 1; the JSON reader refuses all of them
    with pytest.raises(InputError, match="generator 1 has an entry"):
        span_ranks(3, 2, [[[1, 0]], [[0, 1], [bad, 1]]])
    with pytest.raises(InputError, match="generator 0 has an entry"):
        rank_from_matrix(["a", "b"], [[bad, 0], [1, 1]], 3)
    assert span_ranks(3, 2, [[[1, 0]], [[0, 1], [-4, 1 << 70]]]) == [0, 1, 2, 2]
