"""The tightening transformation, its transpose, and subspace-tuple validity."""

import random

import pytest

from icbound.errors import InputError
from icbound.groundset import GroundSet, SetVector
from icbound.matroid import fano, nonfano
from icbound.tighten import (SubspaceTuple, b0_transpose_apply,
                             bk_transpose_apply, dimension_vector, fano_alpha,
                             fano_groundset, lambda_even, lambda_odd,
                             tighten_transpose_apply)

from lemmas import dot, project_tuple, quotient_tuple, random_subspace_tuple
from oracles import adjoin_zero, dense_b0, dense_bk, dense_tighten, matvec, mat_tvec

GS3E = GroundSet(["a", "b", "e"])


def rand_vector(rng, gs, density=0.5):
    data = {}
    for s in range(1 << gs.n):
        if rng.random() < density:
            data[s] = rng.randint(-9, 9)
    return SetVector(gs, data)


def ones(gs):
    return SetVector(gs, {s: 1 for s in range(1 << gs.n)})


def indicator(gs, j):
    return SetVector(gs, {s: 1 for s in range(1 << gs.n) if s >> j & 1})


def rank_vector(m):
    return SetVector(m.gs, dict(enumerate(m.ranks)))


def apply_dense(mat, u, gs):
    """The dense map mat applied to u, as a set vector over gs. The oracle
    computes in Fractions; an integer matrix keeps them integral."""
    image = matvec(mat, [u.get(s) for s in range(1 << u.gs.n)])
    assert all(v.denominator == 1 for v in image)
    return SetVector(gs, {s: v.numerator for s, v in enumerate(image)})


def test_lambda_dot_products():
    r_f = rank_vector(fano())
    r_n = rank_vector(nonfano())
    assert dot(lambda_odd(), r_f) == -1
    assert dot(lambda_even(), r_n) == -1
    assert dot(lambda_odd(), r_n) == 0
    assert dot(lambda_even(), r_f) == 0


def test_tighten_kills_ones_and_indicators():
    gs_i = fano_groundset()
    gs_j = gs_i.append("e")
    dense = dense_tighten(8)
    assert apply_dense(dense, ones(gs_j), gs_i) == SetVector.zero(gs_i)
    for j in range(gs_j.n):
        assert apply_dense(dense, indicator(gs_j, j), gs_i) == SetVector.zero(gs_i)


def test_tighten_maps_extended_ranks_back():
    dense = dense_tighten(8)
    for m in (fano(), nonfano()):
        extended = rank_vector(adjoin_zero(m, "e"))
        assert apply_dense(dense, extended, m.gs) == rank_vector(m)


def test_alpha_cuts_the_matching_rank_vector():
    assert fano_alpha("odd") is fano_alpha("odd")  # built once per parity
    assert dot(fano_alpha("odd"), rank_vector(adjoin_zero(fano()))) == -1
    assert dot(fano_alpha("even"), rank_vector(adjoin_zero(nonfano()))) == -1
    assert dot(fano_alpha("odd"), rank_vector(adjoin_zero(nonfano()))) == 0
    assert dot(fano_alpha("even"), rank_vector(adjoin_zero(fano()))) == 0


def test_quotient_and_projection_steps_match_dense_oracle():
    rng = random.Random(17)
    for m in (2, 3):
        gs_j = GroundSet([str(i) for i in range(m - 1)] + ["e"])
        gs_i = GroundSet([str(i) for i in range(m - 1)])
        d0 = dense_b0(m)
        for _ in range(12):
            w = rand_vector(rng, gs_i)
            gott = b0_transpose_apply(w, gs_j)
            wantt = mat_tvec(d0, [w.get(s) for s in range(1 << (m - 1))])
            assert [gott.get(s) for s in range(1 << m)] == wantt
        for k in range(m - 1):
            dk = dense_bk(m - 1, k)
            for _ in range(8):
                w = rand_vector(rng, gs_i)
                gott = bk_transpose_apply(w, str(k))
                wantt = mat_tvec(dk, [w.get(s) for s in range(1 << (m - 1))])
                assert [gott.get(s) for s in range(1 << (m - 1))] == wantt


def test_full_tighten_matches_dense_composition():
    rng = random.Random(23)
    for m in (2, 3, 4):
        gs_i = GroundSet([str(i) for i in range(m - 1)])
        dense = dense_tighten(m)
        for _ in range(10):
            w = rand_vector(rng, gs_i)
            got = tighten_transpose_apply(w)
            want = mat_tvec(dense, [w.get(s) for s in range(1 << (m - 1))])
            assert [got.get(s) for s in range(1 << m)] == want


def test_transpose_is_the_adjoint():
    rng = random.Random(29)
    gs_j = GroundSet(["a", "b", "c", "e"])
    gs_i = GroundSet(["a", "b", "c"])
    tighten, b0, bk = dense_tighten(4), dense_b0(4), dense_bk(3, gs_i.index("b"))
    for _ in range(20):
        u = rand_vector(rng, gs_j)
        w = rand_vector(rng, gs_i)
        assert dot(apply_dense(tighten, u, gs_i), w) == dot(u, tighten_transpose_apply(w))
        assert dot(apply_dense(b0, u, gs_i), w) == dot(u, b0_transpose_apply(w, gs_j))
        wb = rand_vector(rng, gs_i)
        vb = rand_vector(rng, gs_i)
        assert dot(apply_dense(bk, vb, gs_i), wb) == dot(vb, bk_transpose_apply(wb, "b"))


def test_lambda_validity_sampled():
    for parity, primes, lam in (("even", (2,), lambda_even()),
                                ("odd", (3, 5), lambda_odd())):
        for p in primes:
            for seed in range(60):
                tup = random_subspace_tuple(p, 4, 7, seed=seed)
                d = dimension_vector(tup, fano_groundset())
                assert dot(lam, d) >= 0, (parity, p, seed)


def test_alpha_validity_on_extended_tuples():
    gs_j = fano_groundset().append("e")
    for parity, p in (("even", 2), ("odd", 3)):
        alpha = fano_alpha(parity)
        for seed in range(40):
            tup = random_subspace_tuple(p, 4, 8, seed=1000 + seed)
            d = dimension_vector(tup, gs_j)
            assert dot(alpha, d) >= 0, (parity, seed)


def test_quotient_tuple_realizes_b0():
    rng = random.Random(31)
    for p in (2, 3):
        for trial in range(25):
            count = rng.randint(2, 4)
            tup = random_subspace_tuple(p, 4, count, seed=rng.randrange(10 ** 6))
            gs_j = GroundSet([str(i) for i in range(count - 1)] + ["e"])
            gs_i = GroundSet([str(i) for i in range(count - 1)])
            d_before = dimension_vector(tup, gs_j)
            d_after = dimension_vector(quotient_tuple(tup, count - 1), gs_i)
            assert apply_dense(dense_b0(count), d_before, gs_i) == d_after


def test_project_tuple_realizes_bk():
    rng = random.Random(37)
    for p in (2, 3):
        for trial in range(25):
            count = rng.randint(2, 4)
            tup = random_subspace_tuple(p, 4, count, seed=rng.randrange(10 ** 6))
            k = rng.randrange(count)
            gs = GroundSet([str(i) for i in range(count)])
            d_before = dimension_vector(tup, gs)
            d_after = dimension_vector(project_tuple(tup, k), gs)
            assert apply_dense(dense_bk(count, k), d_before, gs) == d_after


def test_full_tighten_realized_by_tuple_surgery():
    rng = random.Random(41)
    dense = dense_tighten(4)
    for p in (2, 3):
        for trial in range(10):
            tup = random_subspace_tuple(p, 4, 4, seed=rng.randrange(10 ** 6))
            gs_j = GroundSet(["0", "1", "2", "e"])
            gs_i = GroundSet(["0", "1", "2"])
            d = dimension_vector(tup, gs_j)
            cooked = quotient_tuple(tup, 3)
            for k in range(3):
                cooked = project_tuple(cooked, k)
            assert apply_dense(dense, d, gs_i) == dimension_vector(cooked, gs_i)


def test_input_validation():
    with pytest.raises(InputError):
        # the dropped element must come last
        b0_transpose_apply(SetVector.zero(GroundSet(["b", "e"])), GS3E, "a")
    with pytest.raises(InputError):
        b0_transpose_apply(SetVector.zero(GS3E), GS3E)  # wrong domain
    with pytest.raises(InputError, match="not independent"):
        SubspaceTuple(2, 3, ((( 1, 0, 1), (1, 0, 1)),))  # dependent rows
    with pytest.raises(InputError, match="^space 1 rows are not independent$"):
        SubspaceTuple(3, 3, (((1, 0, 0),), ((1, 2, 0), (2, 1, 0))))  # 2 * row 0 over GF(3)
    assert SubspaceTuple(5, 3, (((1, 2, 0), (2, 1, 0)),)).count == 1  # independent over GF(5)
    for bad in (1.0, 1.5, True):  # a float used to raise a raw TypeError, a bool read as 1
        with pytest.raises(InputError, match=f"^space 1 has an entry {bad!r}, expected an int$"):
            SubspaceTuple(3, 2, (((1, 0),), ((0, 1), (bad, 1))))
    # every message names the space that holds the bad row
    with pytest.raises(InputError, match="^space 2 has a row of wrong length, expected 2$"):
        SubspaceTuple(3, 2, (((1, 0),), (), ((0, 1), (1, 1, 0))))
    with pytest.raises(InputError, match="^space 1 rows are not independent$"):
        SubspaceTuple(3, 2, (((1, 0),), ((1, 2), (2, 1)), ((0, 1),)))
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(InputError, match="^parity must be 'even' or 'odd', got 'middling'$"):
            fano_alpha("middling")
    with pytest.raises(InputError):
        dimension_vector(random_subspace_tuple(2, 3, 2), GS3E)  # size clash
