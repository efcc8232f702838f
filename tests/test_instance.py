"""Instances, closure, LP constants, products, independence numbers."""

import random

import pytest

from icbound.errors import InputError, ResourceCapError
from icbound.groundset import GroundSet, bit_indices, popcount
from icbound.instance import (ClosureMode, IndexCodingInstance, cycle_instance,
                              from_graph)
from icbound.matroid import fano, nonfano, to_index_coding

from lemmas import closure
from oracles import closure_once, mis_size, scan_closure, scan_decoded, step_cost


C5 = cycle_instance(5)


def vmask(*verts):
    return C5.messages.mask_of(verts)


def cst(inst, s, t, mode=ClosureMode.SINGLE_STEP):
    """Count of t's messages not decodable from s."""
    return popcount(t & ~inst.closure(s, mode))


def test_receivers_deduplicated_and_validated():
    gs = GroundSet(["a", "b"])
    inst = IndexCodingInstance(gs, [(0, 0b10), (0, 0b10), (1, 0b01)])
    assert len(inst.receivers) == 2
    with pytest.raises(InputError):
        IndexCodingInstance(gs, [(0, 0b01)])  # knows what it wants
    with pytest.raises(InputError):
        IndexCodingInstance(gs, [(5, 0)])
    with pytest.raises(InputError):
        IndexCodingInstance(GroundSet([]), [])


def test_from_graph_receivers():
    assert len(C5.receivers) == 5
    want, knows = next(r for r in C5.receivers if r[0] == C5.messages.index(1))
    assert knows == vmask(2, 5)
    k3 = from_graph(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])
    for want, knows in k3.receivers:
        assert knows == k3.messages.full_mask & ~(1 << want)
    with pytest.raises(InputError):
        from_graph([1, 2], [(1, 1)])  # self-loop


def test_closure_examples():
    s = vmask(1, 3)
    assert C5.closure(s) == vmask(1, 2, 3)  # vertex 2 knows exactly {1,3}
    assert C5.closure(C5.messages.full_mask) == C5.messages.full_mask
    gf = to_index_coding(fano())
    gs = gf.messages
    assert gf.closure(gs.mask_of(["100", "010"])) == gs.mask_of(["100", "010", "110"])


def test_closure_extensive_monotone_and_modes():
    for inst in (C5, to_index_coding(fano())):
        full = inst.messages.full_mask
        for s in range(0, full + 1, 7):  # sampled subsets
            one = inst.closure(s)
            many = inst.closure(s, ClosureMode.ITERATED)
            assert one & s == s
            assert one & ~many == 0  # single-step inside iterated
            assert inst.closure(many, ClosureMode.ITERATED) == many
        for s in range(0, full + 1, 13):
            for t in range(0, full + 1, 11):
                if s & ~t == 0:
                    assert inst.closure(s) & ~inst.closure(t) == 0


def test_matroid_instance_closure_is_matroid_closure():
    m = fano()
    inst = to_index_coding(m)
    for s in range(1 << 7):
        assert inst.closure(s) == closure(m, s)


def test_closure_matches_oracle_on_c5():
    recv = list(C5.receivers)
    for s in range(1 << 5):
        assert C5.closure(s) == closure_once(recv, s)


def test_cst_examples():
    assert cst(C5, 0, vmask(1, 3)) == 2
    assert cst(C5, vmask(1, 3), vmask(1, 2, 3)) == 0
    assert cst(C5, 0, vmask(5)) == 1


def test_dst_examples_and_identity():
    assert C5.dst(vmask(1, 3), vmask(1, 2, 3)) == 1
    assert C5.dst(0, vmask(2, 4)) == 0  # closure of the empty set is empty
    assert C5.dst(vmask(2, 3, 5), C5.messages.full_mask) == 2
    full = C5.messages.full_mask
    for s in range(32):
        for t in range(32):
            if s & ~t == 0 and s != t:
                assert C5.dst(s, t) == popcount(t & ~s) - cst(C5, s, t)


def test_single_step_cost_matches_oracle():
    recv = list(C5.receivers)
    for s in range(32):
        for i in range(5):
            if not s >> i & 1:
                assert cst(C5, s, s | 1 << i) == step_cost(recv, s, i)


def test_lex_product_shape():
    sq = C5.lex_product(C5)
    assert sq.n == 25
    assert len(sq.receivers) == 25
    # receiver for (1,1): knows ({2,5} x V) + ({1} x {2,5})
    gs = sq.messages
    want, knows = next(r for r in sq.receivers if r[0] == gs.index("1:1"))
    expect = 0
    for g in (2, 5):
        for f in (1, 2, 3, 4, 5):
            expect |= 1 << gs.index(f"{g}:{f}")
    for f in (2, 5):
        expect |= 1 << gs.index(f"1:{f}")
    assert knows == expect
    assert popcount(knows) == 12


def test_lex_product_receiver_counts_multiply():
    gf = to_index_coding(fano())
    prod = C5.lex_product(gf)
    assert len(prod.receivers) == len(C5.receivers) * len(gf.receivers)


def test_lex_product_identity_case():
    single = IndexCodingInstance(GroundSet(["v"]), [(0, 0)])
    prod = C5.lex_product(single)
    assert prod.n == 5
    # knows masks coincide under the block identification
    for (w1, k1), (w2, k2) in zip(sorted(C5.receivers), sorted(prod.receivers)):
        assert w1 == w2 and k1 == k2


def test_lex_closure_factorization_small_graphs():
    # cl(h(X)) - h(X) splits as ((cl_G(S)-S) n T) x (cl_F(X)-X) for the
    # block embedding h of every nested pair S < T and inner subset X.
    graphs = [(2, [(0, 1)]), (3, [(0, 1), (1, 2)]), (3, [(0, 1), (1, 2), (0, 2)])]
    for ng, ge in graphs:
        for nf, fe in graphs:
            G = from_graph(list(range(ng)), ge)
            F = from_graph(list(range(nf)), fe)
            P = G.lex_product(F)
            for t in range(1, 1 << ng):
                s = t
                while True:
                    s = (s - 1) & t
                    for x in range(1 << nf):
                        img = 0
                        for i in bit_indices(s):
                            img |= ((1 << nf) - 1) << (i * nf)
                        for i in bit_indices(t & ~s):
                            img |= x << (i * nf)
                        lhs = P.closure(img) & ~img
                        clg = G.closure(s) & ~s & t
                        clf = F.closure(x) & ~x
                        rhs = 0
                        for i in bit_indices(clg):
                            rhs |= clf << (i * nf)
                        assert lhs == rhs
                    if s == 0:
                        break


def test_nondegenerate_flag():
    assert all(knows for _, knows in C5.receivers)
    assert not all(knows for _, knows in from_graph([1, 2, 3], []).receivers)
    assert all(knows for _, knows in to_index_coding(fano()).receivers)


def test_independence_numbers():
    assert C5.independence_number() == 2
    assert from_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)]).independence_number() == 1
    sq = C5.lex_product(C5)
    assert sq.independence_number() == 4


def test_independence_number_matches_mis_oracle():
    rng = random.Random(3)
    for trial in range(30):
        nv = rng.randint(2, 7)
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
                 if rng.random() < 0.45]
        inst = from_graph(list(range(nv)), edges)
        adj = [0] * nv
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        assert inst.independence_number() == mis_size(adj)


def test_independence_number_guards():
    with pytest.raises(ResourceCapError):
        C5.lex_product(C5).lex_product(C5).independence_number(cap=40)
    with pytest.raises(InputError):
        to_index_coding(fano()).independence_number()
    gs = GroundSet(["a", "b"])
    lopsided = IndexCodingInstance(gs, [(0, 0b10), (1, 0)])
    with pytest.raises(InputError):
        lopsided.independence_number()  # knows relation not symmetric
    undemanded = IndexCodingInstance(gs, [(0, 0b10)])
    with pytest.raises(InputError):
        undemanded.independence_number()  # b is known but never wanted


def test_cycle_instance_guard():
    with pytest.raises(InputError):
        cycle_instance(2)


def _random_instance(rng, n):
    """Receivers with several per wanted message, some messages nobody
    wants, and some receivers with empty side information."""
    receivers = []
    for want in rng.sample(range(n), rng.randint(1, n)):
        for _ in range(rng.randint(1, 3)):
            knows = 0 if rng.random() < 0.2 else rng.getrandbits(n) & ~(1 << want)
            receivers.append((want, knows))
    return IndexCodingInstance(GroundSet(range(n)), receivers), receivers


def _oracle_closure(receivers, s, mode):
    grown = closure_once(receivers, s)
    while mode is ClosureMode.ITERATED and grown != s:
        s, grown = grown, closure_once(receivers, grown)
    return grown


@pytest.mark.parametrize("mode", list(ClosureMode), ids=lambda m: m.value)
def test_dst_and_closure_match_oracle_on_random_instances(mode):
    rng = random.Random(20260)
    for n in [3, 4, 5, 6, 7] * 6 + [70, 130]:
        inst, receivers = _random_instance(rng, n)
        full = inst.messages.full_mask
        for _ in range(40):
            t = rng.getrandbits(n)
            s = t & rng.getrandbits(n) if rng.random() < 0.7 else rng.getrandbits(n)
            cl = _oracle_closure(receivers, s, mode)
            assert inst.closure(s, mode) == cl
            assert inst.dst(s, t, mode) == popcount(t & cl & ~s)
            assert inst.dst(s, t, mode) == popcount(t & inst.closure(s, mode) & ~s)
            assert cst(inst, s, t, mode) == popcount(t & ~cl)
        assert inst.closure(full, mode) == full
        assert inst.dst(0, full, mode) == popcount(_oracle_closure(receivers, 0, mode))


def _seeded_instances(rng):
    """Random instances of 1-12 messages, with messages nobody wants,
    repeated receivers and receivers that know nothing."""
    for n in list(range(1, 13)) * 4:
        receivers = []
        for _ in range(rng.randint(0, 3 * n)):
            want = rng.randrange(n)
            knows = 0 if rng.random() < 0.15 else rng.getrandbits(n) & ~(1 << want)
            receivers.append((want, knows))
        receivers += rng.sample(receivers, len(receivers) // 4)
        yield IndexCodingInstance(GroundSet(range(n)), receivers), receivers


@pytest.mark.parametrize("mode", list(ClosureMode), ids=lambda m: m.value)
def test_packed_decode_matches_the_receiver_scan(mode):
    """closure and dst read the packed index; the per-receiver scan they
    replaced is the reference, on s and t from 0 to the full mask."""
    rng = random.Random(1108)
    fano_ic, nonfano_ic = to_index_coding(fano()), to_index_coding(nonfano())
    cases = list(_seeded_instances(rng))
    cases += [(inst, list(inst.receivers)) for inst in (
        C5.lex_product(C5), fano_ic.lex_product(fano_ic), fano_ic.lex_product(nonfano_ic))]
    iterated = mode is ClosureMode.ITERATED
    for inst, receivers in cases:
        full = inst.messages.full_mask
        masks = [0, full] + [rng.getrandbits(inst.n) for _ in range(12)]
        for s in masks:
            cl = scan_closure(receivers, inst.n, s, iterated)
            assert inst.closure(s, mode) == cl
            for t in masks + [s | rng.getrandbits(inst.n)]:
                want = popcount(t & cl & ~s) if iterated else popcount(
                    scan_decoded(receivers, s, t & ~s))
                assert inst.dst(s, t, mode) == want


def test_constructor_words_the_first_offender():
    gs = GroundSet(["a", "b", "c"])
    good = [(0, 0b110), (1, 0), (2, 0b011)]
    cases = [
        (good + [(3, 0)], "receivers[3] wants unknown message index 3"),
        (good + [(-1, 0)], "receivers[3] wants unknown message index -1"),
        (good + [(1, 0b1000)], "mask 8 does not fit a 3-element ground set"),
        (good + [(1, -1)], "mask -1 does not fit a 3-element ground set"),
        (good + [(1, 1.0)], "mask 1.0 does not fit a 3-element ground set"),
        (good + [(2, 0b100), (0, 0b1000)], "receivers[3] knows 'c', the message it wants"),
        ([(0, 0b1000), (5, 0)], "mask 8 does not fit a 3-element ground set"),
    ]
    for receivers, message in cases:
        with pytest.raises(InputError) as err:
            IndexCodingInstance(gs, receivers)
        assert str(err.value) == message
    assert IndexCodingInstance(gs, [[0, 0b110], (0, 0b110)]).receivers == ((0, 0b110),)
    assert IndexCodingInstance(gs, []).receivers == ()
    with pytest.raises(ValueError):
        IndexCodingInstance(gs, [(0, 0b110), (1, 0, 5)])
