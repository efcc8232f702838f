"""Subset lattice primitives: ground sets, set vectors, lattice homs."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from icbound.errors import InputError
from icbound.groundset import (BlockEmbedding, GroundSet, LatticeHom, SetVector, bit_indices,
                               popcount)
from icbound.instance import cycle_instance
from icbound.lincode import ScalarLinearCode, code_entropy_vector
from icbound.schema import SubmodRow, SubmodSchema
from icbound.tighten import dimension_vector, fano_groundset, fano_schema

from lemmas import dot, random_subspace_tuple
from oracles import role_maps


def identity(gs):
    return LatticeHom(gs, gs, 0, tuple(1 << i for i in range(gs.n)))


def scaled(u, factor):
    """factor times u, through the checked constructor."""
    return SetVector(u.gs, {mask: factor * v for mask, v in u.items()})


def test_groundset_label_index_bijection():
    gs = GroundSet(["a", "b", "c", "d"])
    assert gs.n == 4
    for i, lab in enumerate(gs.labels):
        assert gs.index(lab) == i
    assert gs.mask_of(["b", "d"]) == 0b1010
    assert gs.labels_of(0b1010) == ("b", "d")
    assert gs.full_mask == 0b1111


def test_groundset_rejects_duplicates_and_unknown_labels():
    with pytest.raises(InputError):
        GroundSet(["a", "a"])
    gs = GroundSet(["a", "b"])
    with pytest.raises(InputError):
        gs.index("z")
    with pytest.raises(InputError):
        gs.check_mask(1 << 5)


def test_append_keeps_order_and_adds_last():
    gs = GroundSet(["a", "b"])
    bigger = gs.append("e")
    assert bigger.labels == ("a", "b", "e")
    assert bigger.index("e") == 2


def test_popcount_and_bit_indices():
    assert popcount(0b1011) == 3
    assert list(bit_indices(0b101)) == [0, 2]
    assert list(bit_indices(0)) == []


def test_setvector_exact_arithmetic_and_pruning():
    gs = GroundSet(["a", "b"])
    u = SetVector(gs, {0b01: 3, 0b10: 2, 0b11: 0})
    assert 0b11 not in dict(u.items())  # a zero entry is dropped
    with pytest.raises(InputError, match="does not fit a 2-element ground set"):
        SetVector(gs, {0b100: 1})
    # pairs were once merged entry by entry; only a dict is read now
    with pytest.raises(InputError, match="^set vector data must be a dict mask -> int, got list$"):
        SetVector(gs, [(0b01, 1), (0b01, 1)])
    v = SetVector(gs, {0b01: -3, 0b11: 1})
    s = u + v
    assert s.get(0b01) == 0
    assert 0b01 not in dict(s.items())  # exact cancellation prunes the key
    assert s.get(0b10) == 2
    assert len(u + scaled(u, -1)) == 0


@pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(2), 0.5, 1.0, True, "1"],
                         ids=["fraction", "integral-fraction", "float", "integral-float",
                              "bool", "str"])
def test_setvector_refuses_entries_that_are_not_ints(value):
    gs = GroundSet(["a", "b"])
    with pytest.raises(InputError, match="^" + re.escape(
            f"set vector entries must be ints: subset ('b',) holds "
            f"{type(value).__name__} {value}") + "$"):
        SetVector(gs, {0b01: 1, 0b10: value})


def test_setvector_mass_and_atom_mass():
    gs = GroundSet(["a", "b", "c"])
    v = SetVector(gs, {0b011: 2, 0b100: -4, 0b110: 3})
    assert v.mass() == 1
    assert v.atom_mass(0) == 2          # sets containing "a"
    assert v.atom_mass(1) == 5          # sets containing "b"
    assert v.atom_mass(2) == -1
    assert SetVector.zero(gs).mass() == SetVector.zero(gs).atom_mass(0) == 0
    assert type(v.mass()) is type(v.atom_mass(2)) is type(v.get(0)) is int


def test_unit_vector_and_dot():
    gs = GroundSet(["a", "b"])
    e1 = SetVector(gs, {0b01: 1})
    e2 = SetVector(gs, {0b10: 5})
    assert dot(e1, e2) == 0
    assert dot(e1 + e2, e2) == 25


def test_hom_identity_and_apply():
    gs = GroundSet(["a", "b", "c"])
    h = identity(gs)
    for mask in range(8):
        assert h.apply(mask) == mask


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 70), width=st.integers(0, 12))
def test_block_embedding_applies_as_the_per_bit_loop(data, n, width):
    outer, product = GroundSet(range(n)), GroundSet(range(n * width))
    embed = BlockEmbedding(outer, product, width)
    plain = LatticeHom(outer, product, embed.base, embed.atom_images)
    assert embed.atom_images == tuple(((1 << width) - 1) << i * width for i in range(n))
    mask = data.draw(st.integers(0, outer.full_mask))
    assert embed.apply(mask) == plain.apply(mask)
    assert embed.compose(identity(outer)) == plain.compose(identity(outer))
    with pytest.raises(InputError):
        embed.apply(outer.full_mask + 1)


def test_hom_with_base_and_dead_atom():
    dom = GroundSet(["1", "2"])
    cod = GroundSet(["a", "b"])
    h = LatticeHom.from_labels(dom, cod, ["a"], {"1": ["b"]})
    # atom 2 is absent from the map, so it collapses into the base
    assert h.apply(0b00) == cod.mask_of(["a"])
    assert h.apply(0b11) == cod.mask_of(["a", "b"])
    assert h.apply(0b10) == cod.mask_of(["a"])


def test_hom_rejects_overlapping_images():
    gs = GroundSet(["a", "b"])
    with pytest.raises(InputError):
        LatticeHom(gs, gs, 0b01, (0b01, 0b10))
    with pytest.raises(InputError):
        LatticeHom(gs, gs, 0, (0b11, 0b10))


def test_hom_preserves_union_and_intersection_exhaustively():
    # every hom from 2 atoms to 3 atoms, all subset pairs
    dom = GroundSet(["1", "2"])
    cod = GroundSet(["a", "b", "c"])
    for base, images in role_maps(2, 3):
        h = LatticeHom(dom, cod, base, images)
        for s in range(4):
            for t in range(4):
                assert h.apply(s | t) == h.apply(s) | h.apply(t)
                assert h.apply(s & t) == h.apply(s) & h.apply(t)


def test_hom_compose_matches_pointwise_application():
    dom = GroundSet(["1", "2"])
    mid = GroundSet(["x", "y"])
    cod = GroundSet(["a", "b", "c"])
    inners = [LatticeHom(dom, mid, b, im) for b, im in role_maps(2, 2)]
    outers = [LatticeHom(mid, cod, b, im) for b, im in role_maps(2, 3)]
    for inner in inners:
        for outer in outers[::7]:  # stride keeps the product small
            comp = outer.compose(inner)
            for s in range(4):
                assert comp.apply(s) == outer.apply(inner.apply(s))


def test_hom_compose_identity_left_right():
    gs = GroundSet(["a", "b", "c"])
    ident = identity(gs)
    h = LatticeHom(gs, gs, 0b100, (0b001, 0b010, 0))
    assert ident.compose(h) == h
    assert h.compose(ident) == h


def test_hom_compose_associative_on_random_triples():
    rng = random.Random(31)
    sizes = [2, 3, 2, 3]
    sets = [GroundSet([f"g{k}{i}" for i in range(n)]) for k, n in enumerate(sizes)]

    def random_hom(dom, cod):
        base = 0
        images = [0] * dom.n
        for bit in range(cod.n):
            role = rng.randrange(dom.n + 2)
            if role == 0:
                base |= 1 << bit
            elif role <= dom.n:
                images[role - 1] |= 1 << bit
        return LatticeHom(dom, cod, base, tuple(images))

    for _ in range(50):
        f = random_hom(sets[0], sets[1])
        g = random_hom(sets[1], sets[2])
        h = random_hom(sets[2], sets[3])
        left = h.compose(g).compose(f)
        right = h.compose(g.compose(f))
        assert left == right


def test_compose_rejects_mismatched_lattices():
    a = GroundSet(["a"])
    b = GroundSet(["b", "c"])
    with pytest.raises(InputError):
        identity(a).compose(identity(b))


def test_pushforward_unit_goes_to_image_unit():
    dom = GroundSet(["1", "2"])
    cod = GroundSet(["a", "b", "c"])
    h = LatticeHom.from_labels(dom, cod, [], {"1": ["a", "b"], "2": ["c"]})
    for s in range(4):
        pushed = SetVector(dom, {s: 1}).pushforward(h)
        assert pushed == SetVector(cod, {h.apply(s): 1})


def test_pushforward_collapsing_hom_sums_mass():
    dom = GroundSet(["1", "2"])
    cod = GroundSet(["a"])
    collapse = LatticeHom(dom, cod, 0, (0, 0))
    v = SetVector(dom, {0b01: 1, 0b10: 2})
    pushed = v.pushforward(collapse)
    assert pushed == SetVector(cod, {0: 3})
    # opposite entries on one image cancel, and the key is pruned
    assert SetVector(dom, {0b01: 2, 0b10: -2}).pushforward(collapse) == SetVector.zero(cod)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(0, 3 ** 3 - 1))
def test_pushforward_is_linear(a, b, code):
    dom = GroundSet(["1", "2"])
    cod = GroundSet(["a", "b", "c"])
    # decode one of the 3^3 homs with empty base
    images = [0, 0]
    for bit in range(3):
        role = code % 3
        code //= 3
        if role:
            images[role - 1] |= 1 << bit
    h = LatticeHom(dom, cod, 0, tuple(images))
    u = SetVector(dom, {0b01: 3, 0b11: -2})
    v = SetVector(dom, {0b10: 5, 0b11: 1})
    lhs = (scaled(u, a) + scaled(v, b)).pushforward(h)
    rhs = scaled(u.pushforward(h), a) + scaled(v.pushforward(h), b)
    assert lhs == rhs


def test_pushforward_preserves_mass():
    dom = GroundSet(["1", "2", "3"])
    cod = GroundSet(["a", "b"])
    h = LatticeHom(dom, cod, 0b10, (0b01, 0, 0))
    v = SetVector(dom, {s: 2 * s - 5 for s in range(8)})
    assert v.pushforward(h).mass() == v.mass()


def test_setvector_refuses_mixed_groundsets():
    u = SetVector(GroundSet(["a"]), {1: 1})
    v = SetVector(GroundSet(["b"]), {1: 1})
    with pytest.raises(InputError):
        _ = u + v


# -- vectors built without the checked constructor -------------------------------


def assert_clean(vec):
    """vec holds what the checked constructor would build from its entries:
    int values, none of them zero, every mask inside the ground set."""
    assert vec == SetVector(vec.gs, dict(vec.items()))
    for mask, v in vec.items():
        assert type(v) is int
        assert v != 0
        assert 0 <= mask <= vec.gs.full_mask


@pytest.mark.parametrize("p", [2, 3, 5])
def test_dimension_and_entropy_vectors_are_clean(p):
    rng = random.Random(900 + p)
    for seed in range(8):
        tup = random_subspace_tuple(p, rng.randint(1, 4), rng.randint(1, 6), seed=seed)
        assert_clean(dimension_vector(tup))
    inst = cycle_instance(5)
    for _ in range(8):
        rows = tuple(tuple(rng.randrange(p) for _ in range(5))
                     for _ in range(rng.randint(0, 6)))
        assert_clean(code_entropy_vector(inst, ScalarLinearCode(p, rows)))


def test_schema_rows_are_clean():
    schema = SubmodSchema()
    for n in range(6):
        gs = GroundSet([f"m{i}" for i in range(n)])
        for row in schema.rows(gs):
            assert_clean(schema.row_vector(row, gs))
    gs = GroundSet(["a", "b", "c"])
    for s in range(8):
        for t in range(8):  # nested pairs give the zero row
            assert_clean(schema.row_vector(SubmodRow(s, t), gs))
    for parity in ("even", "odd"):
        homext = fano_schema(parity)
        for row in homext.rows(fano_groundset()):
            assert_clean(homext.row_vector(row, fano_groundset()))


def test_arithmetic_results_are_clean():
    rng = random.Random(41)
    dom = GroundSet(["1", "2"])
    cod = GroundSet(["a", "b", "c"])
    homs = [LatticeHom(dom, cod, base, images) for base, images in role_maps(2, 3)]
    for _ in range(30):
        u = SetVector(dom, {s: rng.randint(-3, 3) for s in range(4)})
        v = SetVector(dom, {s: rng.randint(-2, 2) for s in range(4)})
        for vec in (u + v, u + scaled(u, -1), u + scaled(v, -2)):
            assert_clean(vec)
        for hom in homs[::5]:
            assert_clean(u.pushforward(hom))
