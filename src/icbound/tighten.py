"""Tightening a valid subset inequality and the two built-in schema rows.

The central objects are two integer vectors over the subsets of a 7-element
ground set, one valid for tuples of subspaces over fields of characteristic
2 and negative on the ternary-representable rank vector, the other valid in
odd characteristic and negative on the binary-representable rank vector.
Composing either with the transpose of the tightening transformation B gives
a row over the 8-element ground set (one extra element) that sums to zero
against the all-ones and every indicator vector, which is what lets the row
generate a tight homomorphic schema.

B itself is a product of elementary maps: a quotient step that collapses the
extra element and, per element, a projection step. Each has an exact
vector-space construction (quotient by a subspace; projection along a
chosen complement) implemented here on explicit bases over GF(p), so the
commutation of the linear-algebra operation with the subset-vector formula
can be tested on random tuples with no tolerance at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, Optional, Tuple

from icbound.errors import InputError
from icbound.gf import EchelonBasis, check_prime, inverse, span_ranks
from icbound.groundset import GroundSet, SetVector
from icbound.matroid import _FANO_LABELS
from icbound.rational import ZERO, rat
from icbound.schema import HomExtSchema, SubmodSchema, UnionSchema

__all__ = [
    "b0_apply",
    "bk_apply",
    "tighten_apply",
    "bk_transpose_apply",
    "b0_transpose_apply",
    "tighten_transpose_apply",
    "fano_groundset",
    "lambda_even",
    "lambda_odd",
    "fano_alpha",
    "fano_schema",
    "schema_with_submod",
    "SubspaceTuple",
    "dimension_vector",
    "random_subspace_tuple",
    "quotient_tuple",
    "project_tuple",
]


# -- the B maps on subset-indexed vectors ------------------------------------


def _split_last(gs_j: GroundSet, drop_label) -> GroundSet:
    if gs_j.labels[-1] != drop_label:
        raise InputError("the dropped element must be the last ground-set label")
    return GroundSet(gs_j.labels[:-1])


def b0_apply(u: SetVector, drop_label="e") -> SetVector:
    """Quotient step: (result)_S = u_{S+e} - u_{e}; drops the last element."""
    gs_j = u.gs
    gs_i = _split_last(gs_j, drop_label)
    e_bit = 1 << gs_i.n
    at_e = u.get(e_bit)
    data: Dict[int, object] = {}
    if at_e:
        for s in gs_i.subsets():
            v = u.get(s | e_bit) - at_e
            if v:
                data[s] = v
    else:
        for mask, v in u.items():
            if mask & e_bit:
                data[mask ^ e_bit] = v
    return SetVector(gs_i, data)


def bk_apply(u: SetVector, k_label) -> SetVector:
    """Projection step at k: entries of sets containing k shift by
    u_{I-k} - u_I; everything else is untouched."""
    gs = u.gs
    k_bit = 1 << gs.index(k_label)
    full = gs.full_mask
    corr = u.get(full & ~k_bit) - u.get(full)
    if not corr:
        return u
    data = dict(u.items())
    for s in gs.subsets():
        if s & k_bit:
            v = data.get(s, ZERO) + corr
            if v:
                data[s] = v
            else:
                data.pop(s, None)
    return SetVector(gs, data)


def tighten_apply(u: SetVector, drop_label="e") -> SetVector:
    """Full tightening map: quotient step, then one projection per element,
    elements taken in ascending label order."""
    v = b0_apply(u, drop_label)
    for label in v.gs.labels:
        v = bk_apply(v, label)
    return v


def bk_transpose_apply(w: SetVector, k_label) -> SetVector:
    gs = w.gs
    k_bit = 1 << gs.index(k_label)
    sigma = w.atom_mass(gs.index(k_label))
    if not sigma:
        return w
    full = gs.full_mask
    return w + SetVector(gs, {full & ~k_bit: sigma, full: -sigma})


def b0_transpose_apply(w: SetVector, gs_j: GroundSet, drop_label="e") -> SetVector:
    gs_i = _split_last(gs_j, drop_label)
    if w.gs != gs_i:
        raise InputError("vector does not live over the reduced ground set")
    e_bit = 1 << gs_i.n
    data: Dict[int, object] = {}
    for mask, v in w.items():
        data[mask | e_bit] = v
    total = w.mass()
    if total:
        prev = data.get(e_bit, ZERO) - total
        if prev:
            data[e_bit] = prev
        else:
            data.pop(e_bit, None)
    return SetVector(gs_j, data)


def tighten_transpose_apply(w: SetVector, drop_label="e") -> SetVector:
    """Transpose of tighten_apply; sends a row over I to a row over I plus e.

    Projection transposes run in reverse element order, the quotient
    transpose last, mirroring the forward composition order exactly.
    """
    v = w
    for label in reversed(w.gs.labels):
        v = bk_transpose_apply(v, label)
    gs_j = w.gs.append(drop_label)
    return b0_transpose_apply(v, gs_j, drop_label)


# -- the two generating rows --------------------------------------------------

_LAMBDA_EVEN = (
    (2, ("100",)),
    (2, ("010",)),
    (3, ("001",)),
    (11, ("111",)),
    (3, ("100", "010")),
    (2, ("100", "001")),
    (2, ("010", "001")),
    (-1, ("100", "111")),
    (-1, ("010", "111")),
    (-1, ("001", "111")),
    (-4, ("100", "010", "001")),
    (-3, ("111", "100", "010")),
    (-3, ("111", "100", "001")),
    (-3, ("111", "010", "001")),
    (1, ("110", "100", "010")),
    (1, ("101", "100", "001")),
    (1, ("011", "010", "001")),
    (1, ("110", "111", "001")),
    (1, ("101", "111", "010")),
    (1, ("011", "111", "100")),
    (-1, ("110", "101", "011")),
    (1, ("111", "100", "010", "001")),
)

_LAMBDA_ODD = (
    (3, ("100",)),
    (3, ("010",)),
    (9, ("001",)),
    (6, ("111",)),
    (6, ("100", "010")),
    (-12, ("100", "010", "001")),
    (3, ("110", "100", "010")),
    (3, ("101", "100", "001")),
    (3, ("011", "010", "001")),
    (-3, ("111", "100", "010")),
    (-3, ("111", "100", "001")),
    (-3, ("111", "010", "001")),
    (3, ("111", "100", "010", "001")),
    (1, ("110", "101", "011")),
)


def fano_groundset() -> GroundSet:
    return GroundSet(_FANO_LABELS)


def _lambda_vector(terms) -> SetVector:
    gs = fano_groundset()
    return SetVector(gs, {gs.mask_of(labels): rat(c) for c, labels in terms})


def lambda_even() -> SetVector:
    """Valid on subspace-tuple dimension vectors in characteristic 2."""
    return _lambda_vector(_LAMBDA_EVEN)


def lambda_odd() -> SetVector:
    """Valid on subspace-tuple dimension vectors in characteristic not 2."""
    return _lambda_vector(_LAMBDA_ODD)


_ALPHA_CACHE: Dict[str, SetVector] = {}


def fano_alpha(parity: str) -> SetVector:
    """Tightened generating row over the 8-element ground set, cached."""
    cached = _ALPHA_CACHE.get(parity)
    if cached is not None:
        return cached
    if parity == "even":
        lam = lambda_even()
    elif parity == "odd":
        lam = lambda_odd()
    else:
        raise InputError(f"parity must be 'even' or 'odd', got {parity!r}")
    alpha = tighten_transpose_apply(lam, "e")
    _ALPHA_CACHE[parity] = alpha
    return alpha


def fano_schema(parity: str, homs=None) -> HomExtSchema:
    alpha = fano_alpha(parity)
    return HomExtSchema(f"fano-{parity}", alpha.gs, alpha, "e", homs)


def schema_with_submod(parity: str, homs=None) -> UnionSchema:
    """submod+fano-odd / submod+fano-even, the schemas the separation uses."""
    return UnionSchema(SubmodSchema(), fano_schema(parity, homs))


# -- explicit subspace tuples over GF(p) --------------------------------------


@dataclass(frozen=True)
class SubspaceTuple:
    """Tuple of subspaces of GF(p)^ambient, each given by basis rows."""

    p: int
    ambient: int
    spaces: Tuple[Tuple[Tuple[int, ...], ...], ...]

    def __post_init__(self):
        check_prime(self.p)
        for space in self.spaces:
            probe = EchelonBasis(self.p, self.ambient)
            for vec in space:
                if len(vec) != self.ambient:
                    raise InputError("basis vector of wrong length")
                if not probe.add(vec):
                    raise InputError("space rows are not independent")

    @property
    def count(self) -> int:
        return len(self.spaces)


def _echelon_space(rows, p: int, ambient: int) -> Tuple[Tuple[int, ...], ...]:
    basis = EchelonBasis(p, ambient)
    for vec in rows:
        basis.add(vec)
    return tuple(tuple(row) for row in basis.rows)


def dimension_vector(tup: SubspaceTuple, gs: Optional[GroundSet] = None) -> SetVector:
    """Exact dimension of the joint span for every subset of the tuple."""
    if gs is None:
        gs = GroundSet(tuple(str(i) for i in range(tup.count)))
    if gs.n != tup.count:
        raise InputError("ground set size does not match the tuple")
    return SetVector._from_ranks(gs, span_ranks(tup.p, tup.ambient, tup.spaces))


def random_subspace_tuple(
    p: int, ambient: int, count: int, max_dim: Optional[int] = None, seed: int = 0
) -> SubspaceTuple:
    """Seed-reproducible random tuple for property sampling.

    Each space is the span of a random generator set, echelonized so the
    stored rows form a basis; dimensions land anywhere from 0 to max_dim.
    """
    rng = Random(seed)
    cap = ambient if max_dim is None else min(max_dim, ambient)
    spaces = []
    for _ in range(count):
        gens = rng.randint(0, cap)
        rows = [
            [rng.randrange(p) for _ in range(ambient)] for _ in range(gens)
        ]
        spaces.append(_echelon_space(rows, p, ambient))
    return SubspaceTuple(p, ambient, tuple(spaces))


def quotient_tuple(tup: SubspaceTuple, index: int) -> SubspaceTuple:
    """Quotient every space by space[index] and drop that index.

    Coordinates are taken in the complement of the pivot columns of the
    quotienting space, so dimensions come out exactly as the joint-span
    differences the quotient formula predicts.
    """
    p = tup.p
    eb = EchelonBasis(p, tup.ambient)
    for vec in tup.spaces[index]:
        eb.add(vec)
    pivot_set = set(eb.pivots)
    keep = [j for j in range(tup.ambient) if j not in pivot_set]
    new_ambient = len(keep)
    new_spaces = []
    for i, space in enumerate(tup.spaces):
        if i == index:
            continue
        rows = []
        for vec in space:
            red = eb.reduce(vec)
            rows.append([red[j] for j in keep])
        new_spaces.append(_echelon_space(rows, p, new_ambient))
    return SubspaceTuple(p, new_ambient, tuple(new_spaces))


def project_tuple(tup: SubspaceTuple, index: int) -> SubspaceTuple:
    """Project every space onto the span of the others, keeping all indices.

    The projection kernel is chosen inside space[index]: a complement W of
    its intersection with the span of the rest, extended by a complement of
    the total span. Collapsing W is exactly what makes the dimensions drop
    by dim(all) - dim(others) on index-containing subsets and nowhere else.
    """
    p = tup.p
    m = tup.ambient
    probe = EchelonBasis(p, m)
    for i, space in enumerate(tup.spaces):
        if i != index:
            for vec in space:
                probe.add(vec)
    basis_rows = [row[:] for row in probe.rows]
    r1 = len(basis_rows)
    # vectors of space[index] that extend the others' span form a complement
    # of the intersection inside space[index]; these are the kernel directions
    for vec in tup.spaces[index]:
        if probe.add(vec):
            basis_rows.append(list(vec))
    for j in range(m):
        unit = [0] * m
        unit[j] = 1
        if probe.add(unit):
            basis_rows.append(unit)
    if len(basis_rows) != m:
        raise InputError("projection basis assembly failed")

    inv = inverse(basis_rows, p)
    new_spaces = []
    for space in tup.spaces:
        rows = []
        for vec in space:
            coeff = [0] * m
            for i in range(m):
                acc = 0
                for t in range(m):
                    acc += vec[t] * inv[t][i]
                coeff[i] = acc % p
            out = [0] * m
            for i in range(r1):
                ci = coeff[i]
                if ci:
                    row = basis_rows[i]
                    for t in range(m):
                        out[t] = (out[t] + ci * row[t]) % p
            rows.append(out)
        new_spaces.append(_echelon_space(rows, p, m))
    return SubspaceTuple(p, m, tuple(new_spaces))
