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
extra element and, per element, a projection step. Only their transposes are
needed to build the rows, so only the transposes live here. The forward maps
are dense matrices in the test suite (`tests/oracles.py`), and the
vector-space constructions that realize them on subspace tuples over GF(p)
(quotient by a subspace, projection along a chosen complement) are in
`tests/lemmas.py`, where the tests check the commutation exactly.
`dimension_vector` gives the joint-span dimensions those checks compare.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress
from typing import Optional, Tuple

from icbound.errors import InputError
from icbound.gf import check_prime, span_ranks
from icbound.groundset import GroundSet, SetVector
from icbound.matroid import _FANO_LABELS
from icbound.schema import HomExtSchema, SubmodSchema, UnionSchema

__all__ = [
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
]


# -- transposes of the B maps on subset-indexed vectors ----------------------


def _split_last(gs_j: GroundSet, drop_label) -> GroundSet:
    if gs_j.labels[-1] != drop_label:
        raise InputError("the dropped element must be the last ground-set label")
    return GroundSet(gs_j.labels[:-1])


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
    return (SetVector(gs_j, {mask | e_bit: v for mask, v in w.items()})
            + SetVector(gs_j, {e_bit: -w.mass()}))


def tighten_transpose_apply(w: SetVector, drop_label="e") -> SetVector:
    """Transpose of B; sends a row over I to a row over I plus e.

    B is the quotient step followed by one projection step per element, in
    ascending label order. So the projection transposes run in reverse
    element order, and the quotient transpose runs last.
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
    return SetVector(gs, {gs.mask_of(labels): c for c, labels in terms})


def lambda_even() -> SetVector:
    """Valid on subspace-tuple dimension vectors in characteristic 2."""
    return _lambda_vector(_LAMBDA_EVEN)


def lambda_odd() -> SetVector:
    """Valid on subspace-tuple dimension vectors in characteristic not 2."""
    return _lambda_vector(_LAMBDA_ODD)


@functools.cache
def fano_alpha(parity: str) -> SetVector:
    """Tightened generating row over the 8-element ground set, cached."""
    if parity == "even":
        lam = lambda_even()
    elif parity == "odd":
        lam = lambda_odd()
    else:
        raise InputError(f"parity must be 'even' or 'odd', got {parity!r}")
    return tighten_transpose_apply(lam, "e")


def fano_schema(parity: str, homs=None) -> HomExtSchema:
    alpha = fano_alpha(parity)
    return HomExtSchema(f"fano-{parity}", alpha.gs, alpha, "e", homs)


def schema_with_submod(parity: str, homs=None) -> UnionSchema:
    """submod+fano-odd / submod+fano-even, the schemas the separation uses."""
    return UnionSchema(SubmodSchema(), fano_schema(parity, homs))


# -- explicit subspace tuples over GF(p) --------------------------------------


@dataclass(frozen=True)
class SubspaceTuple:
    """Tuple of subspaces of GF(p)^ambient, each given by independent int rows."""

    p: int
    ambient: int
    spaces: Tuple[Tuple[Tuple[int, ...], ...], ...]

    def __post_init__(self):
        check_prime(self.p)
        for i, space in enumerate(self.spaces):
            if any(len(vec) != self.ambient for vec in space):
                raise InputError(f"space {i} has a row of wrong length, expected {self.ambient}")
            if bad := [v for vec in space for v in vec if type(v) is not int]:  # a bool too
                raise InputError(f"space {i} has an entry {bad[0]!r}, expected an int")
            if span_ranks(self.p, self.ambient, [space])[-1] != len(space):
                raise InputError(f"space {i} rows are not independent")

    @property
    def count(self) -> int:
        return len(self.spaces)


def dimension_vector(tup: SubspaceTuple, gs: Optional[GroundSet] = None) -> SetVector:
    """Exact dimension of the joint span for every subset of the tuple."""
    if gs is None:
        gs = GroundSet(tuple(str(i) for i in range(tup.count)))
    if gs.n != tup.count:
        raise InputError("ground set size does not match the tuple")
    ranks = span_ranks(tup.p, tup.ambient, tup.spaces)
    return SetVector._from_clean(gs, dict(compress(enumerate(ranks), ranks)))
