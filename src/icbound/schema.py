"""Constraint schemas: reusable families of valid rows for the bound LP.

A schema assigns to every ground set a family of row vectors over its subset
lattice, through three methods: `rows`, `row_vector` and `pushforward_row`.
Rows carry structured ids so that a dual solution can be mapped along a
lattice homomorphism without re-deriving anything: pushing a row id forward
and taking its vector must equal pushing the vector forward. That commuting
square is the whole reason combined certificates verify on product
instances.

A row the LP can use has integer coefficients that sum to zero; the zero
sum is what pins the LP's scale multiplier to 1. Row vectors are SetVectors,
which hold ints (submodularity rows are +1/-1), so a row reaches the LP and
its audit as it is; Fractions appear only in certificate weights and LP
results. `lp.build_problem` checks the zero sum on every row where it
becomes a column. Tightness asks more: every row also sums to zero over the
subsets holding any one atom. The schemas built here are tight by
construction. The tightness and commuting-square checks live with the test
suite, in `tests/oracles.py` (`schema_is_tight`, `pushforward_commutes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence, Union

from icbound.errors import InputError
from icbound.groundset import GroundSet, LatticeHom, SetVector

__all__ = [
    "SubmodRow",
    "HomExtRow",
    "SideRow",
    "SchemaRow",
    "SubmodSchema",
    "HomExtSchema",
    "UnionSchema",
]


@dataclass(frozen=True)
class SubmodRow:
    """Submodularity at a pair of subsets (masks s, t)."""

    s: int
    t: int


@dataclass(frozen=True)
class HomExtRow:
    """Pushforward of a schema's generating row along hom (generator -> instance)."""

    schema: str
    hom: LatticeHom


@dataclass(frozen=True)
class SideRow:
    """Row of one side of a union schema; side is 0 (left) or 1 (right)."""

    side: int
    inner: "SchemaRow"


SchemaRow = Union[SubmodRow, HomExtRow, SideRow]


class SubmodSchema:
    """Elemental submodularity rows S+i, S+j for i < j outside S.

    The elemental family already implies submodularity at every pair of
    subsets, so the LP sees far fewer rows at the same optimum. row_vector
    still accepts an arbitrary pair row, which pushforwards produce.
    """

    name = "submod"

    def rows(self, gs: GroundSet) -> Iterator[SchemaRow]:
        n = gs.n
        for i in range(n):
            for j in range(i + 1, n):
                rest = gs.full_mask & ~(1 << i) & ~(1 << j)
                sub = rest
                while True:
                    yield SubmodRow((sub | 1 << i), (sub | 1 << j))
                    if sub == 0:
                        break
                    sub = (sub - 1) & rest

    def row_vector(self, row: SchemaRow, gs: GroundSet) -> SetVector:
        if not isinstance(row, SubmodRow):
            raise InputError(f"row {row!r} does not belong to schema {self.name}")
        s, t = row.s, row.t
        gs.check_mask(s)
        gs.check_mask(t)
        if s & ~t and t & ~s:  # the four masks are then distinct
            return SetVector._from_clean(
                gs, {s: 1, t: 1, s | t: -1, s & t: -1})
        return SetVector.zero(gs)

    def pushforward_row(self, hom: LatticeHom, row: SchemaRow) -> SchemaRow:
        if not isinstance(row, SubmodRow):
            raise InputError(f"row {row!r} does not belong to schema {self.name}")
        return SubmodRow(hom.apply(row.s), hom.apply(row.t))


class HomExtSchema:
    """All pushforwards of one fixed generating row along lattice homs.

    The generating row lives over its own ground set; for an instance ground
    set the schema's rows are its images under every hom from the generator
    lattice. Enumerating all of them is hopeless in general, so the LP-facing
    `rows` are the pushforwards along `homs`, or, when homs is None, along the
    identity embedding (when the instance reuses the generator's labels).
    row_vector and pushforward_row stay total.
    """

    def __init__(
        self,
        name: str,
        generator: GroundSet,
        alpha: SetVector,
        drop_label: object,
        homs: Optional[Sequence[LatticeHom]] = None,
    ):
        if alpha.gs != generator:
            raise InputError("generating row must live over the generator ground set")
        if drop_label not in generator.labels:
            raise InputError(f"drop label {drop_label!r} not in generator")
        self.name = name
        self.generator = generator
        self.alpha = alpha
        self.drop_label = drop_label
        self.homs = None if homs is None else list(homs)

    def embedding(self, gs: GroundSet, label_map: Mapping) -> Optional[LatticeHom]:
        """Generator labels to their label_map images in gs (themselves when
        absent), the drop label to nothing; None if an image is not in gs."""
        atom_map = {}
        for label in self.generator.labels:
            if label == self.drop_label:
                continue
            image = label_map.get(label, label)
            if image not in gs.labels:
                return None
            atom_map[label] = (image,)
        return LatticeHom.from_labels(self.generator, gs, (), atom_map)

    def rows(self, gs: GroundSet) -> Iterator[SchemaRow]:
        homs = self.homs
        if homs is None:
            ident = self.embedding(gs, {})
            homs = [] if ident is None else [ident]
        for hom in homs:
            if hom.domain != self.generator or hom.codomain != gs:
                raise InputError("explicit hom does not match generator/instance")
            yield HomExtRow(self.name, hom)

    def row_vector(self, row: SchemaRow, gs: GroundSet) -> SetVector:
        if not isinstance(row, HomExtRow) or row.schema != self.name:
            raise InputError(f"row {row!r} does not belong to schema {self.name}")
        if row.hom.domain != self.generator:
            raise InputError("row hom domain is not the schema generator")
        if row.hom.codomain != gs:
            raise InputError("row hom codomain does not match the instance")
        return self.alpha.pushforward(row.hom)

    def pushforward_row(self, hom: LatticeHom, row: SchemaRow) -> SchemaRow:
        if not isinstance(row, HomExtRow) or row.schema != self.name:
            raise InputError(f"row {row!r} does not belong to schema {self.name}")
        return HomExtRow(self.name, hom.compose(row.hom))


class UnionSchema:
    """Disjoint union of two schemas; rows are tagged with their side."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.name = f"{left.name}+{right.name}"

    def rows(self, gs: GroundSet) -> Iterator[SchemaRow]:
        for row in self.left.rows(gs):
            yield SideRow(0, row)
        for row in self.right.rows(gs):
            yield SideRow(1, row)

    def _part(self, row: SchemaRow):
        if not isinstance(row, SideRow):
            raise InputError(f"row {row!r} does not belong to schema {self.name}")
        return (self.left, self.right)[row.side]

    def row_vector(self, row: SchemaRow, gs: GroundSet) -> SetVector:
        return self._part(row).row_vector(row.inner, gs)

    def pushforward_row(self, hom: LatticeHom, row: SchemaRow) -> SchemaRow:
        part = self._part(row)
        return SideRow(row.side, part.pushforward_row(hom, row.inner))
