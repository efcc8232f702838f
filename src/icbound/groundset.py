"""Ground sets, subset bitmasks, sparse subset-indexed vectors, lattice maps.

Subsets of a ground set are plain Python ints used as bitmasks, bit i of the
mask corresponding to label i in ground-set order. Ints are arbitrary width,
so ground sets well beyond 64 elements (e.g. three-fold lexicographic powers
on 125 messages) work unchanged. DENSE_CAP gates only the GF(p) subset walk
`gf.span_ranks`; the bound LP's 2^n rows are gated by `lp.ROW_CAP`.

A SetVector holds ints: every row of the bound LP, every rank and every
dimension vector has integer entries, so subset vectors reach the LP and its
audits with no conversion. Fractions appear only in certificate weights and
LP results. A SetVector is validated once, where its entries come from
outside the package: the public constructor checks every mask against the
ground set and refuses any value that is not an int. Vectors the package
builds itself (sums, pushforwards, rank and dimension vectors, submodular
rows) already satisfy those invariants by construction and are wrapped by
`SetVector._from_clean` without a second pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

from .errors import InputError

DENSE_CAP = 16


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


def first_repeat(items: Iterable) -> Tuple[int, object]:
    """The position and value of the first item equal to an earlier one;
    items must hold such an item."""
    seen = set()
    return next((i, x) for i, x in enumerate(items) if x in seen or seen.add(x))


class GroundSet:
    """An ordered tuple of distinct hashable labels; immutable."""

    __slots__ = ("labels", "_bits", "full_mask")

    def __init__(self, labels: Iterable):
        self.labels = tuple(labels)
        self._bits = {lab: 1 << i for i, lab in enumerate(self.labels)}
        if len(self._bits) != len(self.labels):
            _, label = first_repeat(self.labels)
            raise InputError(f"ground-set labels must be distinct; {label!r} repeats")
        self.full_mask = (1 << len(self.labels)) - 1

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self._bits[label].bit_length() - 1
        except KeyError:
            raise InputError(f"unknown label {label!r}") from None

    def mask_of(self, labels: Iterable) -> int:
        mask = 0
        bits = self._bits
        try:
            for lab in labels:
                mask |= bits[lab]
        except KeyError:
            raise InputError(f"unknown label {lab!r}") from None
        return mask

    def labels_of(self, mask: int) -> tuple:
        self.check_mask(mask)
        return tuple(self.labels[i] for i in bit_indices(mask))

    def check_mask(self, mask: int) -> int:
        if not isinstance(mask, int) or mask < 0 or mask > self.full_mask:
            raise InputError(
                f"mask {mask!r} does not fit a {self.n}-element ground set")
        return mask

    def append(self, label) -> "GroundSet":
        """New ground set with one extra label at the end."""
        return GroundSet(self.labels + (label,))

    def __eq__(self, other) -> bool:
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"GroundSet({list(self.labels)!r})"


class SetVector:
    """Sparse integer vector indexed by subset masks of a ground set.

    Built from a dict mask -> int. Zero entries are pruned on construction,
    making == structural equality. Treated as immutable; all arithmetic
    returns new vectors.
    """

    __slots__ = ("gs", "_data")

    def __init__(self, gs: GroundSet, data: dict):
        if not isinstance(data, dict):
            raise InputError(f"set vector data must be a dict mask -> int, "
                             f"got {type(data).__name__}")
        self.gs = gs
        clean: dict[int, int] = {}
        for mask, value in data.items():
            gs.check_mask(mask)
            if type(value) is not int:
                raise InputError(f"set vector entries must be ints: subset "
                                 f"{gs.labels_of(mask)} holds {type(value).__name__} {value}")
            if value:
                clean[mask] = value
        self._data = clean

    @classmethod
    def _from_clean(cls, gs: GroundSet, data: dict) -> "SetVector":
        """Wrap data as it is, without checks. The caller guarantees that
        every mask fits gs, every value is a nonzero int, and the dict
        belongs to the new vector (nothing else keeps or changes it)."""
        out = cls.__new__(cls)
        out.gs = gs
        out._data = data
        return out

    @classmethod
    def zero(cls, gs: GroundSet) -> "SetVector":
        return cls._from_clean(gs, {})

    def get(self, mask: int) -> int:
        return self._data.get(mask, 0)

    def items(self):
        return self._data.items()

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def __add__(self, other: "SetVector") -> "SetVector":
        self._check_mate(other)
        return SetVector._from_clean(self.gs, _summed(dict(self._data), other._data.items()))

    def mass(self) -> int:
        """Sum of all entries, i.e. the dot product with the all-ones vector."""
        return sum(self._data.values())

    def atom_mass(self, atom_index: int) -> int:
        """Sum over subsets containing the given atom (dot with 1_i)."""
        bit = 1 << atom_index
        return sum(v for mask, v in self._data.items() if mask & bit)

    def pushforward(self, hom: "LatticeHom") -> "SetVector":
        """Image vector: (result)_T is the sum of v_S over S with h(S) = T."""
        if hom.domain != self.gs:
            raise InputError("pushforward along a map with a different domain")
        data = self._data
        return SetVector._from_clean(hom.codomain,
                                     _summed({}, zip(map(hom.apply, data), data.values())))

    def _check_mate(self, other: "SetVector"):
        if not isinstance(other, SetVector) or other.gs != self.gs:
            raise InputError("set vectors over different ground sets")

    def __eq__(self, other) -> bool:
        return (isinstance(other, SetVector) and other.gs == self.gs
                and other._data == self._data)

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{{{','.join(map(str, self.gs.labels_of(m)))}}}: {v}"
            for m, v in sorted(self._data.items()))
        return f"SetVector({entries})"


def _summed(data: dict, entries) -> dict:
    """data with each (mask, v) of entries added in, sums of zero dropped."""
    for mask, v in entries:
        new = data.get(mask, 0) + v
        if new:
            data[mask] = new
        else:
            data.pop(mask, None)
    return data


@dataclass(frozen=True)
class LatticeHom:
    """Boolean lattice homomorphism between two subset lattices.

    Determined by the image of the empty set (base) and per-atom images:
    h(S) = base | union of atom_images[i] for i in S. Preserves union and
    intersection; need not preserve the empty set or the full set. The
    canonical-form invariants (atom images pairwise disjoint and disjoint
    from the base) are exactly what union/intersection preservation needs,
    so they are enforced at construction.
    """

    domain: GroundSet
    codomain: GroundSet
    base: int
    atom_images: tuple[int, ...]

    def __post_init__(self):
        if len(self.atom_images) != self.domain.n:
            raise InputError("need one atom image per domain label")
        self.codomain.check_mask(self.base)
        seen = self.base
        for img in self.atom_images:
            self.codomain.check_mask(img)
            if img & seen:
                raise InputError("atom images must be disjoint from each "
                                 "other and from the base")
            seen |= img

    @classmethod
    def from_labels(cls, domain: GroundSet, codomain: GroundSet,
                    base_labels: Iterable, atom_label_map: dict) -> "LatticeHom":
        """Build from label-level data; atoms absent from the map go to the base."""
        base = codomain.mask_of(base_labels)
        images = []
        for lab in domain.labels:
            images.append(codomain.mask_of(atom_label_map.get(lab, ())))
        return cls(domain, codomain, base, tuple(images))

    def apply(self, mask: int) -> int:
        self.domain.check_mask(mask)
        out = self.base
        for i in bit_indices(mask):
            out |= self.atom_images[i]
        return out

    def compose(self, inner: "LatticeHom") -> "LatticeHom":
        """The map S -> self(inner(S)); inner runs first."""
        if inner.codomain != self.domain:
            raise InputError("composition domains do not line up")
        base = self.apply(inner.base)
        images = tuple(
            self.apply(inner.base | inner.atom_images[i]) & ~base
            for i in range(inner.domain.n))
        return LatticeHom(inner.domain, self.codomain, base, images)


class BlockEmbedding(LatticeHom):
    """The hom sending atom i of outer to block i of a lexicographic product:
    bits i*width to (i+1)*width - 1 of product. apply looks up each byte of
    a mask in one 256-entry table of width-byte strings and joins them at C
    speed, where LatticeHom.apply takes a Python step per set bit."""

    def __init__(self, outer: GroundSet, product: GroundSet, width: int):
        block = (1 << width) - 1
        super().__init__(outer, product, 0, tuple(block << i * width for i in range(outer.n)))
        table = [sum(block << i * width for i in bit_indices(byte)).to_bytes(width, "little")
                 for byte in range(256)]
        object.__setattr__(self, "_spread", table.__getitem__)

    def apply(self, mask: int) -> int:
        self.domain.check_mask(mask)
        data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
        return int.from_bytes(b"".join(map(self._spread, data)), "little")
