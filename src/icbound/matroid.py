"""Matroids, their index coding instances, and rank-driven certificates.

A matroid here is a dense rank vector over subsets of a small labeled ground
set, however it was produced (a representation matrix, a rank function, a
hand-written table). The index coding instance of a matroid has one receiver
per (element, minimal spanning-avoiding set) pair; its one-step closure is
exactly matroid closure, and the plain LP bound lands at n - r by design.

addineq_certificate turns any tight schema row that is negative on the rank
vector into an explicit dual certificate beating n - r. This is the engine
behind strict bounds for the binary/ternary matroid pair: no LP solve is
involved, just a greedy basis chase, and the result is checked by the same
verifier as everything else.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from icbound.certificate import DualCertificate
from icbound.errors import InputError, ResourceCapError
from icbound.gf import check_prime, span_ranks
from icbound.groundset import GroundSet
from icbound.instance import ClosureMode, IndexCodingInstance
from icbound.rational import ZERO, Rational

__all__ = [
    "Matroid",
    "rank_from_matrix",
    "fano",
    "nonfano",
    "to_index_coding",
    "addineq_certificate",
]

_MATROID_CAP = 12


def _check_cap(gs: GroundSet) -> GroundSet:
    if gs.n > _MATROID_CAP:
        raise ResourceCapError(
            f"dense matroid limited to {_MATROID_CAP} elements, got {gs.n}"
        )
    return gs


class Matroid:
    """Ground set plus a dense rank vector indexed by subset mask."""

    __slots__ = ("gs", "ranks")

    def __init__(self, gs: GroundSet, ranks: Sequence[int]):
        """Raises InputError unless the ranks obey the matroid axioms."""
        self._set_ranks(gs, ranks)
        self.check_axioms()

    @classmethod
    def _unchecked(cls, gs: GroundSet, ranks: Sequence[int]) -> "Matroid":
        """For ranks that obey the axioms by construction (ranks of matrix
        columns): skips check_axioms."""
        m = cls.__new__(cls)
        m._set_ranks(gs, ranks)
        return m

    def _set_ranks(self, gs: GroundSet, ranks: Sequence[int]) -> None:
        _check_cap(gs)
        if len(ranks) != (1 << gs.n):
            raise InputError("rank vector length must be 2^n")
        ranks = tuple(ranks)
        if set(map(type, ranks)) != {int}:  # one C-speed pass when all is well
            for mask, r in enumerate(ranks):
                if type(r) is not int:
                    raise InputError(f"matroid ranks must be ints: subset "
                                     f"{gs.labels_of(mask)} holds {type(r).__name__} {r}")
        self.gs = gs
        self.ranks = ranks

    @property
    def n(self) -> int:
        return self.gs.n

    @property
    def full_rank(self) -> int:
        return self.ranks[self.gs.full_mask]

    def check_axioms(self) -> None:
        """Normalization, unit increase, and submodularity; raises InputError."""
        n = self.gs.n
        r = self.ranks
        if r[0] != 0:
            raise InputError("rank of the empty set must be 0")
        for s in range(1 << n):
            for i in range(n):
                bit = 1 << i
                if s & bit:
                    continue
                step = r[s | bit] - r[s]
                if step not in (0, 1):
                    raise InputError(f"rank step {step} at mask {s} plus element {i}")
        for s in range(1 << n):
            for i in range(n):
                if s & (1 << i):
                    continue
                for j in range(i + 1, n):
                    if s & (1 << j):
                        continue
                    a, b = s | (1 << i), s | (1 << j)
                    if r[a] + r[b] < r[a | b] + r[s]:
                        raise InputError(f"submodularity fails at masks {a}, {b}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matroid)
            and self.gs == other.gs
            and self.ranks == other.ranks
        )

    def __repr__(self) -> str:
        return f"Matroid({self.gs.labels!r}, rank {self.full_rank})"


def rank_from_matrix(
    labels: Sequence[object], columns: Sequence[Sequence[int]], p: int
) -> Matroid:
    """Matroid of a matrix over GF(p); columns are indexed by labels, and
    span_ranks refuses one not as tall as the first, naming its index.
    More than _MATROID_CAP columns are refused before the 2^n-mask walk."""
    check_prime(p)
    gs = _check_cap(GroundSet(tuple(labels)))
    if len(columns) != gs.n:
        raise InputError("need exactly one column per label")
    dim = len(columns[0]) if columns else 0
    return Matroid._unchecked(gs, span_ranks(p, dim, [[c] for c in columns]))


_FANO_LABELS = ("100", "010", "001", "110", "101", "011", "111")


def _fano_columns() -> List[List[int]]:
    return [[int(ch) for ch in lab] for lab in _FANO_LABELS]


def fano() -> Matroid:
    """Rank-3 matroid of the seven nonzero binary triples over GF(2)."""
    return rank_from_matrix(_FANO_LABELS, _fano_columns(), 2)


def nonfano() -> Matroid:
    """The same seven columns read over GF(3), where the three two-one
    labels become independent; ranks agree with any odd characteristic."""
    return rank_from_matrix(_FANO_LABELS, _fano_columns(), 3)


def to_index_coding(matroid: Matroid, minimal: bool = True) -> IndexCodingInstance:
    """Instance whose receivers demand each element given a set spanning it.

    With minimal=True only inclusion-minimal known sets are kept; the closure
    structure, and hence the LP, is unchanged, the instance is just smaller.
    Matroid ranks obey unit increase and submodularity (the constructor
    checks them), so "s spans x" is closed under taking supersets and a
    spanning s is minimal exactly when no s minus one element spans x.
    """
    gs = matroid.gs
    ranks = matroid.ranks
    receivers = []
    for x in range(gs.n):
        bit = 1 << x
        rest = gs.full_mask & ~bit
        s = rest
        while True:
            if ranks[s | bit] == ranks[s] and not (
                minimal and _spanned_without_one(ranks, s, bit)
            ):
                receivers.append((x, s))
            if s == 0:
                break
            s = (s - 1) & rest
    return IndexCodingInstance(gs, receivers)


def _spanned_without_one(ranks: Sequence[int], s: int, bit: int) -> bool:
    """True when s minus some one of its elements still spans bit."""
    t = s
    while t:
        u = s ^ (t & -t)
        if ranks[u | bit] == ranks[u]:
            return True
        t &= t - 1
    return False


def _greedy_independent(matroid: Matroid, inside: int, start: int = 0) -> int:
    """Grow start to a maximal independent subset of inside, scanning by index."""
    out = start
    r = matroid.ranks[out]
    for i in range(matroid.gs.n):
        bit = 1 << i
        if inside & bit and not (out & bit) and matroid.ranks[out | bit] > r:
            out |= bit
            r += 1
    return out


def addineq_certificate(matroid: Matroid, row, schema) -> DualCertificate:
    """Dual certificate worth n - r(E) - (a . ranks)/s from a cutting row.

    The row (given by its schema id) must sum to zero over all subsets and
    evaluate negatively on the rank vector; s is the positive part of the
    row's weight, the scale that the underlying construction normalizes by.
    Follows the basis-chase construction: positive-weight sets are reached
    from the empty set through a maximal independent subset, negative-weight
    sets are pushed through a completed basis up to the full set.
    """
    gs = matroid.gs
    a = schema.row_vector(row, gs)
    if a.mass() != 0:
        raise InputError("row weights must sum to zero")
    deficit = sum(coeff * matroid.ranks[s] for s, coeff in a.items())
    if not deficit < 0:
        raise InputError(f"row does not cut the rank vector (value {deficit})")

    full = gs.full_mask
    scale = a.get(0)
    for s, coeff in a.items():
        if coeff > 0 and s not in (0, full):
            scale += coeff
    if not scale > 0:
        raise InputError(f"degenerate row normalization {scale}")

    x: Dict[Tuple[int, int], Rational] = {}

    def bump(s: int, t: int, v: Rational) -> None:
        if s != t:
            x[(s, t)] = x.get((s, t), ZERO) + v

    for s, coeff in a.items():
        if s in (0, full) or not coeff:
            continue
        if coeff > 0:
            m = _greedy_independent(matroid, s)
            w = Rational(coeff, scale)
            bump(0, m, w)
            bump(m, s, w)
        else:
            m = _greedy_independent(matroid, s)
            basis = _greedy_independent(matroid, full, start=m)
            u = s | basis
            w = Rational(-coeff, scale)
            bump(s, u, w)
            bump(u, full, w)

    y = {row: Rational(1, scale)}
    value = gs.n - matroid.full_rank - Rational(deficit, scale)
    return DualCertificate(schema.name, ClosureMode.SINGLE_STEP, x, y, value)
