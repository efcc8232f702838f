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

from functools import reduce
from itertools import combinations
from operator import or_
from typing import Dict, List, Sequence, Tuple

from icbound.certificate import DualCertificate
from icbound.errors import InputError, ResourceCapError
from icbound.gf import check_prime, span_ranks
from icbound.groundset import GroundSet
from icbound.instance import IndexCodingInstance
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
_ZERO_TO_DIGIT = b"1" + b"0" * 255  # a byte to the binary digit of "it is 0"


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
        """Normalization, unit increase, and submodularity; raises InputError at the
        least failing mask, then element or pair. Ranks are packed one w-bit field per
        mask, a byte for ranks in [0, n]: a shift by w * 2^i moves field S + i onto S,
        avoid[i] keeps the S without i, and a bias of 2^(w-1) holds any step or slack."""
        n, r = self.gs.n, self.ranks
        if r[0] != 0:
            raise InputError("rank of the empty set must be 0")
        lo = min(r)
        w = max(8, (max(r) - lo).bit_length() + 2)
        packed = (int.from_bytes(bytes(r), "little") if w == 8 and lo == 0
                  else sum(x - lo << w * s for s, x in enumerate(r)))
        every = (1 << (w << n)) - 1
        ones = every // ((1 << w) - 1)
        bias = ones << w - 1
        avoid = [((1 << (w << i)) - 1) * (every // ((1 << (w << i + 1)) - 1)) for i in range(n)]

        def first(bad: int, *at: int) -> tuple:  # the lowest nonzero field's S, 2^n if none
            return (((bad & -bad).bit_length() - 1) // w if bad else 1 << n, *at)

        s, i = min([(1 << n, 0)] + [
            first(((packed >> (w << i) & m) + (bias & m) - (packed & m) ^ bias) & m & ~ones, i)
            for i, m in enumerate(avoid)])
        if s >> n == 0:
            raise InputError(f"rank step {r[s | 1 << i] - r[s]} at mask {s} plus element {i}")
        s, i, j = min([(1 << n, 0, 0)] + [
            first(bias & m & ~((packed >> (w << i) & m) + (packed >> (w << j) & m) + (bias & m)
                               - (packed >> (w << i) + (w << j) & m) - (packed & m)), i, j)
            for i, j in combinations(range(n), 2) for m in [avoid[i] & avoid[j]]])
        if s >> n == 0:
            raise InputError(f"submodularity fails at masks {s | 1 << i}, {s | 1 << j}")

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


def _without(n: int) -> List[int]:
    """Per element i of n, the int with bit s set for every mask s without i."""
    every = (1 << (1 << n)) - 1
    return [((1 << (1 << i)) - 1) * (every // ((1 << (2 << i)) - 1)) for i in range(n)]


def _spanned(ranks: Sequence[int]) -> List[int]:
    """Per element x, the int with bit s set when s avoids x and ranks[s + x] ==
    ranks[s] (x is in the closure of s): with the ranks (below 256) as the bytes
    of one int, XOR with it shifted down by 2^x bytes leaves a 0 byte there."""
    whole = int.from_bytes(bytes(ranks), "little")
    spans = []
    for x, avoid in enumerate(_without(len(ranks).bit_length() - 1)):
        diff = (whole >> (8 << x) ^ whole).to_bytes(len(ranks), "big")
        spans.append(int(diff.translate(_ZERO_TO_DIGIT), 2) & avoid)
    return spans


def to_index_coding(matroid: Matroid, minimal: bool = True) -> IndexCodingInstance:
    """Instance whose receivers demand each element given a set spanning it.

    With minimal=True only inclusion-minimal known sets are kept; the closure
    structure, and hence the LP, is unchanged, the instance is just smaller.
    Matroid ranks obey unit increase and submodularity (the constructor
    checks them), so "s spans x" is closed under taking supersets and a
    spanning s is minimal exactly when no s minus one element spans x.

    The sets spanning x are the bitset _spanned gives. clear[i] holds the
    masks without i, and the spanning sets in it shifted up by 2^i are those
    whose s minus i spans x. Receivers list each element's sets by
    descending mask.
    """
    clear = _without(matroid.gs.n)
    receivers = []
    for x, spans in enumerate(_spanned(matroid.ranks)):
        if minimal:
            spans &= ~reduce(or_, [(spans & c) << (1 << i) for i, c in enumerate(clear)])
        while spans:
            s = spans.bit_length() - 1
            receivers.append((x, s))
            spans ^= 1 << s
    return IndexCodingInstance(matroid.gs, receivers)


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
    return DualCertificate(schema.name, x, y, value)
