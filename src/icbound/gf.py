"""Exact linear algebra over prime fields.

General GF(p) vectors are int lists, kept incrementally by `EchelonBasis`;
over GF(2) a vector is a single int bitmask, kept by `Gf2Basis`. The one
subset-lattice walk, `span_ranks`, uses `Gf2Basis` when p = 2 and
`EchelonBasis` otherwise. The dense helpers are `rref` and `rank`, which
the code module uses to test a matrix for independent rows.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from icbound import kernels
from icbound.errors import InputError

__all__ = [
    "check_prime",
    "rref",
    "rank",
    "EchelonBasis",
    "Gf2Basis",
    "span_ranks",
]

# Characteristics come from input files and the command line; the cap bounds
# the trial division below at isqrt(2^31) = 46341 steps.
_PRIME_CAP = 1 << 31


def check_prime(p: int) -> int:
    """Validate a field characteristic: a prime below 2^31."""
    if p >= _PRIME_CAP:
        raise InputError(f"field size must be a prime below 2^31, got {p}")
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise InputError(f"field size must be prime, got {p}")
    return p


def rref(rows: Sequence[Sequence[int]], p: int) -> tuple[List[List[int]], List[int]]:
    """Reduced row echelon form; returns (rows copy in RREF, pivot columns)."""
    work = [[v % p for v in row] for row in rows]
    if not work:
        return [], []
    pivots = kernels.gfp_rref(work, p)
    return work, list(pivots)


def rank(rows: Sequence[Sequence[int]], p: int) -> int:
    return len(rref(rows, p)[1])


class EchelonBasis:
    """Row basis over GF(p) kept in reduced echelon form, grown one vector
    at a time. copy() is cheap on purpose: subset-lattice walks fork a basis
    at every node below full rank.
    """

    __slots__ = ("p", "ncols", "rows", "pivots")

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self.rows: List[List[int]] = []
        self.pivots: List[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> "EchelonBasis":
        dup = EchelonBasis.__new__(EchelonBasis)
        dup.p = self.p
        dup.ncols = self.ncols
        dup.rows = [row[:] for row in self.rows]
        dup.pivots = self.pivots[:]
        return dup

    def reduce(self, vec: Sequence[int]) -> List[int]:
        """Residual of vec after elimination against the current rows."""
        p = self.p
        work = [v % p for v in vec]
        for row, pc in zip(self.rows, self.pivots):
            f = work[pc]
            if f:
                for j in range(pc, self.ncols):
                    if row[j]:
                        work[j] = (work[j] - f * row[j]) % p
        return work

    def add(self, vec: Sequence[int]) -> bool:
        """Insert vec; returns True when it enlarged the span."""
        p = self.p
        work = self.reduce(vec)
        pivot = next((j for j in range(self.ncols) if work[j]), -1)
        if pivot < 0:
            return False
        inv = pow(work[pivot], p - 2, p) if p > 2 else 1
        if inv != 1:
            work = [v * inv % p for v in work]
        for row in self.rows:
            f = row[pivot]
            if f:
                for j in range(pivot, self.ncols):
                    if work[j]:
                        row[j] = (row[j] - f * work[j]) % p
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < pivot:
            pos += 1
        self.rows.insert(pos, work)
        self.pivots.insert(pos, pivot)
        return True

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))


class Gf2Basis:
    """GF(2) variant of EchelonBasis with int-bitmask rows."""

    __slots__ = ("rows",)

    def __init__(self, rows: Optional[List[int]] = None):
        self.rows: List[int] = list(rows) if rows else []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> "Gf2Basis":
        return Gf2Basis(self.rows)

    def reduce(self, vec: int) -> int:
        for row in self.rows:
            high = row.bit_length() - 1
            if (vec >> high) & 1:
                vec ^= row
        return vec

    def add(self, vec: int) -> bool:
        vec = self.reduce(vec)
        if not vec:
            return False
        high = vec.bit_length() - 1
        for i, row in enumerate(self.rows):
            if (row >> high) & 1:
                self.rows[i] ^= vec
        pos = 0
        while pos < len(self.rows) and self.rows[pos].bit_length() - 1 > high:
            pos += 1
        self.rows.insert(pos, vec)
        return True


def _pack_gf2(vec: Sequence[int]) -> int:
    """Bitmask of a GF(2) vector; & 1 reduces any int, negatives too, mod 2."""
    mask = 0
    for j, v in enumerate(vec):
        if v & 1:
            mask |= 1 << j
    return mask


def span_ranks(
    p: int, ambient: int, gens: Sequence[Sequence[Sequence[int]]]
) -> List[int]:
    """Rank of the vectors gens[i], i in S, for every subset mask S.

    gens[i] is a list of vectors of length ambient; any other length raises
    InputError naming i. One walk of the subset lattice: the basis at S is
    a copy of the basis at S minus its lowest element, extended by that
    element's vectors. A parent basis of rank ambient is shared instead:
    every vector lies in GF(p)^ambient, so no rank can exceed ambient and
    such a basis cannot grow. A basis is kept only while a later mask still
    reads it: odd masks are never read, and the last reader of T is T plus
    the element just below T's lowest one.
    """
    for i, vecs in enumerate(gens):
        for vec in vecs:
            if len(vec) != ambient:
                raise InputError(
                    f"generator {i} has a vector of length {len(vec)}, "
                    f"expected {ambient}"
                )
    if p == 2:
        gens = [[_pack_gf2(vec) for vec in vecs] for vecs in gens]
        root = Gf2Basis()
    else:
        root = EchelonBasis(p, ambient)
    bases = [root]
    ranks = [0]
    for s in range(1, 1 << len(gens)):
        low = s & -s
        parent = s ^ low
        basis = bases[parent]
        if basis.rank < ambient:
            basis = basis.copy()
            for vec in gens[low.bit_length() - 1]:
                basis.add(vec)
        if (parent & -parent) >> 1 == low:
            bases[parent] = None
        bases.append(None if s & 1 else basis)
        ranks.append(basis.rank)
    return ranks

