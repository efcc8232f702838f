"""Exact linear algebra over prime fields.

A one-off rank uses `rank`, the dense `kernels.gfp_rref` on a copy. A rank
for every subset of a list of generators uses the walk `span_ranks`, which
packs each vector into one int: over GF(2) bit j holds entry j mod 2; over
GF(p) field j of w bits holds entry j mod p, w the bit length of
(p-1)(1 + ambient(p-1)). A field starts below p and each of at most ambient
reduction steps adds at most (p-1)^2, so it never goes negative or carries.
`EchelonBasis` and `Gf2Basis` serve no package path: they remain only as
test references that the benchmark's layer table names, and go with it.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from icbound import kernels
from icbound.errors import InputError, ResourceCapError
from icbound.groundset import DENSE_CAP

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
    """Row basis over GF(p) in reduced echelon form, grown one vector at a time."""

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
    """GF(2) basis of int-bitmask rows, each 0 at earlier rows' lowest bits."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: List[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: int) -> int:
        for row in self.rows:
            if vec & row & -row:
                vec ^= row
        return vec

    def add(self, vec: int) -> bool:
        vec = self.reduce(vec)
        if vec:
            self.rows.append(vec)
        return bool(vec)


def span_ranks(
    p: int, ambient: int, gens: Sequence[Sequence[Sequence[int]]]
) -> List[int]:
    """Rank of the vectors gens[i], i in S, for every subset mask S.

    gens[i] is a list of vectors of length ambient; any other length raises
    InputError naming i. More than DENSE_CAP generators raise ResourceCapError
    before anything is allocated. The basis at S is the tuple of (shift, row)
    pairs at S minus its lowest element, extended by that element's vectors;
    a basis of rank ambient cannot grow and is shared. A basis is kept only
    while a later mask still reads it: odd masks are never read, and the last
    reader of T is T plus the element just below T's lowest one.

    Rows are used in the order they were added. Each is 1 at its own pivot
    and 0 mod p at the pivots of earlier rows, so one pass zeroes every pivot
    and no step undoes an earlier one; a nonzero span vector is nonzero at
    the pivot of its first row, so the residual is 0 exactly on the span.
    """
    if len(gens) > DENSE_CAP:
        raise ResourceCapError(
            f"dense enumeration of 2^{len(gens)} subsets exceeds cap {DENSE_CAP}")
    for i, vecs in enumerate(gens):
        for vec in vecs:
            if len(vec) != ambient:
                raise InputError(f"generator {i} has a vector of length {len(vec)}, "
                                 f"expected {ambient}")
    width = 1 if p == 2 else ((p - 1) * (1 + ambient * (p - 1))).bit_length()
    field = (1 << width) - 1
    shifts = range(0, width * ambient, width)
    packed = [[sum(v % p << t for v, t in zip(vec, shifts)) for vec in vecs] for vecs in gens]
    bases: List[Optional[tuple]] = [()]
    ranks = [0]
    for s in range(1, 1 << len(gens)):
        low = s & -s
        parent = s ^ low
        rows = bases[parent]
        if len(rows) < ambient:
            for vec in packed[low.bit_length() - 1]:
                if p == 2:
                    for shift, row in rows:
                        if vec >> shift & 1:
                            vec ^= row
                    if vec:
                        rows += (((vec & -vec).bit_length() - 1, vec),)
                    continue
                for shift, row in rows:
                    f = (vec >> shift & field) % p
                    if f:
                        vec += (p - f) * row
                for j, t in enumerate(shifts):
                    f = (vec >> t & field) % p
                    if f:
                        inv = pow(f, p - 2, p)
                        row = sum((vec >> u & field) * inv % p << u for u in shifts[j:])
                        rows += ((t, row),)
                        break
        if (parent & -parent) >> 1 == low:
            bases[parent] = None
        bases.append(None if s & 1 else rows)
        ranks.append(len(rows))
    return ranks
