"""Exact linear algebra over prime fields.

One walk answers every rank the package takes: `span_ranks`, the rank of
every subset of a list of generators (one rank is the full mask's). It
visits only the subsets below full rank (a down-set, as rank is monotone).
It packs a vector into one int, field j holding entry j mod p: a bit over
GF(2), reduced by XOR; a byte for p <= 13, where adding (p - f) times a row
leaves at most (p-1) + (p-1)^2 < 256 and one bytes.translate takes every
field mod p; else the bit length of p(p-1), reduced field by field. Fields
stay below p, so a vector is 0 exactly when it is 0 mod p.
`EchelonBasis` and `Gf2Basis` serve no package path: they remain only as
test references that the benchmark's layer table names, and go with it.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import accumulate
from typing import List, Sequence

from icbound.errors import InputError, ResourceCapError
from icbound.groundset import DENSE_CAP

__all__ = [
    "check_prime",
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


@cache
def _byte_table(p: int) -> bytes:
    """bytes.translate's table taking a byte field mod p, for 3 <= p <= 13."""
    return bytes(b % p for b in range(256))


def span_ranks(
    p: int, ambient: int, gens: Sequence[Sequence[Sequence[int]]]
) -> List[int]:
    """Rank of the vectors gens[i], i in S, for every subset mask S.

    gens[i] is a list of vectors of length ambient with int entries; a wrong
    length or entry type raises InputError naming i. More than DENSE_CAP
    generators raise ResourceCapError before anything is allocated. Every
    mask starts at top, the rank of all the generators, and a depth-first
    walk visits only the masks below top: rank is monotone, so each is
    reached from its parent, the mask minus its lowest element.

    A node carries its mask, its rank and, in one flat list with each
    element's vectors together, the vectors of every element below its
    lowest, reduced modulo its span. The rank of S + i is rank(S) plus the
    rank of i's residuals: a nonzero test for one vector; for several, each
    that is still nonzero becomes a row and reduces the rest. A child whose
    residuals are 0 shares its parent's list, one at top is dropped, and
    any other gets the list's prefix reduced by each new row in one
    comprehension. A child with no lower element only has its rank written.

    A row is a residual scaled to 1 at its pivot, its lowest nonzero field,
    and reducing by it clears that field: earlier pivots are 0 in it, so no
    step undoes another. A nonzero span vector is nonzero at the pivot of
    its first row, so a residual is 0 exactly on the span.
    """
    if len(gens) > DENSE_CAP:
        raise ResourceCapError(
            f"dense enumeration of 2^{len(gens)} subsets exceeds cap {DENSE_CAP}")
    for i, vecs in enumerate(gens):
        for vec in vecs:
            if len(vec) != ambient:
                raise InputError(f"generator {i} has a vector of length {len(vec)}, "
                                 f"expected {ambient}")
            if not set(map(type, vec)) <= {int}:  # bool too: a C-speed pass
                bad = next(v for v in vec if type(v) is not int)
                raise InputError(f"generator {i} has an entry {bad!r}, expected an int")
    w = 1 if p == 2 else 8 if p <= 13 else (p * p - p).bit_length()
    field, shifts, size = (1 << w) - 1, range(0, w * ambient, w), max(ambient, 1)
    table = _byte_table(p) if w == 8 else b""
    flat = [sum(v % p << t for v, t in zip(vec, shifts)) for vecs in gens for vec in vecs]

    def red(v: int) -> int:  # every field mod p
        if w == 8:
            return int.from_bytes(v.to_bytes(size, "little").translate(table), "little")
        return sum((v >> t & field) % p << t for t in shifts)

    def cut(res: List[int], v: int) -> List[int]:  # res reduced by v's row
        t = ((v & -v).bit_length() - 1) // w * w  # v's pivot: its lowest nonzero field
        if p == 2:
            return [u ^ v if u >> t & 1 else u for u in res]
        f = v >> t & field
        row = v if f == 1 else red(v * pow(f, p - 2, p))  # v scaled to 1 at t
        if w == 8:  # red inlined: a call per vector costs as much as the reduction
            return [int.from_bytes((u + (p - f) * row).to_bytes(size, "little").translate(table),
                                   "little") if (f := u >> t & 255) else u for u in res]
        return [red(u + (p - f) * row) if (f := u >> t & field) else u for u in res]

    ends = list(accumulate(map(len, gens), initial=0))
    top, work = 0, flat
    for k in range(len(flat)):
        if work[k]:
            work = cut(work, work[k])
            top += 1
    ranks = [top] * (1 << len(gens))
    single = set(map(len, gens)) <= {1}
    below = [(0, 0, flat, len(gens))]  # mask, rank, residuals, its lowest element
    while below:
        s, r, res, low = below.pop()
        ranks[s] = r
        for i in range(low):
            if single:  # i's one residual is res[i]
                if not i:  # a leaf: no list to make
                    ranks[s | 1] = r + bool(res[0])
                elif not res[i]:
                    below.append((s | 1 << i, r, res, i))
                elif r + 1 < top:
                    below.append((s | 1 << i, r + 1, cut(res[:i], res[i]), i))
                continue
            child, gain, b = res, 0, ends[i + 1]
            for k in range(ends[i], b):
                if child[k]:
                    if r + gain + 1 == top:
                        break
                    child = cut(child[:b] if child is res else child, child[k])
                    gain += 1
            else:
                ranks[s | 1 << i] = r + gain  # a leaf is not pushed
                if i:
                    below.append((s | 1 << i, r + gain, child, i))
    return ranks
