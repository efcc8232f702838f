"""Scalar linear index codes over prime fields.

A scalar linear code broadcasts the matrix-vector product Qx of the message
vector; a receiver decodes its wanted message exactly when the wanted unit
vector lies in the span of Q's rows and the known coordinates' unit vectors.
Those units clear Q's columns in the known set, so the test needs ranks only,
and one `gf.span_ranks` walk over Q's columns answers every rank both
`is_valid_code` and `code_entropy_vector` read.
Q decodes exactly when ker Q has no nonzero d whose support S is bad: its
complement is not closed, so a receiver knowing only messages outside S
wants one in S, yet x and x + d agree on Qx and on what it knows. The least
length is n minus the widest subspace whose nonzero vectors all have good
supports: minrank in kernel form (Bar-Yossef, Birk, Jayram and Kol 2006).

`underrep_check` decides whether a matrix under-represents a matroid. A
null-space basis of such a matrix is a valid code for the matroid's
instance; the test suite builds the length-4 binary code for the
seven-message binary-matroid instance that way and checks it with
`is_valid_code`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product
from operator import add
from typing import List, Optional, Sequence, Tuple

from icbound.errors import InputError, ResourceCapError
from icbound.gf import check_prime, span_ranks
from icbound.groundset import SetVector
from icbound.instance import IndexCodingInstance
from icbound.matroid import Matroid, _spanned

__all__ = [
    "ScalarLinearCode",
    "is_valid_code",
    "min_scalar_linear_rate",
    "underrep_check",
    "code_entropy_vector",
]

_SEARCH_CAPS = {2: 5, 3: 4}


@dataclass(frozen=True)
class ScalarLinearCode:
    """Broadcast Qx: one output symbol per matrix row."""

    p: int
    matrix: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        check_prime(self.p)
        for i, row in enumerate(self.matrix):
            if len(row) != len(self.matrix[0]):
                raise InputError("code matrix rows must share a length")
            for j, v in enumerate(row):
                if type(v) is not int or not 0 <= v < self.p:  # a bool too
                    raise InputError(f"code matrix row {i} column {j} holds {v!r}, "
                                     f"not an int mod {self.p}")

    @property
    def length(self) -> int:
        return len(self.matrix)

    @property
    def n(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0


def _column_ranks(instance: IndexCodingInstance, code: ScalarLinearCode) -> List[int]:
    """Rank of Q's columns in S for every subset mask S of the messages."""
    n = instance.messages.n
    if code.matrix and code.n != n:
        raise InputError(f"code is over {code.n} messages but the instance has {n}")
    return span_ranks(code.p, code.length, [[[row[j] for row in code.matrix]] for j in range(n)])


def is_valid_code(instance: IndexCodingInstance, code: ScalarLinearCode) -> bool:
    """Every receiver (w, K) can decode: e_w lies in the span of Q's rows and
    K's units. Those units clear Q's columns in K, so the span has rank |K|
    plus the rank of Q's columns outside K, and e_w lies in it exactly when
    adding e_w leaves that rank unchanged: when Q's columns outside K have
    more rank than Q's columns outside K and w. Every column subset is
    ranked at once, so more than DENSE_CAP messages raise ResourceCapError."""
    cols, full = _column_ranks(instance, code), instance.messages.full_mask
    return all(cols[full ^ knows] > cols[full ^ knows ^ 1 << want]
               for want, knows in instance.receivers)


def min_scalar_linear_rate(
    instance: IndexCodingInstance, p: int, l_max: Optional[int] = None
) -> Optional[int]:
    """Least code length over GF(p), or None when it exceeds l_max.

    Kernel bases grow in reduced echelon form from the bottom row up, each new
    pivot left of the others with zeros at theirs: each subspace is met once,
    one with a bad vector is never grown, and a branch stops once the pivots
    left cannot beat the best dimension. Capped where that is a moment's work.
    """
    check_prime(p)
    n = instance.messages.n
    cap = _SEARCH_CAPS.get(p)
    if cap is None or n > cap:
        known = ", ".join(f"n <= {v} over GF({k})" for k, v in _SEARCH_CAPS.items())
        raise ResourceCapError(f"exhaustive search supports only {known}; got n = {n} over GF({p})")
    full, best = instance.messages.full_mask, 0
    good = [instance.closure(full ^ s) == full ^ s for s in range(full + 1)]

    def grow(span: List[Tuple[int, ...]], pivots: int, left: int) -> None:
        nonlocal best  # span: every vector of the subspace; left: its lowest pivot
        best = max(best, dim := pivots.bit_count())
        for c in reversed(range(left)):
            tails = product(*(range(1 if pivots >> j & 1 else p) for j in range(c + 1, n)))
            for row in ((0,) * c + (1,) + tail for tail in tails):
                if dim + c < best:  # pivots c, ..., 0 reach dim + c + 1 at most
                    return
                new = [tuple((a * r + u) % p for r, u in zip(row, v))
                       for a in range(1, p) for v in span]
                if all(good[sum(1 << j for j, x in enumerate(w) if x)] for w in new):
                    grow(span + new, pivots | 1 << c, c)

    grow([(0,) * n], 0, n)
    return n - best if l_max is None or n - best <= l_max else None


def underrep_check(matroid: Matroid, rows: Sequence[Sequence[int]], p: int) -> bool:
    """Independent rows whose column dependencies cover the matroid's: for
    every set s and element x outside it, x in the matroid closure of s puts
    x's column in the span of s's columns. Per x, the sets whose closure
    holds x are one bitset for the matroid and one for the columns, and the
    first must lie inside the second."""
    check_prime(p)
    n = matroid.gs.n
    for row in rows:
        if len(row) != n:
            raise InputError("matrix must have one column per matroid element")
    span = span_ranks(p, len(rows), [[[row[j] for row in rows]] for j in range(n)])
    if span[-1] != len(rows):
        return False
    return not any(m & ~c for m, c in zip(_spanned(matroid.ranks), _spanned(span)))


def code_entropy_vector(
    instance: IndexCodingInstance, code: ScalarLinearCode
) -> SetVector:
    """Exact joint-rank vector: z_S = rank(rows of Q plus units of S).

    The units of S clear Q's columns in S, so z_S = |S| + rank of Q's
    columns outside S, all from one span_ranks walk in GF(p)^length. For a
    valid code this vector satisfies every constraint of the bound LP, which
    is the whole reason the LP value is a lower bound on code length.
    """
    gs = instance.messages
    cols = _column_ranks(instance, code)
    ranks = list(map(add, map(int.bit_count, range(1 << gs.n)), reversed(cols)))
    return SetVector._from_clean(gs, dict(compress(enumerate(ranks), ranks)))
