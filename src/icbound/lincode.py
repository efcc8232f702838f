"""Scalar linear index codes over prime fields.

A scalar linear code broadcasts the matrix-vector product Qx of the message
vector; a receiver decodes its wanted message exactly when the wanted unit
vector lies in the span of Q's rows and the known coordinates' unit vectors.
Those units clear Q's columns in the known set, so the test needs ranks only,
and one `gf.span_ranks` walk over Q's columns answers every rank both
`is_valid_code` and `code_entropy_vector` read.
Minimum-length search enumerates row spaces in reduced echelon form (one
candidate per subspace) from the ceiling of the bound LP's value b: a valid
code's `code_entropy_vector` satisfies every row of that LP, and its value
at the empty set is the code's rank, at most its length.

`underrep_check` decides whether a matrix under-represents a matroid. A
null-space basis of such a matrix is a valid code for the matroid's
instance; the test suite builds the length-4 binary code for the
seven-message binary-matroid instance that way and checks it with
`is_valid_code`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add
from typing import List, Optional, Sequence, Tuple

from icbound import lp
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
        if self.matrix:
            width = len(self.matrix[0])
            for row in self.matrix:
                if len(row) != width:
                    raise InputError("code matrix rows must share a length")
                for v in row:
                    if not 0 <= v < self.p:
                        raise InputError(f"matrix entry {v} not reduced mod {self.p}")

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


def _rref_matrices(n: int, length: int, p: int):
    """All reduced-echelon l x n matrices of full row rank, one per row space."""
    for pivots in itertools.combinations(range(n), length):
        free = [(i, j) for i, c in enumerate(pivots) for j in range(c + 1, n) if j not in pivots]
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [[int(j == c) for j in range(n)] for c in pivots]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield tuple(map(tuple, rows))


def min_scalar_linear_rate(
    instance: IndexCodingInstance, p: int, l_max: Optional[int] = None
) -> Optional[int]:
    """Least code length over GF(p), or None when every length up to l_max fails.

    Exhaustive over row spaces in echelon form from the ceiling of the bound
    LP's value b; capped at the sizes where that is still a moment's work.
    """
    check_prime(p)
    n = instance.messages.n
    cap = _SEARCH_CAPS.get(p)
    if cap is None or n > cap:
        known = ", ".join(f"n <= {v} over GF({k})" for k, v in _SEARCH_CAPS.items())
        raise ResourceCapError(f"exhaustive search supports only {known}; got n = {n} over GF({p})")
    top = n if l_max is None else min(l_max, n)
    for length in range(math.ceil(lp.solve_problem(lp.build_problem(instance)).value), top + 1):
        for rows in _rref_matrices(n, length, p):
            if is_valid_code(instance, ScalarLinearCode(p, rows)):
                return length
    return None


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
    return SetVector._from_clean(gs, dict(itertools.compress(enumerate(ranks), ranks)))
