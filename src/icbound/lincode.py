"""Scalar linear index codes over prime fields.

A scalar linear code broadcasts the matrix-vector product Qx of the message
vector; a receiver decodes its wanted message exactly when the wanted unit
vector lies in the span of Q's rows and the known coordinates' unit vectors.
Those units clear Q's columns in the known set, so the test needs ranks only:
`is_valid_code` takes two `gf.rank`s of column subsets per receiver, and
`code_entropy_vector` walks every column subset once with `gf.span_ranks`.
Minimum-length search enumerates row spaces in reduced echelon form, which
is what keeps the tiny search spaces honest (one candidate per subspace).

`underrep_check` decides whether a matrix under-represents a matroid. A
null-space basis of such a matrix is a valid code for the matroid's
instance; the test suite builds the length-4 binary code for the
seven-message binary-matroid instance that way and checks it with
`is_valid_code`. `code_entropy_vector` gives a code's joint-rank vector,
which the tests check against the bound LP's rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from icbound.errors import InputError, ResourceCapError
from icbound.gf import check_prime, rank, span_ranks
from icbound.groundset import SetVector, popcount
from icbound.instance import IndexCodingInstance
from icbound.matroid import Matroid

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


def is_valid_code(instance: IndexCodingInstance, code: ScalarLinearCode) -> bool:
    """Every receiver (w, K) can decode: e_w lies in the span of Q's rows and
    K's units. Those units clear Q's columns in K, so the span has rank |K|
    plus the rank of Q's columns outside K, and e_w lies in it exactly when
    adding e_w leaves that rank unchanged: when Q's columns outside K have
    more rank than Q's columns outside K and w."""
    n = instance.messages.n
    if code.matrix and code.n != n:
        raise InputError(
            f"code is over {code.n} messages but the instance has {n}"
        )

    def rank_outside(mask: int) -> int:
        keep = [j for j in range(n) if not mask >> j & 1]
        return rank([[row[j] for j in keep] for row in code.matrix], code.p)

    return all(rank_outside(knows) > rank_outside(knows | 1 << want)
               for want, knows in instance.receivers)


def _rref_matrices(n: int, length: int, p: int):
    """All reduced-echelon l x n matrices of full row rank, one per row space."""
    for pivots in itertools.combinations(range(n), length):
        pivot_set = set(pivots)
        free_slots = [
            (i, j)
            for i in range(length)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        ]
        for values in itertools.product(range(p), repeat=len(free_slots)):
            rows = [[0] * n for _ in range(length)]
            for i, c in enumerate(pivots):
                rows[i][c] = 1
            for (i, j), v in zip(free_slots, values):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows)


def min_scalar_linear_rate(
    instance: IndexCodingInstance, p: int, l_max: Optional[int] = None
) -> Optional[int]:
    """Least code length over GF(p), or None when every length up to l_max fails.

    Exhaustive over row spaces in echelon form; capped at the sizes where
    that is still a moment's work.
    """
    check_prime(p)
    n = instance.messages.n
    cap = _SEARCH_CAPS.get(p)
    if cap is None or n > cap:
        known = ", ".join(f"n <= {v} over GF({k})" for k, v in _SEARCH_CAPS.items())
        raise ResourceCapError(
            f"exhaustive search supports only {known}; got n = {n} over GF({p})"
        )
    top = n if l_max is None else min(l_max, n)
    for length in range(top + 1):
        for rows in _rref_matrices(n, length, p):
            if is_valid_code(instance, ScalarLinearCode(p, rows)):
                return length
    return None


def underrep_check(matroid: Matroid, rows: Sequence[Sequence[int]], p: int) -> bool:
    """Independent rows whose column dependencies cover the matroid's.

    Whenever an element x lies in the matroid closure of a set s, x's column
    must lie in the span of s's columns. Only sets s independent in the
    matroid M (rank equal to size) are tested, which is exact:

    - every s has a basis I inside it with cl_M(I) = cl_M(s), so x in
      cl_M(s) puts x in cl_M(I);
    - the test at I puts x in cl_N(I), the closure in the column matroid N,
      and cl_N(I) lies inside cl_N(s).

    Both steps need matroid ranks, which every Matroid has: its constructor
    runs check_axioms, and the unchecked builds are matroids by construction.
    """
    check_prime(p)
    n = matroid.gs.n
    d = len(rows)
    for row in rows:
        if len(row) != n:
            raise InputError("matrix must have one column per matroid element")
    if rank([list(r) for r in rows], p) != d:
        return False
    span = span_ranks(p, d, [[[row[j] for row in rows]] for j in range(n)])
    ranks = matroid.ranks
    bits = [1 << x for x in range(n)]
    for s, r in enumerate(ranks):
        if r != popcount(s):
            continue
        for bit in bits:
            if not s & bit and ranks[s | bit] == r and span[s | bit] != span[s]:
                return False
    return True


def code_entropy_vector(
    instance: IndexCodingInstance, code: ScalarLinearCode
) -> SetVector:
    """Exact joint-rank vector: z_S = rank(rows of Q plus units of S).

    The units of S clear Q's columns in S, so z_S = |S| + rank of Q's
    columns outside S. Those column ranks come from one span_ranks walk in
    GF(p)^length, which saturates once a set of columns reaches rank
    length. For a valid code this vector satisfies every constraint of the
    bound LP, which is the whole reason the LP value is a lower bound on
    code length.
    """
    gs = instance.messages
    n = gs.n
    if code.matrix and code.n != n:
        raise InputError("code does not match the instance size")
    columns = [[[row[j] for row in code.matrix]] for j in range(n)]
    cols = span_ranks(code.p, code.length, columns)
    full = gs.full_mask
    ranks = (popcount(s) + cols[full ^ s] for s in range(1 << n))
    return SetVector._from_clean(gs, {s: r for s, r in enumerate(ranks) if r})
