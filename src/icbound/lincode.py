"""Scalar linear index codes over prime fields, plus tiny table codes.

A scalar linear code broadcasts the matrix-vector product Qx of the message
vector; a receiver decodes its wanted message exactly when the wanted unit
vector lies in the span of Q's rows and the known coordinates' unit vectors.
Minimum-length search enumerates row spaces in reduced echelon form, which
is what keeps the tiny search spaces honest (one candidate per subspace).

Under-representations of a matroid convert to valid codes for the matroid's
instance and back by taking null-space bases; that conversion is how the
length-4 binary code for the seven-message binary-matroid instance is
produced without any search.

Table codes exist for one purpose: concatenating two scalar linear codes
into an explicit code for the lexicographic product and checking, receiver
by receiver and fiber by fiber, that everything still decodes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from icbound.errors import InputError, ResourceCapError, VerificationError
from icbound.gf import EchelonBasis, check_prime, nullspace, rank, span_ranks
from icbound.groundset import SetVector, popcount
from icbound.instance import IndexCodingInstance
from icbound.matroid import Matroid, to_index_coding

__all__ = [
    "ScalarLinearCode",
    "identity_code",
    "is_valid_code",
    "min_scalar_linear_rate",
    "underrep_check",
    "underrep_to_code",
    "code_to_underrep",
    "code_entropy_vector",
    "table_entropy_vector",
    "TableCode",
    "is_valid_table_code",
    "concatenate_codes",
]

_SEARCH_CAPS = {2: 5, 3: 4}
_TABLE_CAP = 1 << 20


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

    def row_rank(self) -> int:
        return rank([list(r) for r in self.matrix], self.p)


def identity_code(p: int, n: int) -> ScalarLinearCode:
    rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return ScalarLinearCode(p, rows)


def _unit(n: int, i: int) -> List[int]:
    row = [0] * n
    row[i] = 1
    return row


def is_valid_code(instance: IndexCodingInstance, code: ScalarLinearCode) -> bool:
    """Every receiver can decode: e_want in span(rows of Q, knowns' units)."""
    n = instance.messages.n
    if code.matrix and code.n != n:
        raise InputError(
            f"code is over {code.n} messages but the instance has {n}"
        )
    for want, knows in instance.receivers:
        basis = EchelonBasis(code.p, n)
        for row in code.matrix:
            basis.add(row)
        k = knows
        while k:
            low = k & -k
            basis.add(_unit(n, low.bit_length() - 1))
            k ^= low
        if not basis.contains(_unit(n, want)):
            return False
    return True


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

    Whenever an element's rank is already carried by a set, the element's
    column must lie in that set's column span.
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
    for s in range(1 << n):
        for x in range(n):
            bit = 1 << x
            if s & bit:
                continue
            if matroid.ranks[s | bit] == matroid.ranks[s] and span[s | bit] != span[s]:
                return False
    return True


def underrep_to_code(
    matroid: Matroid, rows: Sequence[Sequence[int]], p: int
) -> ScalarLinearCode:
    """Null-space basis of an under-representation, as a code of length n - d."""
    if not underrep_check(matroid, rows, p):
        raise InputError("matrix does not under-represent the matroid")
    n = matroid.gs.n
    basis = nullspace([list(r) for r in rows], p, n)
    code = ScalarLinearCode(p, tuple(tuple(v) for v in basis))
    if not is_valid_code(to_index_coding(matroid), code):
        raise VerificationError("null-space code failed validity; construction bug")
    return code


def code_to_underrep(matroid: Matroid, code: ScalarLinearCode) -> List[List[int]]:
    """Null-space basis of a valid full-row-rank code, as an under-representation."""
    n = matroid.gs.n
    if code.n != n:
        raise InputError("code size does not match the matroid")
    if code.row_rank() != code.length:
        raise InputError("code matrix must have full row rank")
    if not is_valid_code(to_index_coding(matroid), code):
        raise InputError("code is not valid for the matroid's instance")
    rows = nullspace([list(r) for r in code.matrix], code.p, n)
    if not underrep_check(matroid, rows, code.p):
        raise VerificationError("null space fails the under-representation check")
    return rows


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
    ranks = [popcount(s) + cols[full ^ s] for s in range(1 << n)]
    return SetVector(gs, {s: r for s, r in enumerate(ranks) if r})


@dataclass(frozen=True)
class TableCode:
    """Explicit encoding table over a small alphabet.

    Inputs are indexed little-endian by message: message i contributes
    digit (index // sigma^i) mod sigma. Output values are opaque; only
    equality matters for decodability.
    """

    sigma: int
    n: int
    table: Tuple[object, ...]

    def __post_init__(self):
        if self.sigma < 1 or self.n < 0:
            raise InputError("alphabet and message count must be positive")
        total = self.sigma**self.n
        if total > _TABLE_CAP:
            raise ResourceCapError(f"table of {total} entries exceeds {_TABLE_CAP}")
        if len(self.table) != total:
            raise InputError(f"table must have exactly {total} entries")

    def digits(self, index: int) -> Tuple[int, ...]:
        out = []
        for _ in range(self.n):
            out.append(index % self.sigma)
            index //= self.sigma
        return tuple(out)


def is_valid_table_code(instance: IndexCodingInstance, code: TableCode) -> bool:
    """Fiber test: output plus known coordinates must pin the wanted one."""
    n = instance.messages.n
    if code.n != n:
        raise InputError("table code does not match the instance size")
    for want, knows in instance.receivers:
        seen: Dict[tuple, int] = {}
        for index, out in enumerate(code.table):
            digits = code.digits(index)
            key = (out, tuple(digits[i] for i in range(n) if knows >> i & 1))
            prev = seen.get(key)
            if prev is None:
                seen[key] = digits[want]
            elif prev != digits[want]:
                return False
    return True


def table_entropy_vector(
    instance: IndexCodingInstance, code: TableCode
) -> Dict[int, float]:
    """Shannon entropies of (output, known part), in message symbols.

    Floating point by necessity; callers compare with a tolerance. Keys are
    subset masks, like a SetVector's, but the values are binary64.
    """
    n = instance.messages.n
    if code.n != n:
        raise InputError("table code does not match the instance size")
    total = len(code.table)
    log_sigma = math.log2(code.sigma) if code.sigma > 1 else 1.0
    out: Dict[int, float] = {}
    for s in range(1 << n):
        counts: Dict[tuple, int] = {}
        for index, val in enumerate(code.table):
            digits = code.digits(index)
            key = (val, tuple(digits[i] for i in range(n) if s >> i & 1))
            counts[key] = counts.get(key, 0) + 1
        h_bits = math.log2(total) - sum(
            c * math.log2(c) for c in counts.values()
        ) / total
        out[s] = h_bits / log_sigma
    return out


def concatenate_codes(
    inst_g: IndexCodingInstance,
    inst_f: IndexCodingInstance,
    code_g: ScalarLinearCode,
    code_f: ScalarLinearCode,
) -> TableCode:
    """Inner-outer concatenation on the lexicographic product, as a table.

    The inner code runs once per outer message on its block; each inner
    output is carried as base-p_G digits, and the outer code runs once per
    digit position across blocks. The finished table is checked for every
    product receiver before being returned.
    """
    ng = inst_g.messages.n
    nf = inst_f.messages.n
    if code_g.matrix and code_g.n != ng:
        raise InputError("outer code does not match the first instance")
    if code_f.matrix and code_f.n != nf:
        raise InputError("inner code does not match the second instance")
    if not is_valid_code(inst_g, code_g) or not is_valid_code(inst_f, code_f):
        raise InputError("both codes must be valid for their instances")

    product = inst_g.lex_product(inst_f)
    pf, pg = code_f.p, code_g.p
    inner_range = pf**code_f.length
    ndigits = 0
    span = 1
    while span < inner_range:
        span *= pg
        ndigits += 1

    sigma = pf
    total = sigma ** (ng * nf)
    if total > _TABLE_CAP:
        raise ResourceCapError(f"product table of {total} entries exceeds {_TABLE_CAP}")

    table: List[object] = []
    for index in range(total):
        digits = []
        idx = index
        for _ in range(ng * nf):
            digits.append(idx % sigma)
            idx //= sigma
        inner_digits: List[List[int]] = []
        for g in range(ng):
            block = digits[g * nf : (g + 1) * nf]
            symbols = [
                sum(q * v for q, v in zip(row, block)) % pf for row in code_f.matrix
            ]
            value = 0
            for sym in reversed(symbols):
                value = value * pf + sym
            base_g = []
            for _ in range(ndigits):
                base_g.append(value % pg)
                value //= pg
            inner_digits.append(base_g)
        word = []
        for j in range(ndigits):
            column = [inner_digits[g][j] for g in range(ng)]
            for row in code_g.matrix:
                word.append(sum(q * v for q, v in zip(row, column)) % pg)
        table.append(tuple(word))

    code = TableCode(sigma, ng * nf, tuple(table))
    if not is_valid_table_code(product, code):
        raise VerificationError("concatenated table failed decoding; construction bug")
    return code
