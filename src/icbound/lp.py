"""Build and solve the broadcast-rate bound LP for an index coding instance.

The LP minimizes the value assigned to the empty set subject to: the full
message set scores n, adding one message to a known set costs at most 1 (and
costs 0 when that message is in the set's one-step closure), and every
schema row is nonnegative. Solving happens on the dual in standard form,
whose simplex multipliers are exactly the primal subset values; that keeps
the basis at size 2^n instead of the number of constraints. The primal
objective is z of the empty set alone, so the dual's right-hand side is
e_0, the one shape `simplex.StandardFormLP` takes. The crash basis climbs
from the empty set to the full set one decoding column at a time, then
covers the full set's row with w_plus.

The LP data are ints: costs 0, -1, n and -n, decoding columns (1, -1), and
each schema row's coefficients, which a SetVector holds as ints already.
`build_problem` checks every schema row where it becomes a column: the
coefficients must sum to zero, or InputError names the schema and the row.
A duck-typed schema whose vectors hold anything but ints is refused by
`StandardFormLP`'s own type check. The stronger atom-sum tightness check
stays in the test suite (`tests/oracles.schema_is_tight`).

Zero-sum rows give every bound LP an optimum, with w = x[w_plus] - x[w_minus]
= 1: the equality rows sum to that, as every other column sums to zero, and
z = n on every subset is feasible. A solver result "unbounded", or w other
than 1, is a bug and raises VerificationError. Results (`BoundSolution`) are
Fractions, and carry the dual weights as a certificate.

Each side of the optimum is checked again against the instance itself,
independently of the solver's own audit, so a bug in column construction
cannot survive unnoticed: z by an audit that recomputes closures and
re-evaluates schema rows in integers over z's common denominator, and the
certificate by `verify_certificate`, whose refusal raises VerificationError.

The LP has a row per subset and the simplex keeps a dense adjugate of
rows^2 entries, so `build_problem` refuses more than ROW_CAP rows before it
builds anything (ResourceCapError, exit 3): full C8's 256 rows solve in
about 5 s, while full C9's 512 had not finished after 15 minutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from icbound import certificate
from icbound.certificate import DualCertificate, _row_text
from icbound.errors import CertificateInvalid, InputError, ResourceCapError, VerificationError
from icbound.instance import IndexCodingInstance
from icbound.rational import Rational, scaled
from icbound.schema import SchemaRow, SubmodSchema
from icbound.simplex import SolveStats, StandardFormLP, solve_standard_form

__all__ = [
    "BoundSolution",
    "LPProblem",
    "build_problem",
    "solve_problem",
]


@dataclass
class LPProblem:
    instance: IndexCodingInstance
    schema: object
    dec_count: int  # columns 0..dec_count-1 decode: cols_idx[col] is the pair (s, t)
    schema_rows: List[SchemaRow]
    lp: StandardFormLP
    crash: List[Tuple[int, int]]
    w_plus: int
    w_minus: int


@dataclass
class BoundSolution:
    """The optimum b, the subset values z, the dual weights as a certificate
    (claimed value b) under the problem's schema, and the solver's counts."""

    value: Rational
    z: Dict[int, Rational]
    cert: DualCertificate
    stats: SolveStats

    @property
    def iterations(self) -> int:
        return self.stats.iterations


ROW_CAP = 256  # rows of the largest LP build_problem admits


def build_problem(instance: IndexCodingInstance, schema=None) -> LPProblem:
    if schema is None:
        schema = SubmodSchema()
    gs = instance.messages
    n = gs.n
    if 1 << n > ROW_CAP:
        raise ResourceCapError(
            f"the bound LP of {n} messages has {1 << n} rows, a dense adjugate of "
            f"{1 << 2 * n} entries (rows^2); the cap is {ROW_CAP} rows")

    cols_idx: List[Tuple[int, ...]] = []
    cols_val: List[tuple] = []
    cobj: list = []

    crash: List[Tuple[int, int]] = []
    for s in range(1 << n):
        cl = instance.closure(s)
        for i in range(n):
            bit = 1 << i
            if s & bit:
                continue
            t = s | bit
            cost = 0 if cl & bit else 1
            if s == bit - 1:  # the crash step {0..i-1} -> {0..i}
                crash.append((len(cols_idx), s))
            cols_idx.append((s, t))
            cols_val.append((1, -1))
            cobj.append(-cost)
    dec_count = len(cols_idx)

    schema_rows: List[SchemaRow] = []
    for pos, row in enumerate(schema.rows(gs)):
        vec = schema.row_vector(row, gs)
        if not vec:
            continue
        idx, vals = zip(*sorted(vec.items()))
        if sum(vals):
            raise InputError(
                f"schema {schema.name!r} row {pos}: coefficients sum to {sum(vals)}, not 0")
        schema_rows.append(row)
        cols_idx.append(idx)
        cols_val.append(vals)
        cobj.append(0)

    full = gs.full_mask
    w_plus = len(cols_idx)
    cols_idx.append((full,))
    cols_val.append((1,))
    cobj.append(n)
    w_minus = len(cols_idx)
    cols_idx.append((full,))
    cols_val.append((-1,))
    cobj.append(-n)

    crash.append((w_plus, full))

    lp = StandardFormLP(1 << n, cols_idx, cols_val, cobj)
    return LPProblem(instance, schema, dec_count, schema_rows, lp, crash, w_plus, w_minus)


def solve_problem(problem: LPProblem) -> BoundSolution:
    res = solve_standard_form(problem.lp, crash=problem.crash)
    if res.status != "optimal":
        raise VerificationError(
            f"bound LP came back {res.status}, yet z = n on every subset is feasible")

    z = dict(enumerate(res.y))
    x: Dict[Tuple[int, int], Rational] = {}
    for col in range(problem.dec_count):
        if res.x[col]:
            x[problem.lp.cols_idx[col]] = res.x[col]
    y: Dict[SchemaRow, Rational] = {}
    base = problem.dec_count
    for k, row in enumerate(problem.schema_rows):
        if res.x[base + k]:
            y[row] = res.x[base + k]
    cert = DualCertificate(problem.schema.name, x, y, res.objective)
    sol = BoundSolution(res.objective, z, cert, res.stats)
    _audit_against_instance(problem, sol, res.x[problem.w_plus] - res.x[problem.w_minus])
    try:
        certificate.verify_certificate(problem.instance, problem.schema, cert)
    except CertificateInvalid as exc:
        raise VerificationError(f"extracted certificate: {exc}") from None
    return sol


def _audit_against_instance(problem: LPProblem, sol: BoundSolution, w: Rational) -> None:
    """Check the primal side of the claimed optimum, z and the value, against
    the instance, not the built columns; the certificate is left to
    `verify_certificate`.

    w is the solver's scale multiplier x[w_plus] - x[w_minus], which zero-sum
    schema rows pin to 1. z is brought to integers over its common
    denominator (`rational.scaled`), so every check is integer arithmetic.
    """
    inst = problem.instance
    gs = inst.messages
    n = gs.n
    if w != 1:
        raise VerificationError(f"scale multiplier w = {w}, not 1")
    z, dz = scaled(sol.z[s] for s in range(1 << n))
    value = sol.value
    if z[gs.full_mask] != n * dz:
        raise VerificationError("full-set value is not pinned to n")
    if z[0] * value.denominator != value.numerator * dz:
        raise VerificationError("empty-set value disagrees with the LP objective")
    for s in range(1 << n):
        cl = inst.closure(s)
        zs = z[s]
        for i in range(n):
            bit = 1 << i
            if s & bit:
                continue
            if z[s | bit] - zs > (0 if cl & bit else dz):
                raise VerificationError(
                    f"solution violates the one-step decoding bound at {gs.labels_of(s)}+{gs.labels[i]}"
                )
    for row in problem.schema_rows:
        vec = problem.schema.row_vector(row, gs)
        if sum(coeff * z[mask] for mask, coeff in vec.items()) < 0:
            raise VerificationError(f"solution violates {_row_text(row, gs)}")
