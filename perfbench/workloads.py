"""The four workloads: their inputs, their operations and the checks on them.

A workload's `setup` writes input files (and, where an operation is an API
call, builds its arguments) into a fresh directory. `chains` returns the
operations of one pass, grouped into chains whose operations must run in
order; the runner shuffles the chains with the seed. Every operation carries
its own check, which returns None when the output is right and a reason
otherwise. Expected values come from expected.json or from the oracle in
tests/oracles.py, never from icbound alone.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import oracles
from inputs import (
    FANO_COLUMNS,
    FANO_LABELS,
    column_rank,
    cycle_receivers,
    instance_json,
    matroid_receivers,
    numbered,
    parity_row,
    random_matrix,
    write_json,
)

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())


@dataclass
class Outcome:
    """What one operation produced: CLI exit code and output, or API result."""

    rc: int = 0
    out: str = ""
    value: object = None


@dataclass
class Op:
    """One CLI command (argv) or one API call (call), plus its check.

    record names the instance in the pivot-path record when the operation
    solves an LP.
    """

    label: str
    check: Callable[[Outcome], Optional[str]]
    argv: Optional[List[str]] = None
    call: Optional[Callable[[], object]] = None
    record: Optional[str] = None


@dataclass
class Context:
    """Per-run state a workload builds in setup and reads in its passes."""

    workdir: Path
    rng: random.Random
    reduced: bool
    icb: object
    data: Dict[str, object] = field(default_factory=dict)


Cli = Callable[[List[str]], Outcome]


def _printed(out: str, key: str) -> Optional[str]:
    match = re.search(rf"^{re.escape(key)} = (\S+)$", out, re.MULTILINE)
    return match.group(1) if match else None


def _expect_printed(key: str, expect) -> Callable[[Outcome], Optional[str]]:
    want = str(Fraction(expect))

    def check(res: Outcome) -> Optional[str]:
        if res.rc != 0:
            return f"exit code {res.rc}"
        got = _printed(res.out, key)
        if got is None or str(Fraction(got)) != want:
            return f"{key} = {got}, expected {want}"
        return None

    return check


def _solve_op(cli: Cli, name: str, path: Path, expect: str, schema: str = "submod") -> Op:
    """icb solve --emit-cert, then a separate icb verify of the certificate."""
    cert = path.with_suffix(".cert.json")
    printed_b = _expect_printed("b", expect)
    printed_value = _expect_printed("value", expect)

    def check(res: Outcome) -> Optional[str]:
        reason = printed_b(res)
        if reason is None:
            reason = printed_value(cli(["verify", str(path), str(cert)]))
            if reason is not None:
                reason = "re-verification: " + reason
        return reason

    argv = ["solve", str(path), "--schema", schema, "--emit-cert", str(cert)]
    return Op(name, check, argv=argv, record=name)


# -- solve-large ------------------------------------------------------------


def setup_solve_large(ctx: Context) -> None:
    if ctx.reduced:
        cases = [("C6", numbered(6), cycle_receivers(6), "submod", "3")]
    else:
        _, nonfano = matroid_receivers(FANO_LABELS, FANO_COLUMNS, 3)
        fixed = EXPECTED["fixed"]
        cases = [
            ("C7", numbered(7), cycle_receivers(7), "submod", fixed["C7"]["b"]),
            ("nonfano/submod+fano-odd", FANO_LABELS, nonfano, "submod+fano-odd",
             fixed["nonfano/submod+fano-odd"]["b"]),
        ]
    files = []
    for name, labels, receivers, schema, expect in cases:
        path = write_json(ctx.workdir / f"{name.replace('/', '_')}.json",
                          instance_json(labels, receivers))
        files.append((name, path, schema, expect))
    ctx.data["cases"] = files


def chains_solve_large(ctx: Context, cli: Cli) -> List[List[Op]]:
    return [[_solve_op(cli, name, path, expect, schema)]
            for name, path, schema, expect in ctx.data["cases"]]


# -- solve-small ------------------------------------------------------------


def _stratified(rng: random.Random, ranked: List[dict], take: int) -> List[dict]:
    """`take` of every four consecutive entries of `ranked`."""
    batch = []
    for start in range(0, len(ranked), 4):
        group = ranked[start:start + 4]
        batch.extend(rng.sample(group, max(1, len(group) * take // 4)))
    return batch


def setup_solve_small(ctx: Context) -> None:
    # Stratified draw from the pool sorted by recorded iteration count, so
    # every seed gets a different batch of about the same work: three of
    # every four 4-message entries and one of every four 5-message entries.
    # 4-message solves are then about 70% of the batch, which keeps the
    # median deep inside their cluster instead of on the gap between the
    # two sizes. The slowest 5-message entries are always in, so op_s.tail
    # does not hinge on which of them a seed happens to draw.
    ranked = sorted(EXPECTED["pool"], key=lambda e: (e["iterations"], e["name"]))
    if ctx.reduced:
        ranked = ranked[::10]
    fours = [e for e in ranked if e["n"] == 4]
    fives = [e for e in ranked if e["n"] == 5]
    slowest = 1 if ctx.reduced else 4
    batch = (_stratified(ctx.rng, fours, 3) + _stratified(ctx.rng, fives[:-slowest], 1)
             + fives[-slowest:])
    cases = [(e["name"], numbered(e["n"]), [tuple(r) for r in e["receivers"]], e["b"])
             for e in batch]
    for length in (4, 5):
        cases.append((f"C{length}", numbered(length), cycle_receivers(length),
                      EXPECTED["fixed"][f"C{length}"]["b"]))
    files = []
    for name, labels, receivers, expect in cases:
        path = write_json(ctx.workdir / f"{name}.json", instance_json(labels, receivers))
        files.append((name, path, expect))
    ctx.data["cases"] = files


def chains_solve_small(ctx: Context, cli: Cli) -> List[List[Op]]:
    return [[_solve_op(cli, name, path, expect)] for name, path, expect in ctx.data["cases"]]


# -- certify ----------------------------------------------------------------


def setup_certify(ctx: Context) -> None:
    icb = ctx.icb
    from icbound.formats import certificate_to_json, dump_json, schema_by_name

    work = ctx.workdir
    c5, schema, cert = icb.c5_certificate()
    write_json(work / "c5.json", instance_json(numbered(5), cycle_receivers(5)))
    dump_json(certificate_to_json(cert, c5.messages, schema), str(work / "c5.cert.json"))
    factors = {"c5": (5, 5)}
    for name, p, parity in (("fano", 2, "odd"), ("nonfano", 3, "even")):
        if ctx.reduced and name == "nonfano":
            continue
        labels, receivers = matroid_receivers(FANO_LABELS, FANO_COLUMNS, p)
        write_json(work / f"{name}.json", instance_json(labels, receivers))
        matroid = icb.fano() if p == 2 else icb.nonfano()
        inst = icb.IndexCodingInstance.from_receivers(
            icb.GroundSet(labels),
            [(labels[w], [labels[i] for i in range(7) if k >> i & 1]) for w, k in receivers])
        row_schema = schema_by_name(f"submod+fano-{parity}")
        factor_cert = icb.addineq_certificate(matroid, parity_row(icb, row_schema, inst), row_schema)
        dump_json(certificate_to_json(factor_cert, inst.messages, row_schema),
                  str(work / f"{name}.cert.json"))
        factors[name] = (7, len(receivers))
    ctx.data["factors"] = factors


def _product_check(path: Path, messages: int, receivers: int) -> Callable[[Outcome], Optional[str]]:
    def check(res: Outcome) -> Optional[str]:
        if res.rc != 0:
            return f"exit code {res.rc}"
        obj = json.loads(path.read_text(encoding="utf-8"))
        if len(obj["messages"]) != messages or len(obj["receivers"]) != receivers:
            return (f"product has {len(obj['messages'])} messages and {len(obj['receivers'])} "
                    f"receivers, expected {messages} and {receivers}")
        return None

    return check


def _product_chain(ctx: Context, outer: str, inner: str, steps: int, keys: List[str]) -> List[Op]:
    """Square (or power up) a factor: product, combine, verify per step."""
    work = ctx.workdir
    n_in, r_in = ctx.data["factors"][inner]
    n_out, r_out = ctx.data["factors"][outer]
    ops = []
    left = outer
    for step in range(steps):
        prod = f"{outer}x{inner}^{step + 2}"
        inst = str(work / f"{prod}.json")
        cert = str(work / f"{prod}.cert.json")
        n_out, r_out = n_out * n_in, r_out * r_in
        expect = EXPECTED["products"][keys[step]]
        ops.append(Op(f"product {prod}", _product_check(Path(inst), n_out, r_out),
                      argv=["product", str(work / f"{left}.json"), str(work / f"{inner}.json"),
                            "--out", inst]))
        ops.append(Op(f"combine {prod}", _expect_printed("value", expect),
                      argv=["combine", str(work / f"{left}.json"), str(work / f"{inner}.json"),
                            str(work / f"{left}.cert.json"), str(work / f"{inner}.cert.json"),
                            "--out", cert]))
        ops.append(Op(f"verify {prod}", _expect_printed("value", expect),
                      argv=["verify", inst, cert]))
        left = prod
    return ops


def chains_certify(ctx: Context, cli: Cli) -> List[List[Op]]:
    c5_steps = 2 if ctx.reduced else 3
    chains = [_product_chain(ctx, "c5", "c5", c5_steps, ["C5^2", "C5^3", "C5^4"])]
    chains.append(_product_chain(ctx, "fano", "fano", 1, ["fano/submod+fano-odd^2"]))
    if not ctx.reduced:
        chains.append(_product_chain(ctx, "nonfano", "nonfano", 1, ["nonfano/submod+fano-even^2"]))
    return chains


# -- lattice ----------------------------------------------------------------


def _spot_masks(rng: random.Random, n: int, count: int = 8) -> List[int]:
    return [rng.randrange(1, 1 << n) for _ in range(count)]


def setup_lattice(ctx: Context) -> None:
    icb = ctx.icb
    rng = ctx.rng
    work = ctx.workdir
    small = ctx.reduced
    data = ctx.data

    matroids = []
    for k, (p, form) in enumerate(((2, "matrix"), (3, "matrix"), (5, "matrix"), (3, "ranks"))):
        n = 8 if small else 10
        mat = random_matrix(rng, p, 4, n)
        labels = [f"e{i + 1}" for i in range(n)]
        cols = [[row[j] for row in mat] for j in range(n)]
        if form == "matrix":
            obj = {"elements": labels, "matrix": {"p": p, "rows": mat}}
        else:
            obj = {"elements": labels, "ranks": [column_rank(cols, s, p) for s in range(1 << n)]}
        path = write_json(work / f"matroid{k}.json", obj)
        matroids.append((f"matroid{k} p={p} {form}", path, cols, p))
    data["matroids"] = matroids

    pool = EXPECTED["pool"]
    searches = []
    for n, p in ((5, 2), (5, 2), (4, 2), (4, 3)):
        entry = rng.choice([e for e in pool if e["n"] == n])
        path = write_json(work / f"search{len(searches)}.json",
                          instance_json(numbered(n), [tuple(r) for r in entry["receivers"]]))
        searches.append((f"{entry['name']} GF({p})", path, p, entry[f"lambda{p}"]))
    data["searches"] = searches

    n_big = 9 if small else 12
    reps = []
    for p in (2, 3, 5):
        mat = random_matrix(rng, p, 5, n_big)
        reps.append((p, mat))
    data["reps"] = reps
    data["code_instance"] = icb.cycle_instance(n_big)
    data["codes"] = [icb.ScalarLinearCode(p, tuple(tuple(r) for r in random_matrix(rng, p, 4, n_big)))
                     for p in (2, 3, 5)]
    sizes = ((2, 10), (3, 9), (5, 8)) if small else ((2, 15), (3, 14), (5, 13))
    # A fixed dimension profile keeps the walk's work the same across seeds;
    # only the subspaces themselves are random.
    data["tuples"] = [
        icb.SubspaceTuple(p, 6, tuple(
            tuple(tuple(row) for row in random_matrix(rng, p, 1 + i % 3, 6)) for i in range(count)))
        for p, count in sizes]


def chains_lattice(ctx: Context, cli: Cli) -> List[List[Op]]:
    icb = ctx.icb
    rng = random.Random(ctx.rng.random())
    chains: List[List[Op]] = []

    for label, path, cols, p in ctx.data["matroids"]:
        out = path.with_name(path.stem + ".ic.json")
        chains.append([Op(f"matroid2ic {label}", _matroid2ic_check(out, cols, p, rng),
                          argv=["matroid2ic", str(path), "--out", str(out)])])

    for label, path, p, lam in ctx.data["searches"]:
        chains.append([Op(f"search-linear {label}", _expect_printed("lambda1", lam),
                          argv=["search-linear", str(path), str(p)])])

    for p, mat in ctx.data["reps"]:
        n = len(mat[0])
        cols = [[row[j] for row in mat] for j in range(n)]
        labels = [f"e{i + 1}" for i in range(n)]
        built: Dict[str, object] = {}

        def rank_call(labels=labels, cols=cols, p=p, built=built):
            built["matroid"] = icb.rank_from_matrix(labels, cols, p)
            return built["matroid"]

        def underrep_call(mat=mat, p=p, built=built):
            return icb.underrep_check(built["matroid"], mat, p)

        chains.append([
            Op(f"rank_from_matrix GF({p}) n={n}", _ranks_check(cols, p, rng), call=rank_call),
            Op(f"underrep_check GF({p}) n={n}", _is_true, call=underrep_call),
        ])

    inst = ctx.data["code_instance"]
    for code in ctx.data["codes"]:
        chains.append([Op(f"code_entropy_vector GF({code.p})", _entropy_check(code, rng),
                          call=lambda code=code: icb.code_entropy_vector(inst, code))])

    for tup in ctx.data["tuples"]:
        chains.append([Op(f"dimension_vector GF({tup.p}) x{tup.count}", _dims_check(tup, rng),
                          call=lambda tup=tup: icb.dimension_vector(tup))])
    return chains


def _is_true(res: Outcome) -> Optional[str]:
    return None if res.value is True else f"returned {res.value!r}, expected True"


def _matroid2ic_check(out: Path, cols, p: int, rng: random.Random):
    """Spot-check receivers: the wanted column lies in the span of the known
    columns, and dropping any known column breaks that (minimality)."""

    def check(res: Outcome) -> Optional[str]:
        if res.rc != 0:
            return f"exit code {res.rc}"
        obj = json.loads(out.read_text(encoding="utf-8"))
        labels = obj["messages"]
        index = {lab: i for i, lab in enumerate(labels)}
        if len(labels) != len(cols) or not obj["receivers"]:
            return "wrong message count or no receivers"
        for rec in rng.sample(obj["receivers"], min(8, len(obj["receivers"]))):
            w = index[rec["wants"]]
            known = 0
            for lab in rec["knows"]:
                known |= 1 << index[lab]
            r = column_rank(cols, known, p)
            if column_rank(cols, known | 1 << w, p) != r:
                return f"receiver {rec} cannot decode"
            for i in range(len(cols)):
                if known >> i & 1:
                    less = known & ~(1 << i)
                    if column_rank(cols, less | 1 << w, p) == column_rank(cols, less, p):
                        return f"receiver {rec} is not minimal"
        return None

    return check


def _ranks_check(cols, p: int, rng: random.Random):
    def check(res: Outcome) -> Optional[str]:
        for s in _spot_masks(rng, len(cols)):
            if res.value.ranks[s] != column_rank(cols, s, p):
                return f"rank of subset {s:#x} is {res.value.ranks[s]}"
        return None

    return check


def _entropy_check(code, rng: random.Random):
    n = code.n

    def check(res: Outcome) -> Optional[str]:
        for s in _spot_masks(rng, n):
            rows = [list(r) for r in code.matrix]
            rows += [[1 if j == i else 0 for j in range(n)] for i in range(n) if s >> i & 1]
            if res.value.get(s) != oracles.fp_rank(rows, code.p):
                return f"entropy of subset {s:#x} is {res.value.get(s)}"
        return None

    return check


def _dims_check(tup, rng: random.Random):
    def check(res: Outcome) -> Optional[str]:
        for s in _spot_masks(rng, tup.count):
            rows = [list(v) for i, space in enumerate(tup.spaces) if s >> i & 1 for v in space]
            want = oracles.fp_rank(rows, tup.p) if rows else 0
            if res.value.get(s) != want:
                return f"dimension of subset {s:#x} is {res.value.get(s)}, oracle {want}"
        return None

    return check


# name -> (setup, chains, seconds one pass took at the commit that defined the
# benchmark). A run makes --seconds // that many passes, so every run of a
# workload has the same operations and sample count whatever the machine's
# speed of the moment; a faster program finishes the same work sooner.
WORKLOADS = {
    "solve-large": (setup_solve_large, chains_solve_large, 20.2),
    "solve-small": (setup_solve_small, chains_solve_small, 3.68),
    "certify": (setup_certify, chains_certify, 6.16),
    "lattice": (setup_lattice, chains_lattice, 1.6),
}
