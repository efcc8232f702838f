"""Command-line surface: solve, verify, combine, convert, demo.

The bound LP and every certificate use the one-step closure, the only one.
Exit codes are part of the contract: 0 success, 1 a verification or claimed
value failed, 2 malformed input or a stdout that cannot be written (a full
disk), 3 a resource cap was hit, 141 stdout was closed early (128 +
SIGPIPE). Demos re-run the headline pipelines end to end and fail loudly on
any mismatch, so they double as an installed smoke test.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import List, Optional

from icbound.certificate import c5_certificate, combine_certificates, verify_certificate
from icbound.errors import CertificateInvalid, InputError, ResourceCapError, VerificationError
from icbound.formats import (
    SCHEMA_NAMES,
    certificate_from_json,
    certificate_to_json,
    dump_json,
    homs_from_json,
    instance_from_json,
    instance_to_json,
    load_json,
    matroid_from_json,
    orbit_homs_from_json,
    schema_by_name,
)
from icbound.lincode import min_scalar_linear_rate
from icbound.lp import build_problem, solve_problem
from icbound.matroid import addineq_certificate, fano, nonfano, to_index_coding
from icbound.rational import rat, rat_str
from icbound.schema import SideRow

def _read_instance(path: str):
    """instance_from_json of the file at path, its "knows" arrays decoded
    straight to masks of its messages."""
    return instance_from_json(load_json(path, "messages"))


def _read_certificate(path: str, gs, schema=None):
    """certificate_from_json of the file at path, its label arrays decoded
    straight to masks of gs."""
    return certificate_from_json(load_json(path, gs), gs, schema)


def _emit(obj, out: Optional[str]) -> None:
    """obj as JSON into the file out, or onto stdout when out is None, a
    batch at a time either way."""
    dump_json(obj, sys.stdout if out is None else out)


def _row_homs(spec: str, schema_name: str, gs):
    """The homs --rows names for schema_by_name; None means the identity embedding."""
    if spec == "identity":
        return None
    kind, _, path = spec.partition(":")
    if kind == "orbit" and path:
        return orbit_homs_from_json(load_json(path), schema_name, gs)
    if kind == "file" and path:
        return homs_from_json(load_json(path), schema_name, gs)
    raise InputError(f"--rows must be identity, orbit:PATH, or file:PATH, got {spec!r}")


def _cmd_solve(args) -> int:
    instance = _read_instance(args.instance)
    schema = schema_by_name(args.schema, _row_homs(args.rows, args.schema, instance.messages))
    sol = solve_problem(build_problem(instance, schema))
    if args.stats:
        print(json.dumps(dataclasses.asdict(sol.stats)), file=sys.stderr)
    print(f"b = {rat_str(sol.value)}")
    if args.emit_cert:
        dump_json(certificate_to_json(sol.cert, instance.messages, schema), args.emit_cert)
        print(f"certificate -> {args.emit_cert}")
    return 0


def _cmd_product(args) -> int:
    g = _read_instance(args.first)
    f = _read_instance(args.second)
    _emit(instance_to_json(g.lex_product(f)), args.out)
    return 0


def _cmd_combine(args) -> int:
    inst_g = _read_instance(args.first)
    inst_f = _read_instance(args.second)
    cert_g, schema = _read_certificate(args.cert_first, inst_g.messages)
    cert_f, _ = _read_certificate(args.cert_second, inst_f.messages, schema)
    combined = combine_certificates(inst_g, inst_f, cert_g, cert_f, schema)
    product = inst_g.lex_product(inst_f)
    value = verify_certificate(product, schema, combined)
    combined.claimed_value = value
    _emit(certificate_to_json(combined, product.messages, schema), args.out)
    print(f"value = {rat_str(value)}", file=sys.stderr if args.out is None else sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    instance = _read_instance(args.instance)
    cert, schema = _read_certificate(args.cert, instance.messages)
    value = verify_certificate(instance, schema, cert)
    print(f"value = {rat_str(value)}")
    return 0


def _cmd_matroid2ic(args) -> int:
    matroid = matroid_from_json(load_json(args.matroid))
    instance = to_index_coding(matroid, minimal=not args.full_receivers)
    _emit(instance_to_json(instance), args.out)
    return 0


def _cmd_alpha(args) -> int:
    instance = _read_instance(args.instance)
    print(f"alpha = {instance.independence_number(cap=args.cap)}")
    return 0


def _cmd_search_linear(args) -> int:
    instance = _read_instance(args.instance)
    result = min_scalar_linear_rate(instance, args.p, args.l_max)
    if result is None:
        print(f"exceeds {args.l_max}")
    else:
        print(f"lambda1 = {result}")
    return 0


def _nonnegative(text: str) -> int:
    """argparse type for counts and caps: ASCII digits only, so no sign."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _check(ok: bool, label: str, failures: List[str]) -> None:
    print(("ok:   " if ok else "FAIL: ") + label)
    if not ok:
        failures.append(label)


def _demo_c5(failures: List[str]) -> None:
    instance, schema, builtin = c5_certificate()
    value = verify_certificate(instance, schema, builtin)
    _check(value == rat("5/2"), f"built-in pentagon certificate verifies to {rat_str(value)}", failures)
    sol = solve_problem(build_problem(instance))
    _check(sol.value == rat("5/2"), f"LP optimum b = {rat_str(sol.value)}", failures)
    _check(
        verify_certificate(instance, schema, sol.cert) == sol.value,
        "extracted certificate re-verifies to the optimum",
        failures,
    )
    alpha = instance.independence_number()
    _check(alpha == 2, f"independence number alpha = {alpha}", failures)
    print(f"gap ratio b/alpha = {rat_str(sol.value / rat(alpha))}")


def _demo_alpha_beta(failures: List[str]) -> None:
    instance, schema, cert = c5_certificate()
    product = instance.lex_product(instance)
    combined = combine_certificates(instance, instance, cert, cert, schema)
    value = verify_certificate(product, schema, combined)
    _check(
        value == rat("25/4"),
        f"squared-pentagon certificate verifies to {rat_str(value)} on "
        f"{product.messages.n} messages",
        failures,
    )
    alpha = product.independence_number()
    _check(alpha == 4, f"alpha of the squared pentagon = {alpha}", failures)
    print(f"certified beta/alpha >= {rat_str(value / rat(alpha))}")


def _demo_fano_gap(failures: List[str]) -> None:
    for label, matroid, parity in (("binary", fano(), "odd"), ("ternary", nonfano(), "even")):
        instance = to_index_coding(matroid)
        sol = solve_problem(build_problem(instance))
        _check(
            sol.value == rat(4),
            f"plain LP bound for the {label} matroid instance = {rat_str(sol.value)}",
            failures,
        )
        schema = schema_by_name(f"submod+fano-{parity}")
        row = _identity_row(schema, instance)
        cert = addineq_certificate(matroid, row, schema)
        value = verify_certificate(instance, schema, cert)
        _check(
            value > rat(4),
            f"{parity}-row certificate for the {label} instance = {rat_str(value)} > 4",
            failures,
        )


def _identity_row(schema, instance) -> SideRow:
    rows = [r for r in schema.rows(instance.messages) if isinstance(r, SideRow) and r.side == 1]
    if not rows:
        raise InputError("schema yields no homomorphism rows on this instance")
    return rows[0]


def _demo_separation(failures: List[str]) -> None:
    mat_f, mat_n = fano(), nonfano()
    inst_f, inst_n = to_index_coding(mat_f), to_index_coding(mat_n)
    product = inst_f.lex_product(inst_n)

    submod = schema_by_name("submod")
    cert_f = solve_problem(build_problem(inst_f, submod)).cert
    cert_n = solve_problem(build_problem(inst_n, submod)).cert
    base = combine_certificates(inst_f, inst_n, cert_f, cert_n, submod)
    base_value = verify_certificate(product, submod, base)
    _check(
        base_value == rat(16),
        f"submodular certificate pins b of the product at {rat_str(base_value)}",
        failures,
    )

    for parity, good, other, name in (
        ("odd", (mat_f, inst_f), (mat_n, inst_n), "odd-characteristic"),
        ("even", (mat_n, inst_n), (mat_f, inst_f), "even-characteristic"),
    ):
        schema = schema_by_name(f"submod+fano-{parity}")
        cut_mat, cut_inst = good
        _, flat_inst = other
        cut_cert = addineq_certificate(cut_mat, _identity_row(schema, cut_inst), schema)
        flat_cert = solve_problem(build_problem(flat_inst, schema)).cert
        if parity == "odd":
            combined = combine_certificates(
                cut_inst, flat_inst, cut_cert, flat_cert, schema
            )
        else:
            combined = combine_certificates(
                flat_inst, cut_inst, flat_cert, cut_cert, schema
            )
        value = verify_certificate(product, schema, combined)
        _check(
            value > rat(16),
            f"{name} certificate on the 49-message product = {rat_str(value)} > 16",
            failures,
        )


_DEMOS = {
    "c5": _demo_c5,
    "alpha-beta": _demo_alpha_beta,
    "fano-gap": _demo_fano_gap,
    "separation": _demo_separation,
}


def _cmd_demo(args) -> int:
    failures: List[str] = []
    _DEMOS[args.name](failures)
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first call of main and reused by later calls in the
    process; parse_args reads the parser and returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="icb",
        description="Exact lower bounds on the index-coding broadcast rate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the bound LP for an instance file")
    p.add_argument("instance")
    p.add_argument("--schema", default="submod", choices=SCHEMA_NAMES)
    p.add_argument("--rows", default="identity", metavar="identity|orbit:PATH|file:PATH",
                   help="fano rows: the identity embedding; it and its images under a JSON "
                   "array of label maps; or a JSON array of homs (see icbound.formats)")
    p.add_argument("--emit-cert", metavar="PATH")
    p.add_argument("--stats", action="store_true",
                   help="print the solver's counts to stderr as one JSON line")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("product", help="lexicographic product of two instance files")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("combine", help="combine two certificates onto the product")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("cert_first")
    p.add_argument("cert_second")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser("verify", help="verify a certificate file against an instance")
    p.add_argument("instance")
    p.add_argument("cert")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("matroid2ic", help="matroid file to index-coding instance")
    p.add_argument("matroid")
    p.add_argument("--full-receivers", action="store_true")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_matroid2ic)

    p = sub.add_parser("alpha", help="independence number by branch and bound")
    p.add_argument("instance")
    p.add_argument("--cap", type=_nonnegative, default=40)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("search-linear", help="minimum scalar linear code length")
    p.add_argument("instance")
    p.add_argument("p", type=int)
    p.add_argument("--l-max", type=_nonnegative, default=None)
    p.set_defaults(func=_cmd_search_linear)

    p = sub.add_parser("demo", help="scripted pipelines with pass/fail output")
    p.add_argument("name", choices=sorted(_DEMOS))
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except OSError as exc:  # from stdout: formats turns a file's OSError into InputError
        with open(os.devnull, "w") as devnull:  # so the flush at exit cannot raise
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141
        print(f"input error: cannot write stdout: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CertificateInvalid as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
