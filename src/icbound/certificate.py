"""Dual certificates: self-contained, exactly checkable lower-bound proofs.

A certificate for an instance is a nonnegative combination of one-step
decoding inequalities (the x part, keyed by nested subset pairs) and schema
rows (the y part) whose net subset-vector is exactly e_empty - e_full. Its
value, the sum of x weights times the messages of t that s decodes in one
step (the only closure) per pair (s, t), lower-bounds the LP optimum and
hence the broadcast rate.

Verification recomputes everything from the instance and schema; it trusts
nothing stored in the certificate beyond the weights themselves. Certificates
for two instances combine into one for their lexicographic product without
any solving, which is how bounds for large products are certified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import gcd
from typing import Dict, Optional, Tuple

from icbound.errors import CertificateInvalid, InputError
from icbound.groundset import BlockEmbedding, GroundSet, LatticeHom
from icbound.instance import IndexCodingInstance, cycle_instance, product_messages
from icbound.rational import Rational, capped, rat, scaled
from icbound.schema import HomExtRow, SchemaRow, SideRow, SubmodRow, SubmodSchema

__all__ = [
    "DualCertificate",
    "verify_certificate",
    "combine_certificates",
    "c5_certificate",
]


@dataclass
class DualCertificate:
    schema_name: str
    x: Dict[Tuple[int, int], Rational] = field(default_factory=dict)
    y: Dict[SchemaRow, Rational] = field(default_factory=dict)
    claimed_value: Optional[Rational] = None


def verify_certificate(
    instance: IndexCodingInstance, schema, cert: DualCertificate
) -> Rational:
    """Check a certificate exactly; returns its value, raises CertificateInvalid.

    Each entry, x before y, is checked as it comes: its masks, its nesting,
    its weight's sign, then the weight as a rational. The sums are integers
    over den, the lcm of the nonzero weights' denominators so far, and are
    scaled up when den grows, which `rational.capped` bounds. Only the value
    and an offender's excess become Fractions."""
    if cert.schema_name != schema.name:
        raise InputError(
            f"certificate was written against schema {cert.schema_name!r}, "
            f"verifying against {schema.name!r}"
        )
    gs = instance.messages
    full = gs.full_mask

    # The net subset-vector times den, accumulated in place; zeros are dropped at the end.
    residual: Dict[int, int] = {}
    get = residual.get
    value, den = 0, 1

    def over_den(v) -> int:
        """The nonzero weight v times den, den first grown to take it."""
        nonlocal den, value
        v = rat(v)
        q = v.denominator
        if den % q:
            scale = q // gcd(den, q)
            den = capped(den * scale)
            value *= scale
            for mask in residual:
                residual[mask] *= scale
        return v.numerator * (den // q)

    for (s, t), v in cert.x.items():
        gs.check_mask(s)
        gs.check_mask(t)
        if s & ~t or s == t:
            raise CertificateInvalid(
                f"x entry on ({gs.labels_of(s)}, {gs.labels_of(t)}) is not a strictly nested pair"
            )
        if v < 0:
            raise CertificateInvalid(
                f"negative x weight {v} on ({gs.labels_of(s)}, {gs.labels_of(t)})")
        if v:
            v = over_den(v)
            residual[s] = get(s, 0) + v
            residual[t] = get(t, 0) - v
            value += v * instance.dst(s, t)
    for row, v in cert.y.items():
        if v < 0:
            raise CertificateInvalid(f"negative y weight {v} on {_row_text(row, gs)}")
        if v:
            v = over_den(v)
            for mask, c in schema.row_vector(row, gs).items():
                residual[mask] = get(mask, 0) + v * c

    # What must remain is e_empty - e_full.
    residual[0] = get(0, 0) - den
    residual[full] = get(full, 0) + den
    offenders = [mask for mask, c in residual.items() if c]
    if offenders:
        mask = min(offenders)
        raise CertificateInvalid(
            f"combination misses e_empty - e_full; first offender "
            f"{gs.labels_of(mask)} with excess {Rational(residual[mask], den)}"
        )

    value = Rational(value, den)
    if cert.claimed_value is not None and cert.claimed_value != value:
        raise CertificateInvalid(
            f"claimed value {cert.claimed_value} but the combination is worth {value}"
        )
    return value


def _row_text(row: SchemaRow, gs: GroundSet) -> str:
    """A schema row for an error message, its subsets named by labels: a
    submodularity pair, or a HomExt row's base and the image of each
    generator atom."""
    if isinstance(row, SideRow):
        return f"{('left', 'right')[row.side]} {_row_text(row.inner, gs)}"
    if isinstance(row, SubmodRow):
        return f"submod row ({gs.labels_of(row.s)}, {gs.labels_of(row.t)})"
    if isinstance(row, HomExtRow):
        hom = row.hom
        images = ", ".join(f"{atom!r} -> {hom.codomain.labels_of(img)}"
                           for atom, img in zip(hom.domain.labels, hom.atom_images))
        return f"{row.schema} row (base {hom.codomain.labels_of(hom.base)}, {images})"
    return repr(row)


def combine_certificates(
    inst_g: IndexCodingInstance,
    inst_f: IndexCodingInstance,
    cert_g: DualCertificate,
    cert_f: DualCertificate,
    schema,
) -> DualCertificate:
    """Certificate for lex_product(inst_g, inst_f) from certificates of the parts.

    Every decoding pair of the first certificate induces a lattice hom from
    the second instance's subsets into the product's; the second certificate
    is pushed through each of these, weighted, and the first certificate's
    schema rows ride along the block embedding. No LP is involved, and the
    result is verified like any other certificate, so nothing here is
    trusted blindly. Both inputs are verified up front, and the product's
    denominator capped before any entry is built. The product's receivers
    are not built here: its messages come from `product_messages`, the
    helper `lex_product` labels them with.
    """
    if cert_g.schema_name != schema.name or cert_f.schema_name != schema.name:
        raise InputError("both certificates must match the schema being combined under")
    for which, inst, cert in (("first", inst_g, cert_g), ("second", inst_f, cert_f)):
        try:
            verify_certificate(inst, schema, cert)
        except CertificateInvalid as exc:
            raise CertificateInvalid(f"{which} certificate: {exc}") from None
    gs_g = inst_g.messages
    gs_f = inst_f.messages
    gs_p = product_messages(gs_g, gs_f)
    nf = gs_f.n
    g_hom = BlockEmbedding(gs_g, gs_p, nf)
    firsts = sum(1 << i * nf for i in range(gs_g.n))  # bit 0 of every block

    # Weights are summed as integers over den = den_g * den_f, each its
    # certificate's common denominator, and become Fractions at the end. A
    # certificate's scaled weights list its x entries, then its y entries.
    g_w, den_g = scaled(chain(cert_g.x.values(), cert_g.y.values()))
    f_w, den_f = scaled(chain(cert_f.x.values(), cert_f.y.values()))
    den = capped(den_g * den_f)
    x: Dict[Tuple[int, int], int] = {}
    y: Dict[SchemaRow, int] = {}

    for row, v in zip(cert_g.y, g_w[len(cert_g.x):]):
        if not v:
            continue
        key = schema.pushforward_row(g_hom, row)
        y[key] = y.get(key, 0) + v * den_f

    f_x = [(a, b, vf) for (a, b), vf in zip(cert_f.x, f_w) if vf]
    f_y = [(row, vf) for row, vf in zip(cert_f.y, f_w[len(cert_f.x):]) if vf]
    for (s, t), vg in zip(cert_g.x, g_w):
        if not vg:
            continue
        # atom u goes to bit u of each block of t minus s, on s's blocks
        spread = g_hom.apply(t & ~s) & firsts
        hom = LatticeHom(gs_f, gs_p, g_hom.apply(s), tuple(spread << u for u in range(nf)))
        for a, b, vf in f_x:
            ka, kb = hom.apply(a), hom.apply(b)
            if ka == kb:
                continue  # degenerate image, dropped with its mass
            key = (ka, kb)
            x[key] = x.get(key, 0) + vg * vf
        for row, vf in f_y:
            key = schema.pushforward_row(hom, row)
            y[key] = y.get(key, 0) + vg * vf

    return DualCertificate(schema.name, {key: Rational(w, den) for key, w in x.items()},
                           {key: Rational(w, den) for key, w in y.items()}, None)


def c5_certificate():
    """The pentagon's certificate of 5/2: returns (instance, schema, certificate).

    Weights are hard numbers, not a stored solver trace; the verifier is the
    authority on them. Five messages around a cycle, each receiver knowing
    its two neighbours.
    """
    instance = cycle_instance(5)
    schema = SubmodSchema()
    half = rat("1/2")

    def m(*labels: int) -> int:
        return instance.messages.mask_of(labels)

    x = {
        (0, m(1, 3)): half,
        (0, m(2, 4)): half,
        (0, m(5)): half,
        (m(1, 3), m(1, 2, 3)): half,
        (m(2, 4), m(2, 3, 4)): half,
        (m(1, 2, 3, 4), m(1, 2, 3, 4, 5)): half,
        (m(2, 3, 5), m(1, 2, 3, 4, 5)): half,
    }
    y = {
        SubmodRow(m(2, 3, 4), m(1, 2, 3)): half,
        SubmodRow(m(2, 3), m(5)): half,
    }
    cert = DualCertificate("submod", x, y, rat("5/2"))
    return instance, schema, cert
