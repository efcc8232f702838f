"""Dual certificates: verification, tampering, combination, matroid rows."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from icbound.certificate import (DualCertificate, c5_certificate,
                                 combine_certificates, verify_certificate)
from icbound.errors import CertificateInvalid, InputError
from icbound.groundset import GroundSet, SetVector
from icbound.instance import IndexCodingInstance, cycle_instance, from_graph, product_messages
from icbound.lp import build_problem, solve_problem
from icbound.matroid import addineq_certificate, fano, nonfano, to_index_coding
from icbound.rational import ONE, ZERO, rat
from icbound.schema import SideRow, SubmodRow, SubmodSchema
from icbound.tighten import fano_schema, schema_with_submod

from lemmas import dot
from oracles import fraction_verify
from test_simplex_lp import lp_bound

SUBMOD = SubmodSchema()


def solved_certificate(inst):
    sol = solve_problem(build_problem(inst))
    return sol.cert, sol.value


def test_c5_certificate_verifies():
    inst, schema, cert = c5_certificate()
    assert verify_certificate(inst, schema, cert) == rat("5/2")
    # objective breakdown: seven entries of weight 1/2 with d-values summing to 5
    dvals = sorted(inst.dst(s, t) for (s, t) in cert.x)
    assert dvals == [0, 0, 0, 1, 1, 1, 2]
    assert rat("5/2") > rat(inst.independence_number())


def test_forced_decode_certificate_on_edgeless():
    inst = from_graph([1, 2, 3], [])
    full = inst.messages.full_mask
    cert = DualCertificate("submod", {(0, full): ONE}, {})
    assert verify_certificate(inst, SUBMOD, cert) == rat(3)


def test_extracted_certificates_verify_to_lp_value():
    for inst in (cycle_instance(5),
                 from_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)]),
                 to_index_coding(fano())):
        cert, value = solved_certificate(inst)
        assert verify_certificate(inst, SUBMOD, cert) == value
        assert cert.claimed_value == value


def test_degenerate_rows_carry_zero_effect():
    inst, schema, cert = c5_certificate()
    cert.y[SubmodRow(0b00001, 0b00011)] = rat(7)  # nested pair: zero row
    assert verify_certificate(inst, schema, cert) == rat("5/2")


def test_tampering_detected():
    def fresh():
        return c5_certificate()

    inst, schema, cert = fresh()
    key = next(iter(cert.x))
    cert.x[key] += rat("1/4")
    with pytest.raises(CertificateInvalid):
        verify_certificate(inst, schema, cert)

    inst, schema, cert = fresh()
    cert.x[next(iter(cert.x))] = rat(-1)
    with pytest.raises(CertificateInvalid):
        verify_certificate(inst, schema, cert)

    inst, schema, cert = fresh()
    cert.x[(0b00110, 0b00001)] = ONE  # not nested
    with pytest.raises(CertificateInvalid):
        verify_certificate(inst, schema, cert)

    inst, schema, cert = fresh()
    cert.claimed_value = rat(3)
    with pytest.raises(CertificateInvalid):
        verify_certificate(inst, schema, cert)

    inst, schema, cert = fresh()
    cert.y[SubmodRow(0b00011, 0b00101)] = ONE  # extra real row
    with pytest.raises(CertificateInvalid):
        verify_certificate(inst, schema, cert)

    inst, schema, cert = fresh()
    cert.schema_name = "other"
    with pytest.raises(InputError):
        verify_certificate(inst, schema, cert)

    inst, schema, cert = fresh()
    cert.x[(0, 1 << 9)] = ONE  # mask outside the ground set
    with pytest.raises(InputError):
        verify_certificate(inst, schema, cert)


def random_graph_instance(rng, nv, allow_isolated):
    while True:
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
                 if rng.random() < 0.6]
        inst = from_graph(list(range(nv)), edges)
        if allow_isolated or all(knows for _, knows in inst.receivers):
            return inst


def test_combine_value_and_feasibility_random_pairs():
    rng = random.Random(20)
    for trial in range(8):
        both_plain = trial < 5
        g = random_graph_instance(rng, rng.randint(2, 4), not both_plain)
        f = random_graph_instance(rng, rng.randint(2, 4), not both_plain)
        cert_g, val_g = solved_certificate(g)
        cert_f, val_f = solved_certificate(f)
        combined = combine_certificates(g, f, cert_g, cert_f, SUBMOD)
        assert verify_certificate(g.lex_product(f), SUBMOD, combined) == val_g * val_f


@st.composite
def _hypergraph_pairs(draw):
    """Two instances whose product has at most 6 messages. A message may have
    no receiver or several, and a receiver may know nothing."""
    def instance(n):
        receivers = draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.just(0) | st.integers(0, (1 << n) - 1)), max_size=2 * n))
        return IndexCodingInstance(GroundSet(range(n)),
                                   [(want, knows & ~(1 << want)) for want, knows in receivers])
    ng = draw(st.integers(1, 6))
    return instance(ng), instance(draw(st.integers(1, 6 // ng)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair=_hypergraph_pairs())
def test_combined_certificate_is_worth_the_product_lp(pair):
    # the one-step closure makes b(G) * b(F) a certified bound on G•F, and
    # it is the product's own LP optimum
    g, f = pair
    cert_g, val_g = solved_certificate(g)
    cert_f, val_f = solved_certificate(f)
    product = g.lex_product(f)
    combined = combine_certificates(g, f, cert_g, cert_f, SUBMOD)
    assert verify_certificate(product, SUBMOD, combined) == val_g * val_f
    assert lp_bound(product) == val_g * val_f


def test_combine_identity_case():
    inst, schema, cert = c5_certificate()
    single = IndexCodingInstance(GroundSet(["v"]), [(0, 0)])
    trivial = DualCertificate("submod", {(0, 1): ONE}, {}, ONE)
    assert verify_certificate(single, SUBMOD, trivial) == ONE
    combined = combine_certificates(inst, single, cert, trivial, SUBMOD)
    assert verify_certificate(inst.lex_product(single), SUBMOD, combined) == rat("5/2")


def test_combine_labels_product_without_building_it(monkeypatch):
    inst, schema, cert = c5_certificate()
    product = inst.lex_product(inst)

    def refuse(self, other):
        raise AssertionError("combine_certificates built the product instance")

    monkeypatch.setattr(IndexCodingInstance, "lex_product", refuse)
    combined = combine_certificates(inst, inst, cert, cert, SUBMOD)
    assert product.messages == product_messages(inst.messages, inst.messages)
    assert verify_certificate(product, SUBMOD, combined) == rat("25/4")


def test_combine_drops_zero_weights():
    # an x entry and a y row of weight 0, in either factor or in both, leave
    # the combination as it is without them
    inst, schema, cert = c5_certificate()
    mask = inst.messages.mask_of
    padded = DualCertificate("submod", {**cert.x, (0, mask((1,))): ZERO},
                             {**cert.y, SubmodRow(mask((1,)), mask((2,))): ZERO},
                             cert.claimed_value)
    assert verify_certificate(inst, SUBMOD, padded) == rat("5/2")
    want = combine_certificates(inst, inst, cert, cert, SUBMOD)
    product = inst.lex_product(inst)
    for g, f in ((padded, cert), (cert, padded), (padded, padded)):
        combined = combine_certificates(inst, inst, g, f, SUBMOD)
        assert combined == want
        assert verify_certificate(product, SUBMOD, combined) == rat("25/4")


def test_combine_error_paths():
    inst, schema, cert = c5_certificate()
    other = DualCertificate("fano-odd", dict(cert.x), dict(cert.y))
    with pytest.raises(InputError):
        combine_certificates(inst, inst, cert, other, SUBMOD)
    broken = DualCertificate("submod", dict(cert.x), {})
    with pytest.raises(CertificateInvalid):
        combine_certificates(inst, inst, cert, broken, SUBMOD)


def test_addineq_certificates_exact_values():
    cases = [
        (fano(), "odd", rat("133/33"), rat(33)),
        (nonfano(), "even", rat("93/23"), rat(23)),
    ]
    for matroid, parity, frozen, scale in cases:
        schema = schema_with_submod(parity)
        inst = to_index_coding(matroid)
        homext = fano_schema(parity)
        (row,) = list(homext.rows(matroid.gs))
        tagged = SideRow(1, row)
        cert = addineq_certificate(matroid, tagged, schema)
        value = verify_certificate(inst, schema, cert)
        assert value == frozen
        weights = [*cert.x.values(), *cert.y.values(), cert.claimed_value]
        assert {type(v) for v in weights} == {Fraction}
        # excess over the submodular optimum is exactly (-a.r)/scale
        a = schema.row_vector(tagged, matroid.gs)
        deficit = dot(a, SetVector(matroid.gs, dict(enumerate(matroid.ranks))))
        assert deficit == -1
        n_minus_r = rat(matroid.n - matroid.full_rank)
        assert value == n_minus_r + (-deficit) / scale
        assert value > n_minus_r == rat(4)


def test_addineq_rejects_valid_rows():
    m = fano()
    schema = SubmodSchema()
    with pytest.raises(InputError):
        addineq_certificate(m, SubmodRow(0b0000001, 0b0000010), schema)


def test_certificate_value_never_exceeds_lp():
    # soundness spot check: certified values sit at or below the solvable optimum
    inst, schema, cert = c5_certificate()
    assert verify_certificate(inst, schema, cert) <= lp_bound(inst)
    for matroid, parity in ((fano(), "odd"), (nonfano(), "even")):
        schema = schema_with_submod(parity)
        homext = fano_schema(parity)
        (row,) = list(homext.rows(matroid.gs))
        cert = addineq_certificate(matroid, SideRow(1, row), schema)
        inst = to_index_coding(matroid)
        assert (verify_certificate(inst, schema, cert)
                <= lp_bound(inst, schema))


def test_tampering_messages_on_squared_pentagon():
    c5, schema, cert = c5_certificate()
    product = c5.lex_product(c5)
    m = product.messages.mask_of
    pair = (m(["1:1", "1:3", "3:1", "3:3"]), m(["1:1", "1:2", "1:3", "3:1", "3:2", "3:3"]))

    def rejects(tamper, message):
        combined = combine_certificates(c5, c5, cert, cert, schema)
        assert verify_certificate(product, schema, combined) == rat("25/4")
        tamper(combined.x)
        with pytest.raises(CertificateInvalid) as err:
            verify_certificate(product, schema, combined)
        assert str(err.value) == message

    rejects(lambda x: x.update({pair: x[pair] + rat("1/4")}),
            "combination misses e_empty - e_full; first offender "
            "('1:1', '1:3', '3:1', '3:3') with excess 1/4")
    rejects(lambda x: x.update({pair: rat("-1/2")}),
            "negative x weight -1/2 on (('1:1', '1:3', '3:1', '3:3'), "
            "('1:1', '1:2', '1:3', '3:1', '3:2', '3:3'))")
    rejects(lambda x: x.update({(m(["1:1", "2:2"]), m(["1:1", "3:3"])): ONE}),
            "x entry on (('1:1', '2:2'), ('1:1', '3:3')) is not a strictly nested pair")


def test_negative_y_weight_names_the_row_by_labels():
    inst, schema, cert = c5_certificate()
    row = next(iter(cert.y))
    cert.y[row] = rat("-1/2")
    with pytest.raises(CertificateInvalid) as err:
        verify_certificate(inst, schema, cert)
    assert str(err.value) == "negative y weight -1/2 on submod row ((2, 3, 4), (1, 2, 3))"

    matroid, union = fano(), schema_with_submod("odd")
    left = SideRow(0, SubmodRow(0b0000011, 0b0000101))
    cert = DualCertificate(union.name, {}, {left: rat(-1)})
    with pytest.raises(CertificateInvalid) as err:
        verify_certificate(to_index_coding(matroid), union, cert)
    assert str(err.value) == (
        "negative y weight -1 on left submod row (('100', '010'), ('100', '001'))")


def test_negative_homext_weight_names_the_hom_by_labels():
    matroid, union = fano(), schema_with_submod("odd")
    (row,) = list(fano_schema("odd").rows(matroid.gs))
    cert = addineq_certificate(matroid, SideRow(1, row), union)
    cert.y[SideRow(1, row)] = -cert.y[SideRow(1, row)]
    with pytest.raises(CertificateInvalid) as err:
        verify_certificate(to_index_coding(matroid), union, cert)
    atoms = ", ".join(f"{lab!r} -> ({lab!r},)" for lab in matroid.gs.labels)
    assert str(err.value) == (
        f"negative y weight -1/33 on right fano-odd row (base (), {atoms}, 'e' -> ())")


# -- integer sums against the Fraction loop ------------------------------------


def _seeded_certificates():
    """(instance, schema, certificate) from the solver, combine_certificates
    and addineq_certificate."""
    rng = random.Random(2801)
    out = []
    for _ in range(2):
        solved = []
        for _ in range(8):
            inst = random_graph_instance(rng, rng.randint(1, 5), True)
            solved.append((inst, solve_problem(build_problem(inst, SUBMOD)).cert))
        out += [(inst, SUBMOD, cert) for inst, cert in solved]
        for _ in range(4):
            (g, cert_g), (f, cert_f) = rng.sample(solved[:6], 2)
            out.append((g.lex_product(f), SUBMOD,
                        combine_certificates(g, f, cert_g, cert_f, SUBMOD)))
    for matroid, parity in ((fano(), "odd"), (nonfano(), "even")):
        schema = schema_with_submod(parity)
        inst = to_index_coding(matroid)
        out.append((inst, schema, solve_problem(build_problem(inst, schema)).cert))
        (row,) = list(fano_schema(parity).rows(matroid.gs))
        out.append((inst, schema, addineq_certificate(matroid, SideRow(1, row), schema)))
    return out


def _moved(rng, cert):
    """A copy of cert with one to three weights zeroed, negated, moved by
    1/q, spelled as an int or a float, or with its claimed value moved."""
    x, y = dict(cert.x), dict(cert.y)
    claimed = cert.claimed_value
    for _ in range(rng.randint(1, 3)):
        how = rng.choice(("zero", "negate", "move", "move", "int", "float", "claim"))
        if how == "claim":
            claimed = (claimed or 0) + Fraction(rng.choice((-1, 1)), rng.randint(1, 13))
            continue
        weights = rng.choice([w for w in (x, y) if w] or [x])
        if not weights:
            continue
        key = rng.choice(list(weights))
        v = weights[key]
        if how == "zero":
            v = Fraction(0)
        elif how == "negate":
            v = -v
        elif how == "move":
            v += Fraction(rng.choice((-1, 1)), rng.randint(1, 13))
        elif how == "int":
            v = int(v) if v == int(v) else v
        else:
            v = float(v)
        weights[key] = v
    return DualCertificate(cert.schema_name, x, y, claimed)


def _outcome(check, inst, schema, cert):
    """check's value and its type, or its exception's type and message."""
    try:
        value = check(inst, schema, cert)
    except (CertificateInvalid, InputError) as exc:
        return type(exc), str(exc)
    return type(value), value


def test_integer_verify_matches_the_fraction_loop():
    rng = random.Random(2802)
    seen = set()
    for inst, schema, cert in _seeded_certificates():
        for moved in [cert] + [_moved(rng, cert) for _ in range(6)]:
            got = _outcome(verify_certificate, inst, schema, moved)
            assert got == _outcome(fraction_verify, inst, schema, moved)
            seen.add(got[0] if got[0] is Fraction else str(got[1]).split()[0])
    # values, offenders with their excess, negative weights, wrong claims, floats
    assert seen == {Fraction, "combination", "negative", "claimed", "refusing"}
