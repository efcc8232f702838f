"""The files the command line writes, pinned byte for byte by sha256.

Certificates from `icb solve --emit-cert`, products from `icb combine`, and
instances from `icb product` and `icb matroid2ic` must not change by a
single byte unless a change means them to. A change that does (a new pivot
rule moves the optimal vertex, say) shows up here as new digests, and the
diff of this file is the record of it.
"""

import hashlib
import json

import pytest

from icbound.cli import main
from icbound.formats import dump_json, instance_to_json
from icbound.instance import cycle_instance
from icbound.matroid import _FANO_LABELS, fano, nonfano, to_index_coding

SCHEMAS = ("submod", "submod+fano-odd", "submod+fano-even")

# (instance, schema, the "closure" field every certificate file carries)
SOLVE_CASES = (
    [(f"C{n}", "submod", "single") for n in range(3, 8)]
    + [(name, schema, "single") for name in ("fano", "nonfano") for schema in SCHEMAS]
)

DIGESTS = {
    "solve C3 submod single": "8558e29638644707e9fe1c26eff9000d0b2fc1290d1a94dec88fe9c37bd190b9",
    "solve C4 submod single": "4e6a01082aeda44c63915799d166c6f8d36c4050de3e72026e7b88a375c485f4",
    "solve C5 submod single": "e9e7287e451c509cb2394853bd68a1e7950cfc6532868b829893ffe2f2afc5cd",
    "solve C6 submod single": "09b1e2c5570905956c0a8b9dbc57054964f93b9616ce3c1218b620e64be5ba0e",
    "solve C7 submod single": "8de4eca3a14159805d5e708f364ed5573f00a7dbffd88fcef563a704ed2b03eb",
    "solve fano submod single": "1d2b3726714ff15602bbe002ce65b134b5428c065d03ad8bd8bf9b000dd54f2f",
    "solve fano submod+fano-odd single": "9c137e3ff2eb1d8a48ee7e120746b78ab060628252c0cf7e68df894bc5e26a20",
    "solve fano submod+fano-even single": "7549e73649c0fe49605c7fb6a683fb39a3616a4f0db7e27c87b849682afd6ab1",
    "solve nonfano submod single": "1d2b3726714ff15602bbe002ce65b134b5428c065d03ad8bd8bf9b000dd54f2f",
    "solve nonfano submod+fano-odd single": "150ab8776f013396edeb0abaf70d8da10cf045f3294ae00bedb61c38530d3e79",
    "solve nonfano submod+fano-even single": "f081bf35b3c2687047b56b9cd644da354ea15a6195474a9e1c67b615ecee8c98",
    "combine C5 C5": "7e83e676c54cc6aabba3b9e26dac5a5a776df287b981b70b1f922b6d025aa8c7",
    "combine fano nonfano": "99a4100536806245ae380c7b187628d59b204d2e4a7b6c9e71ea871012d4c97d",
    "product C5 C5": "b159f5cf0b4be02c472c5e2aaa3e476590dad7514f3882236c583b0022a3c3e2",
    "product fano nonfano": "433fb0db37d71189307a8a7e114317c5090b9853bb97d68cb9719d6843f574ad",
    "combine C5^2 C5": "40d019a854bacb176e9778507ad79716619494a509087f2b5e293226c9309843",
    "combine fano fano submod+fano-odd": "4fa5982dacd78669e314b3ab8c8bff888abd85e2ef9995860c3f0478e8755013",
    "matroid2ic fano minimal": "69b68ed644afe014dc48c24f807c97223d918e128f77e9fa8678366c2440f37d",
    "matroid2ic fano full": "522f460f9170fed627bdbac28d7bac99ca2073246fb8b5e85f17d0db8efa0d3e",
    "matroid2ic nonfano minimal": "c4680984e1ed410e5c3c868a3f5be0179280751f949a70286b0f60a495e39d57",
    "matroid2ic nonfano full": "a5186a74b12965c599bc2674353c2dd984223f957e52d8c06266ad3394219dee",
}


# The values test_combine_bytes prints: b(C5)^2 and b(Fano) * b(non-Fano).
VALUES = {("C5", "C5"): "25/4", ("fano", "nonfano"): "16"}


def _instance(name: str):
    if name.startswith("C"):
        return cycle_instance(int(name[1:]))
    return to_index_coding(fano() if name == "fano" else nonfano())


def _run(argv, capsys) -> None:
    assert main(argv) == 0
    capsys.readouterr()


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _solve(tmp_path, name, schema, capsys):
    """Write the instance, solve it with --emit-cert; the two paths."""
    inst = tmp_path / f"{name}.json"
    dump_json(instance_to_json(_instance(name)), str(inst))
    cert = tmp_path / f"{name}.{schema}.cert.json"
    _run(["solve", str(inst), "--schema", schema, "--emit-cert", str(cert)], capsys)
    return inst, cert


@pytest.mark.parametrize("name, schema, closure", SOLVE_CASES)
def test_solve_certificate_bytes(name, schema, closure, tmp_path, capsys):
    _, cert = _solve(tmp_path, name, schema, capsys)
    assert json.loads(cert.read_bytes())["closure"] == closure
    assert _digest(cert) == DIGESTS[f"solve {name} {schema} {closure}"]


@pytest.mark.parametrize("first, second", [("C5", "C5"), ("fano", "nonfano")])
def test_combine_bytes(first, second, tmp_path, capsys):
    inst_g, cert_g = _solve(tmp_path, first, "submod", capsys)
    inst_f, cert_f = _solve(tmp_path, second, "submod", capsys)
    argv = ["combine", str(inst_g), str(inst_f), str(cert_g), str(cert_f)]
    out = tmp_path / "combined.json"
    _run(argv + ["--out", str(out)], capsys)
    assert _digest(out) == DIGESTS[f"combine {first} {second}"]
    # without --out the same bytes, and nothing else, go to stdout; the
    # value goes to stderr
    assert main(argv) == 0
    printed = capsys.readouterr()
    assert printed.out.encode("ascii") == out.read_bytes()
    assert printed.err == f"value = {VALUES[first, second]}\n"


@pytest.mark.parametrize("first, second", [("C5", "C5"), ("fano", "nonfano")])
def test_product_bytes(first, second, tmp_path, capsys):
    paths = []
    for name in (first, second):
        paths.append(tmp_path / f"{name}.json")
        dump_json(instance_to_json(_instance(name)), str(paths[-1]))
    out = tmp_path / "product.json"
    _run(["product", *map(str, paths), "--out", str(out)], capsys)
    assert _digest(out) == DIGESTS[f"product {first} {second}"]
    # without --out the same bytes go to stdout
    assert main(["product", *map(str, paths)]) == 0
    assert capsys.readouterr().out.encode("ascii") == out.read_bytes()


def test_combine_past_a_machine_word_bytes(tmp_path, capsys):
    # C5^2 x C5 has 125 messages, so every mask is wider than 64 bits
    inst, cert = _solve(tmp_path, "C5", "submod", capsys)
    square, square_cert = tmp_path / "C5^2.json", tmp_path / "C5^2.cert.json"
    _run(["product", str(inst), str(inst), "--out", str(square)], capsys)
    _run(["combine", str(inst), str(inst), str(cert), str(cert), "--out", str(square_cert)],
         capsys)
    out = tmp_path / "combined.json"
    _run(["combine", str(square), str(inst), str(square_cert), str(cert), "--out", str(out)],
         capsys)
    assert _digest(out) == DIGESTS["combine C5^2 C5"]


def test_combine_homext_rows_bytes(tmp_path, capsys):
    # the Fano rows carry "base" and "atoms" label arrays into the product
    inst, cert = _solve(tmp_path, "fano", "submod+fano-odd", capsys)
    out = tmp_path / "combined.json"
    _run(["combine", str(inst), str(inst), str(cert), str(cert), "--out", str(out)], capsys)
    assert _digest(out) == DIGESTS["combine fano fano submod+fano-odd"]


@pytest.mark.parametrize("full", [False, True], ids=["minimal", "full-receivers"])
@pytest.mark.parametrize("name", ["fano", "nonfano"])
def test_matroid2ic_bytes(name, full, tmp_path, capsys):
    matroid = fano() if name == "fano" else nonfano()
    src = tmp_path / "matroid.json"
    dump_json({"elements": list(_FANO_LABELS), "ranks": list(matroid.ranks)}, str(src))
    out = tmp_path / "instance.json"
    _run(["matroid2ic", str(src), "--out", str(out)]
         + (["--full-receivers"] if full else []), capsys)
    assert _digest(out) == DIGESTS[f"matroid2ic {name} {'full' if full else 'minimal'}"]
