"""JSON round trips and the command-line surface, exit codes included."""

import contextlib
import dataclasses
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from icbound import cli, formats, lincode
from icbound.certificate import DualCertificate, c5_certificate, combine_certificates
from icbound.cli import _build_parser, _emit, _read_certificate, main
from icbound.errors import InputError, ResourceCapError
from icbound.formats import (SCHEMA_NAMES, certificate_from_json,
                             certificate_to_json, dump_json, instance_from_json,
                             instance_to_json, load_json, matroid_from_json,
                             schema_by_name)
from icbound.groundset import GroundSet
from icbound.instance import IndexCodingInstance, cycle_instance, product_messages
from icbound.lp import ROW_CAP, build_problem, solve_problem
from icbound.certificate import verify_certificate
from icbound.matroid import _FANO_LABELS, addineq_certificate, fano, nonfano, to_index_coding
from icbound.rational import DIGIT_CAP, capped, rat, rat_str, scaled
from icbound.schema import SideRow, SubmodRow

FANO_ROWS = [[int(lab[i]) for lab in _FANO_LABELS] for i in range(3)]


def fano_ranks_json():
    """The Fano matroid as a matroid file with a rank vector."""
    return {"elements": list(_FANO_LABELS), "ranks": list(fano().ranks)}


def _listed(obj):
    """An instance_to_json or certificate_to_json object as its written text
    reads back, for a test to index, change, write twice or hand to
    json.dumps. A label array holds its names' strings."""
    return json.loads(dump_json(obj, None))


def _read_back(inst):
    """inst as written and read back: its labels become strings."""
    return instance_from_json(_listed(instance_to_json(inst)))


def string_c5():
    """C5 with string labels, as any instance read back from a file has."""
    return _read_back(cycle_instance(5))


# -- serialization ---------------------------------------------------------------


def test_instance_roundtrip_stringifies_labels():
    inst = cycle_instance(5)
    obj = _listed(instance_to_json(inst))
    assert obj["messages"] == ["1", "2", "3", "4", "5"]
    back = instance_from_json(obj)
    assert back.messages.labels == ("1", "2", "3", "4", "5")
    assert list(back.receivers) == list(inst.receivers)  # same bit layout
    assert _listed(instance_to_json(back)) == obj


def test_instance_graph_form():
    obj = {"graph": {"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]}}
    inst = instance_from_json(obj)
    assert inst.n == 3
    # middle vertex knows both ends
    assert (1, 0b101) in list(inst.receivers)
    with pytest.raises(InputError):
        instance_from_json({"graph": {"vertices": [1, 2], "edges": [[1, 2, 1]]}})


def test_rational_strings():
    assert rat_str(rat("5/2")) == "5/2"
    assert rat_str(rat(4)) == "4"
    assert rat_str(rat("-6/4")) == "-3/2"
    # a float weight was once written as its binary expansion,
    # "3602879701896397/36028797018963968"
    with pytest.raises(InputError, match=re.escape("refusing float 0.1")):
        rat_str(0.1)
    instance, schema, cert = c5_certificate()
    cert.x[next(iter(cert.x))] = 0.1
    with pytest.raises(InputError, match=re.escape("refusing float 0.1")):
        certificate_to_json(cert, instance.messages, schema)


_RATIONALS = (st.integers() | st.fractions()
              | st.fractions().map(lambda q: f"{q.numerator}/{q.denominator}"))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(_RATIONALS | st.just(0) | st.just("0/7"), max_size=8))
def test_scaled_matches_fraction_arithmetic(values):
    nums, den = scaled(values)
    fracs = [Fraction(v) for v in values]
    assert den == lcm(*(q.denominator for q in fracs))
    assert [type(v) for v in nums] == [int] * len(values)
    assert [Fraction(v, den) for v in nums] == fracs


def test_scaled_takes_what_rat_takes():
    assert scaled([]) == ([], 1)
    assert scaled(iter(["-3/4", 0, rat("5/6")])) == ([-9, 0, 10], 12)
    with pytest.raises(InputError, match=re.escape("refusing float 0.5")):
        scaled([1, 0.5])


_AWKWARD_TEXT = st.text(st.sampled_from('a:"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600')
                        | st.characters(), max_size=6)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _AWKWARD_TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.lists(_AWKWARD_TEXT, max_size=4)
                   | st.dictionaries(_AWKWARD_TEXT, inner, max_size=4)
                   | st.dictionaries(st.integers(-2, 2) | st.none() | _AWKWARD_TEXT, inner,
                                     max_size=3)),
    max_leaves=20)


def _iterated(obj, keep=False):
    """obj with each list passed as an iterator, or with keep every other
    level of lists, the outermost first, kept as lists, so iterators sit
    inside dicts inside lists."""
    if type(obj) is list:
        items = [_iterated(value, not keep) for value in obj]
        return items if keep else iter(items)
    if type(obj) is tuple:
        return tuple(_iterated(value, keep) for value in obj)
    if type(obj) is dict:
        return {key: _iterated(value, keep) for key, value in obj.items()}
    return obj


@settings(max_examples=300, deadline=None, derandomize=True)
@given(obj=_JSON_VALUES)
def test_dump_json_is_stdlib_text(obj):
    text = json.dumps(obj, indent=2)
    assert dump_json(obj, None) == text
    # empty dicts, lists and iterators at depth, around and beside obj
    deep = [{"a": [obj, {}], "b": {}, "c": [[], [{}], [[obj]]]}, [], ({"d": []},), obj]
    for keep in (False, True):
        assert dump_json(_iterated(obj, keep), None) == text
        assert dump_json(_iterated(deep, keep), None) == json.dumps(deep, indent=2)
    assert dump_json(iter(()), None) == "[]"
    assert dump_json({"x": iter([])}, None) == json.dumps({"x": []}, indent=2)
    # 1, True and 1.0 are one key of a dict, each spelled its own way
    keys = [{1: "a"}, {True: "b"}, {1.0: [{1.5: None}]}, {None: {1: 1, "1": 2}}, {"1": 3}]
    assert dump_json(keys, None) == json.dumps(keys, indent=2)
    with pytest.raises(TypeError):
        dump_json({(1,): 1}, None)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mask=st.integers(0, (1 << 230) - 1), int_labels=st.booleans(),
       low=st.sampled_from((0, 7, 8, 229)),
       runs=st.lists(st.tuples(st.integers(0, 229), st.integers(1, 80)), max_size=6))
def test_masks_and_label_lists_roundtrip_past_64_bits(mask, int_labels, low, runs):
    from icbound.formats import _Labels, _Names
    from icbound.groundset import GroundSet

    gs = GroundSet(range(230) if int_labels else [f"m{i}" for i in range(230)])
    one = GroundSet([low] if int_labels else [f"m{low}"])
    # the array opens with its lowest label, a single label or not; a mask
    # of few runs, as a product's, is laid out a slice per run, and the full
    # mask, as "messages" is written, as one run
    few_runs = 1 << low
    for start, length in runs:
        few_runs |= ((1 << length) - 1 << start) & gs.full_mask
    for gs, mask in ((gs, mask), (gs, 1 << low), (gs, mask >> low << low | 1 << low),
                     (gs, few_runs), (gs, gs.full_mask), (one, one.full_mask), (one, 0)):
        array = _Labels(_Names(gs), mask)
        labels = [str(lab) for lab in gs.labels_of(mask)]
        written = json.loads(dump_json(array, None))
        assert written == labels
        with pytest.raises(TypeError):
            json.dumps(array)
        for obj in (lambda a: a, lambda a: [a], lambda a: {"a": a},
                    lambda a: {"a": {"b": a}, "c": "d"},
                    lambda a: {"a": a, "n": [1, a], "e": {}}):
            assert dump_json(obj(array), None) == json.dumps(obj(labels), indent=2)
        assert dump_json(iter([array, {"b": array}]), None) == json.dumps(
            [labels, {"b": labels}], indent=2)
        assert gs.mask_of(gs.labels_of(mask)) == mask
        assert GroundSet([str(lab) for lab in gs.labels]).mask_of(written) == mask


# labels that product_messages keeps distinct: no ":"
_LABEL_TEXT = st.text(st.sampled_from('ab"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'), max_size=4)


@st.composite
def _instances(draw, max_n=7):
    """An instance of 1 to max_n messages with integer labels or awkward
    string labels, whose receivers may know nothing, want the same message
    or be none at all, so some messages nobody wants."""
    n = draw(st.integers(1, max_n))
    label = st.integers(-9, 99) if draw(st.booleans()) else _LABEL_TEXT
    labels = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, (1 << n) - 1)),
                          max_size=2 * n))
    return IndexCodingInstance(GroundSet(labels), [(w, k & ~(1 << w)) for w, k in pairs])


def _labels_of(names, mask):
    return [name for i, name in enumerate(names) if mask >> i & 1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(inst=_instances(), other=_instances(3))
def test_receivers_and_x_layouts_write_stdlib_text(inst, other):
    names = list(map(str, inst.messages.labels))
    obj = instance_to_json(inst)
    text = dump_json(obj, None)
    assert text == json.dumps({"messages": names, "receivers": [
        {"wants": names[w], "knows": _labels_of(names, k)} for w, k in inst.receivers]},
        indent=2)
    back = instance_from_json(json.loads(text))
    assert back.messages.labels == tuple(names) and back.receivers == inst.receivers
    with pytest.raises(TypeError):
        json.dumps(obj["messages"])
    with pytest.raises(TypeError):
        json.dumps(obj["receivers"])
    schema = schema_by_name("submod")
    cert = solve_problem(build_problem(inst, schema)).cert
    combined = combine_certificates(inst, other, cert,
                                    solve_problem(build_problem(other, schema)).cert, schema)
    for written, gs in ((cert, inst.messages),
                        (combined, product_messages(inst.messages, other.messages))):
        names = list(map(str, gs.labels))
        text = dump_json(certificate_to_json(written, gs, schema), None)
        listed = json.loads(text)
        assert listed["x"] == [{"s": _labels_of(names, s), "t": _labels_of(names, t),
                                "v": rat_str(v)} for (s, t), v in sorted(written.x.items())]
        assert text == json.dumps(listed, indent=2)
        with pytest.raises(TypeError):
            json.dumps(certificate_to_json(written, gs, schema)["x"])


def test_certificate_roundtrip_bit_exact():
    inst = string_c5()
    schema = schema_by_name("submod")
    cert = solve_problem(build_problem(inst, schema)).cert
    obj = certificate_to_json(cert, inst.messages, schema)
    text = dump_json(obj, None)
    back, back_schema = certificate_from_json(json.loads(text), inst.messages)
    assert back.x == cert.x
    assert back.y == cert.y
    assert back.claimed_value == cert.claimed_value
    assert json.loads(text)["closure"] == "single"
    assert verify_certificate(inst, back_schema, back) == rat("5/2")


def test_homext_certificate_roundtrip():
    inst = _read_back(to_index_coding(fano()))
    schema = schema_by_name("submod+fano-odd")
    row = next(r for r in schema.rows(inst.messages) if r.side == 1)
    cert = addineq_certificate(fano(), row, schema)
    obj = _listed(certificate_to_json(cert, inst.messages, schema))
    kinds = {entry["row"]["kind"] for entry in obj["y"]}
    assert kinds == {"right"}
    assert obj["y"][0]["row"]["inner"]["kind"] == "homext"
    back, _ = certificate_from_json(obj, inst.messages, schema)
    assert back.x == cert.x and back.y == cert.y
    assert verify_certificate(inst, schema, back) == rat("133/33")


def test_schema_registry():
    for name in SCHEMA_NAMES:
        assert schema_by_name(name).name == name
    with pytest.raises(InputError):
        schema_by_name("entropic")


def test_matroid_json_forms():
    obj = fano_ranks_json()
    assert obj["elements"] == list(_FANO_LABELS)
    assert matroid_from_json(obj).ranks == fano().ranks
    via_matrix = matroid_from_json(
        {"elements": list(_FANO_LABELS), "matrix": {"p": 2, "rows": FANO_ROWS}}
    )
    assert via_matrix.ranks == fano().ranks
    bad = dict(obj)
    bad["ranks"] = list(obj["ranks"])
    bad["ranks"][3] = 3  # a pair cannot jump two ranks above its members
    with pytest.raises(InputError):
        matroid_from_json(bad)
    with pytest.raises(InputError):
        matroid_from_json(
            {"elements": ["a", "b"], "matrix": {"p": 2, "rows": [[1]]}}
        )


@pytest.mark.parametrize("bad", [True, 1.0, 1.5])
def test_matroid_json_names_a_non_integer_rank_or_entry(bad):
    # ranks and matrix rows are read a whole list at a time; an entry that
    # is not an int is still named by its path and shown as it was read
    with pytest.raises(InputError) as err:
        matroid_from_json({"elements": ["a", "b"], "ranks": [0, 1, bad, 1]})
    assert str(err.value) == f"ranks[2] must be an integer, got {bad!r}"
    with pytest.raises(InputError) as err:
        matroid_from_json({"elements": ["a", "b"], "matrix": {"p": 2, "rows": [[1, 0], [0, bad]]}})
    assert str(err.value) == f"matrix.rows[1][1] must be an integer, got {bad!r}"
    rows = [(1, 0), [0, 1]]  # an in-process tuple row reads as an array
    assert matroid_from_json({"elements": ["a", "b"], "matrix": {"p": 2, "rows": rows}}).ranks \
        == (0, 1, 1, 2)


def test_written_certificate_object_does_not_read_back_in_process():
    # what instance_to_json and certificate_to_json return is for dump_json
    # alone: the readers refuse its layout objects, and "y", a one-shot
    # iterator, where a reader that took iterators could see an exhausted
    # one as an empty array
    inst = string_c5()
    for written in (inst, to_index_coding(fano()), IndexCodingInstance(GroundSet(["a"]), [])):
        with pytest.raises(InputError) as err:
            instance_from_json(instance_to_json(written))
        assert str(err.value) == "messages must be an array, got _Labels"
    obj = certificate_to_json(c5_certificate()[2], inst.messages, schema_by_name("submod"))
    with pytest.raises(InputError) as err:
        certificate_from_json(obj, inst.messages)
    assert str(err.value) == "x must be an array, got _XEntries"
    obj["x"] = []
    with pytest.raises(InputError, match=r"^y must be an array, got <generator "):
        certificate_from_json(obj, inst.messages)


def test_unserializable_row_is_refused_before_the_file_opens(tmp_path):
    # a row with no JSON form, two union sides deep, after the good rows
    inst, schema, cert = c5_certificate()
    bad = SideRow(0, SideRow(1, "mystery"))
    cert = DualCertificate(cert.schema_name, cert.x, {**cert.y, bad: rat(1)})
    path = tmp_path / "cert.json"
    with pytest.raises(InputError) as err:
        dump_json(certificate_to_json(cert, inst.messages, schema), str(path))
    assert str(err.value) == "cannot serialize schema row 'mystery'"
    assert not path.exists()


def test_malformed_certificate_fields():
    inst = string_c5()
    good = _listed(certificate_to_json(c5_certificate()[2], cycle_instance(5).messages,
                                       schema_by_name("submod")))
    for mutate in (
        lambda o: o.pop("schema"),
        lambda o: o.pop("closure"),
        lambda o: o["x"].append(dict(o["x"][0])),  # duplicate pair
        lambda o: o["x"][0].pop("v"),
        lambda o: o["y"][0]["row"].update(kind="mystery"),
    ):
        obj = json.loads(json.dumps(good))
        mutate(obj)
        with pytest.raises(InputError):
            certificate_from_json(obj, inst.messages)
    # one closure: any "closure" but "single" is refused by name and value
    for closure in ("transitive", "iterated", ["single"]):
        obj = json.loads(json.dumps(good))
        obj["closure"] = closure
        with pytest.raises(InputError, match="^" + re.escape(
                f'closure is {closure!r}; only "single" closure is supported') + "$"):
            certificate_from_json(obj, inst.messages)
    # homext or union rows placed under a schema that has no such part
    for row, message in (
        ({"kind": "homext", "schema": "submod", "base": [], "atoms": {}},
         "y[0].row is a 'submod' row under schema 'submod'"),
        ({"kind": "left", "inner": good["y"][0]["row"]},
         "y[0].row is a 'left' row under schema 'submod'"),
    ):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            certificate_from_json(
                {"schema": "submod", "closure": "single", "y": [{"row": row, "v": "1"}],
                 "x": []},
                inst.messages,
            )


def test_load_json_errors(tmp_path):
    with pytest.raises(InputError):
        load_json(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    # not JSON, not UTF-8, an integer past the digit limit, nesting past the stack
    for text in (b"{nope", b'["\xe9"]', b"1" * 5000, b"[" * 100000):
        bad.write_bytes(text)
        with pytest.raises(InputError):
            load_json(str(bad))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=_JSON_VALUES)
def test_load_json_is_json_load(obj, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"value": obj}))
    # repr tells 1, True, 1.0 and "1" apart, where == does not
    assert repr(load_json(str(path))) == repr(json.loads(path.read_text()))


def test_load_json_keeps_mixed_arrays_as_decoded(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": ["x:y", "1"], "b": [1, true, 1.0, "1"], "c": [["x:y"]]}')
    assert repr(load_json(str(path))) == repr(
        {"a": ["x:y", "1"], "b": [1, True, 1.0, "1"], "c": [["x:y"]]})


def test_dump_json_writes_long_text_in_slices(tmp_path):
    # over 2 MiB, so the write spans many batches; "wide" is one member far
    # longer than a batch, so it is cut inside its own arrays
    obj = {"x": [{"s": [f"{i}:{j}" for j in range(40)], "v": f"{i}/7"} for i in range(6000)],
           "wide": {"s": [f"w{j}" for j in range(3000)], "t": [[[str(j)]] for j in range(3000)]}}
    path = tmp_path / "long.json"
    text = json.dumps(obj, indent=2)
    assert len(text) > 2 << 20
    written = dump_json(obj, str(path))
    assert written == len(text)
    assert path.read_bytes() == (text + "\n").encode("ascii")
    # what the text's encode would measure, a file's size less its newline,
    # for a named file and for an open one
    assert len(written.encode("utf-8")) + 1 == path.stat().st_size
    with open(path, "w", encoding="utf-8") as out:
        written = dump_json(obj, out)
    assert len(written.encode("utf-8")) + 1 == path.stat().st_size
    # no piece is longer than a line, and a write holds the pieces of one
    # batch, the member that filled it and the closing brackets behind it
    fh = _Counted()
    assert dump_json(obj, fh) == len(text)
    assert fh.getvalue() == text + "\n"
    line = max(map(len, text.split("\n"))) + 1
    assert max(fh.sizes) <= (formats._BATCH + 8) * line, max(fh.sizes)


def test_dump_json_leaves_the_batches_before_a_layout_error(tmp_path):
    # the file is opened, and so emptied, before obj is laid out: a value
    # that is not JSON stops the write where the batches written so far end
    good = [[f"{i}:{j}", i] for i in range(2000) for j in range(2)]
    path = tmp_path / "out.json"
    path.write_text("the old file\n")
    with pytest.raises(TypeError):
        dump_json(good + [object()], str(path))
    partial = path.read_text()
    assert 0 < len(partial) < len(json.dumps(good, indent=2))
    assert json.dumps(good + [0], indent=2).startswith(partial)


def _read_or_refuse(read) -> str:
    """repr of what read() returns; "InputError" when it refuses the text."""
    try:
        return repr(read())
    except InputError:
        return "InputError"


def _buffered_matches_json_loads(tmp_path, monkeypatch, text, hook, masks_of=None,
                                 chunks=(1, 4, 9)):
    """load_json reads text as json.loads does with the same hook, whatever
    the buffer size, and leaves json.load to word only a refusal."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    want = _read_or_refuse(lambda: json.loads(text, object_pairs_hook=hook))
    reread = []
    load = json.load
    monkeypatch.setattr(json, "load", lambda *args, **kw: reread.append(1) or load(*args, **kw))
    for chunk in chunks:
        monkeypatch.setattr(formats, "_CHUNK", chunk)
        assert _read_or_refuse(lambda: load_json(str(path), masks_of)) == want, chunk
    assert not reread or want == "InputError"
    monkeypatch.undo()


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=_JSON_VALUES)
def test_load_json_reads_across_buffer_edges(obj, tmp_path, monkeypatch):
    for doc in ({"value": obj, "next": [obj, [obj], []], "last": {}}, [obj, {"k": obj}, [obj, obj]]):
        for text in (json.dumps(doc), json.dumps(doc, indent=2)):
            _buffered_matches_json_loads(tmp_path, monkeypatch, text, formats._object)


_GS_LABELS = ["a", "b", "c:d", "e"]
_MASKABLE = st.lists(st.sampled_from(_GS_LABELS + ["zz", 1, True]), max_size=5)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(entries=st.lists(st.fixed_dictionaries(
    {"s": _MASKABLE, "t": _MASKABLE, "v": st.integers() | _AWKWARD_TEXT}), max_size=4),
    atoms=_MASKABLE)
def test_masked_load_json_reads_across_buffer_edges(entries, atoms, tmp_path, monkeypatch):
    gs = GroundSet(_GS_LABELS)
    doc = {"x": entries, "y": [{"row": {"base": atoms, "atoms": {"1": atoms}}, "v": "1"}]}
    for top in (doc, [doc, entries]):
        _buffered_matches_json_loads(tmp_path, monkeypatch, json.dumps(top), formats._masker(gs)[0],
                                     gs)


def test_load_json_takes_a_number_only_when_it_ends(tmp_path, monkeypatch):
    # a 5-character buffer once ended after "e+" and 7.0160528404885225 was read
    for pad in range(12):
        for number in ("7.0160528404885225e+19", "-12345.5e-3", "123456789", "-0.25"):
            text = '{"x": [' + " " * pad + number + ", " + number + "]}"
            _buffered_matches_json_loads(tmp_path, monkeypatch, text, formats._object,
                                         chunks=(5,))


class _Counted(io.StringIO):
    """Text whose read sizes and written lengths are recorded."""

    def __init__(self, text: str = ""):
        super().__init__(text)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("text, whole", [
    ('{"k": ["' + "x" * 10000 + '"]}', True),  # one value many buffers long
    ('{"k": [1, "' + "x" * 10000 + ']}', False),  # a string left open
], ids=["long-value", "unclosed-string"])
def test_load_json_grows_the_buffer_for_a_long_value(text, whole, monkeypatch):
    # a 4-character buffer grown by one buffer per retry would read 2500 times
    monkeypatch.setattr(formats, "_CHUNK", 4)
    fh = _Counted(text)
    reader = formats._Reader(fh, formats._object)
    if whole:
        assert reader.document() == json.loads(text)
    else:
        pytest.raises(ValueError, reader.document)
    assert len(fh.sizes) < 30, fh.sizes


def _entries(count: int, bad: str = "") -> str:
    """A certificate-shaped document of count x entries, one of them bad,
    past the first few buffers."""
    lines = [f'    {{"s": ["{i}"], "t": [], "v": "{i}/7"}}' for i in range(count)]
    if bad:
        lines[count - 3] = bad
    return '{\n  "x": [\n' + ",\n".join(lines) + '\n  ]\n}\n'


@pytest.mark.parametrize("bad", [
    '    {"s": ["1"], "t": [], "t": [], "v": "1"}',  # a repeated key
    '    {"s": ["1"], "t": [], "v": "1/2",}',  # a trailing comma
    '    {"s": ["1"] "t": [], "v": "1/2"}',  # a missing comma
    '    {"s": ["1"], "t": [], "v": 1/2}',  # not a value
    '    {"s": ["1"], "t": [], "v": "1/2"',  # an object left open
])
def test_load_json_past_the_first_buffer_refuses_as_json_load(bad, tmp_path, monkeypatch):
    monkeypatch.setattr(formats, "_CHUNK", 64)
    path = tmp_path / "doc.json"
    for text in (_entries(40, bad), _entries(40) + "x"):
        path.write_text(text)
        with pytest.raises(InputError) as got:
            load_json(str(path))
        try:
            json.loads(text, object_pairs_hook=formats._object)
        except InputError as exc:  # the repeated key
            assert str(got.value) == f"{path}: {exc}"
        except ValueError as exc:  # line and column count from the start of the file
            assert re.search(r"line (4[0-9]|3[0-9]) column", str(exc)), exc
            assert str(got.value) == f"{path} is not valid JSON: {exc}"
        else:
            raise AssertionError("json.loads read the bad document")


# -- command line ----------------------------------------------------------------


@pytest.fixture()
def c5_file(tmp_path):
    path = tmp_path / "c5.json"
    dump_json(instance_to_json(cycle_instance(5)), str(path))
    return str(path)


@pytest.fixture()
def fano_file(tmp_path):
    path = tmp_path / "fano.json"
    dump_json(instance_to_json(to_index_coding(fano())), str(path))
    return str(path)


def test_cli_solve_verify_and_tamper(c5_file, tmp_path, capsys):
    cert = str(tmp_path / "cert.json")
    assert main(["solve", c5_file, "--emit-cert", cert]) == 0
    out = capsys.readouterr().out
    assert "b = 5/2" in out and cert in out

    assert main(["verify", c5_file, cert]) == 0
    assert "value = 5/2" in capsys.readouterr().out

    obj = load_json(cert)
    obj["value"] = "3"
    dump_json(obj, cert)
    assert main(["verify", c5_file, cert]) == 1
    assert "verification failed" in capsys.readouterr().err

    obj.pop("schema")
    dump_json(obj, cert)
    assert main(["verify", c5_file, cert]) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_solve_refuses_a_certificate_it_cannot_verify(c5_file, capsys, monkeypatch):
    # rows read back in reverse give the right b and a wrong certificate
    def backwards(*args):
        problem = build_problem(*args)
        return dataclasses.replace(problem, schema_rows=problem.schema_rows[::-1])

    monkeypatch.setattr(cli, "build_problem", backwards)
    assert main(["solve", c5_file]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("internal verification failure: extracted certificate: combination misses "
                   "e_empty - e_full; first offender () with excess -1/2\n")


def test_cli_solve_stats_go_to_stderr_alone(c5_file, tmp_path, capsys):
    plain, counted = str(tmp_path / "plain.json"), str(tmp_path / "counted.json")
    assert main(["solve", c5_file, "--emit-cert", plain]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert main(["solve", c5_file, "--emit-cert", counted, "--stats"]) == 0
    out_stats, err_stats = capsys.readouterr()
    assert out_stats == out.replace(plain, counted)
    with open(plain, "rb") as a, open(counted, "rb") as b:
        assert a.read() == b.read()
    assert err_stats.endswith("\n") and err_stats.count("\n") == 1
    assert json.loads(err_stats) == {
        "iterations": 50, "degenerate": 48, "forced_exits": 26, "rescaling": 7,
        "widenings": 0, "tightenings": 0, "width": 64, "den_bits": 3}


@pytest.mark.parametrize("argv", [
    ["solve", "{c5}", "--emit-cert", "{out}"],
    ["product", "{c5}", "{c5}", "--out", "{out}"],
    ["combine", "{c5}", "{c5}", "{cert}", "{cert}", "--out", "{out}"],
    ["matroid2ic", "{matroid}", "--out", "{out}"],
], ids=["solve", "product", "combine", "matroid2ic"])
def test_cli_unwritable_output_is_an_input_error(argv, c5_file, tmp_path, capsys):
    # each used to end in a FileNotFoundError traceback and exit 1
    cert = _write(tmp_path, "cert.json", certificate_to_json(
        c5_certificate()[2], cycle_instance(5).messages, schema_by_name("submod")))
    files = {"c5": c5_file, "cert": cert, "out": str(tmp_path / "missing" / "out.json"),
             "matroid": _write(tmp_path, "matroid.json", fano_ranks_json())}
    assert main([a.format(**files) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {files['out']}: "), err


def test_cli_calls_in_one_process_share_no_options(c5_file, fano_file, tmp_path, capsys):
    """main reuses one parser; an option given to one call must not reach the next."""
    assert main(["solve", c5_file]) == 0
    assert _build_parser() is _build_parser()
    cert = tmp_path / "cert.json"
    assert main(["solve", c5_file, "--emit-cert", str(cert)]) == 0
    cert.unlink()
    capsys.readouterr()
    assert main(["solve", c5_file]) == 0
    assert "certificate ->" not in capsys.readouterr().out
    assert not cert.exists()

    assert main(["solve", fano_file, "--schema", "submod+fano-odd"]) == 0
    assert "b = 73/18" in capsys.readouterr().out
    assert main(["solve", fano_file]) == 0
    assert capsys.readouterr().out == "b = 4\n"


def test_cli_solve_iterated_closure(c5_file, tmp_path, capsys):
    # icb solve has no --closure option, and a certificate file that says
    # "iterated" is refused with exit 2 and one line
    for closure in ("iterated", "single"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", c5_file, "--closure", closure])
        assert exc.value.code == 2
        assert "unrecognized arguments: --closure" in capsys.readouterr().err
    cert = tmp_path / "cert.json"
    assert main(["solve", c5_file, "--emit-cert", str(cert)]) == 0
    capsys.readouterr()
    obj = load_json(str(cert))
    obj["closure"] = "iterated"
    dump_json(obj, str(cert))
    assert main(["verify", c5_file, str(cert)]) == 2
    assert capsys.readouterr() == (
        "", "input error: closure is 'iterated'; only \"single\" closure is supported\n")


def test_cli_product_and_combine(c5_file, tmp_path, capsys, monkeypatch):
    cert = str(tmp_path / "cert.json")
    assert main(["solve", c5_file, "--emit-cert", cert]) == 0
    capsys.readouterr()

    prod = str(tmp_path / "c5sq.json")
    assert main(["product", c5_file, c5_file, "--out", prod]) == 0
    assert load_json(prod)["messages"] == [
        f"{a}:{b}" for a in "12345" for b in "12345"
    ]

    # combine builds the product's receivers once, to verify the result
    built = []
    lex_product = IndexCodingInstance.lex_product
    monkeypatch.setattr(IndexCodingInstance, "lex_product",
                        lambda self, other: built.append(other) or lex_product(self, other))
    comb = str(tmp_path / "comb.json")
    assert main(["combine", c5_file, c5_file, cert, cert, "--out", comb]) == 0
    assert "value = 25/4" in capsys.readouterr().out
    assert len(built) == 1
    assert main(["verify", prod, comb]) == 0
    assert "value = 25/4" in capsys.readouterr().out

    # the second certificate must use the first one's schema
    odd = str(tmp_path / "odd.json")
    assert main(["solve", c5_file, "--schema", "submod+fano-odd", "--emit-cert", odd]) == 0
    capsys.readouterr()
    assert main(["combine", c5_file, c5_file, cert, odd]) == 2
    assert "schema is 'submod+fano-odd', expected 'submod'" in capsys.readouterr().err


def test_cli_solve_refuses_an_lp_past_the_row_cap(tmp_path, capsys):
    # full C9's 512 rows had not finished after 15 minutes; C8's 256 take about 5 s
    eight = IndexCodingInstance.from_receivers(GroundSet(range(8)), [])
    assert build_problem(eight).lp.nrows == ROW_CAP == 256
    path = _write(tmp_path, "nine.json", {"messages": [str(i) for i in range(9)], "receivers": []})
    start = time.perf_counter()
    assert main(["solve", path, "--emit-cert", str(tmp_path / "cert.json")]) == 3
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        "resource cap: the bound LP of 9 messages has 512 rows, a dense adjugate of "
        "262144 entries (rows^2); the cap is 256 rows\n")
    assert not (tmp_path / "cert.json").exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="caps RLIMIT_AS")
def test_cli_matroid2ic_refuses_a_large_matrix_before_the_walk(tmp_path):
    # the cap used to fire only after the walk: 2^18 masks took 0.21 s, and
    # 2^30 would exhaust memory; the child's address space and CPU time are
    # capped so that a walk here fails instead
    labels = [f"e{i}" for i in range(30)]
    path = _write(tmp_path, "wide.json", {"elements": labels, "matrix": {
        "p": 3, "rows": [[(i * j) % 3 for j in range(30)] for i in range(4)]}})
    child = ("import resource, sys, time\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
             "resource.setrlimit(resource.RLIMIT_CPU, (10, 10))\n"
             "from icbound.cli import main\n"
             "start = time.perf_counter()\n"
             "code = main(sys.argv[1:])\n"
             "print(time.perf_counter() - start)\n"
             "sys.exit(code)\n")
    src = os.path.dirname(os.path.dirname(formats.__file__))
    proc = subprocess.run([sys.executable, "-c", child, "matroid2ic", path,
                           "--out", str(tmp_path / "wide.ic.json")],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "resource cap: dense matroid limited to 12 elements, got 30\n"
    assert float(proc.stdout) < 0.5
    assert not (tmp_path / "wide.ic.json").exists()


def test_cli_exits_141_without_a_traceback_when_stdout_closes(tmp_path):
    # as `icb product fano.json fano.json | head -c 100`: the reader takes
    # 100 bytes of the 1 MB product and closes the pipe
    path = str(tmp_path / "fano.json")
    dump_json(instance_to_json(to_index_coding(fano())), path)
    src = os.path.dirname(os.path.dirname(formats.__file__))
    with subprocess.Popen([sys.executable, "-m", "icbound.cli", "product", path, path],
                          env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert head.startswith(b"{") and len(head) == 100
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_cli_exits_2_with_one_line_when_stdout_is_full(tmp_path):
    # as `icb product c5.json c5.json > /dev/full`: every write to stdout
    # fails with ENOSPC, and the error is named, not shown as a traceback
    inst, schema, cert = c5_certificate()
    path, cert_path = str(tmp_path / "c5.json"), str(tmp_path / "c5.cert.json")
    dump_json(instance_to_json(inst), path)
    dump_json(certificate_to_json(cert, inst.messages, schema), cert_path)
    src = os.path.dirname(os.path.dirname(formats.__file__))
    for argv in (["product", path, path], ["verify", path, cert_path]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "icbound.cli", *argv],
                                  env=dict(os.environ, PYTHONPATH=src), stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (
            2, "input error: cannot write stdout: [Errno 28] No space left on device\n"), argv


def test_denominators_are_capped_at_the_digits_that_read_back():
    assert capped(10 ** DIGIT_CAP - 1) == 10 ** DIGIT_CAP - 1
    widest = Fraction(-1, 10 ** DIGIT_CAP - 1)
    assert rat(rat_str(widest)) == widest
    for den, digits in ((10 ** DIGIT_CAP, 4301), (2 ** 20000, 6021), (10 ** 8000 + 7, 8001)):
        with pytest.raises(ResourceCapError, match=f"^a denominator of {digits} digits is past "
                           f"the cap of {DIGIT_CAP} digits$"):
            capped(den)
    with pytest.raises(ResourceCapError):
        scaled([Fraction(1, 10 ** 2200 + 1), Fraction(1, 10 ** 2200 + 3)])


def test_cli_refuses_denominators_past_the_cap_in_one_line(tmp_path):
    # C5's certificate with its seven x weights 1/(10^4000 + k) is not
    # valid, and with its weights scaled by 1 - w beside a chain of weight
    # w = 1/(10^2200 + 1) it is: verify of the first and combine of the
    # second with itself grow a denominator past the cap, before any
    # offender or entry is spelled, and no file is written
    inst, schema, cert = c5_certificate()
    bad = DualCertificate(cert.schema_name, {pair: Fraction(1, 10 ** 4000 + k)
                                             for k, pair in enumerate(cert.x)}, cert.y)
    w = Fraction(1, 10 ** 2200 + 1)
    x = {pair: v * (1 - w) for pair, v in cert.x.items()}
    for i in range(5):  # the chain {} < {1} < {1, 2} < ... < {1, ..., 5}
        pair = ((1 << i) - 1, (2 << i) - 1)
        x[pair] = x.get(pair, 0) + w
    big = DualCertificate(cert.schema_name, x, {row: v * (1 - w) for row, v in cert.y.items()})
    path = _write(tmp_path, "c5.json", instance_to_json(inst))
    bad_path, big_path = (_write(tmp_path, name, certificate_to_json(c, inst.messages, schema))
                          for name, c in (("bad.json", bad), ("big.json", big)))
    out = str(tmp_path / "c5sq.cert.json")
    src = os.path.dirname(os.path.dirname(formats.__file__))
    value = (1 - w) * Fraction(5, 2) + w  # only {1, ..., 4} < {1, ..., 5} decodes, one message
    for argv, code, stdout, stderr in (
            (["verify", path, bad_path], 3, "",
             "resource cap: a denominator of 8001 digits is past the cap of 4300 digits\n"),
            (["verify", path, big_path], 0, f"value = {rat_str(value)}\n", ""),
            (["combine", path, path, big_path, big_path, "--out", out], 3, "",
             "resource cap: a denominator of 4401 digits is past the cap of 4300 digits\n")):
        proc = subprocess.run([sys.executable, "-m", "icbound.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr), argv
    assert not os.path.exists(out)


def test_cli_matroid_alpha_search(tmp_path, c5_file, capsys):
    mat = str(tmp_path / "fano-matroid.json")
    dump_json(fano_ranks_json(), mat)
    inst = str(tmp_path / "fano-inst.json")
    assert main(["matroid2ic", mat, "--out", inst]) == 0
    assert len(load_json(inst)["receivers"]) == 49

    assert main(["alpha", c5_file]) == 0
    assert "alpha = 2" in capsys.readouterr().out
    assert main(["alpha", c5_file, "--cap", "3"]) == 3
    assert "resource cap" in capsys.readouterr().err

    assert main(["search-linear", c5_file, "2"]) == 0
    assert "lambda1 = 3" in capsys.readouterr().out
    assert main(["search-linear", c5_file, "2", "--l-max", "2"]) == 0
    assert "exceeds 2" in capsys.readouterr().out
    assert main(["search-linear", inst, "2"]) == 3


def test_cli_search_below_the_bound_exceeds_without_a_code(c5_file, monkeypatch, capsys):
    # the kernel search reads one closure table and ranks no candidate code
    calls = []
    monkeypatch.setattr(lincode, "is_valid_code", lambda *a: calls.append(a))
    for l_max in ("0", "2"):
        assert main(["search-linear", c5_file, "2", "--l-max", l_max]) == 0
        assert capsys.readouterr().out == f"exceeds {l_max}\n"
    assert calls == []


@pytest.mark.parametrize("argv, option", [
    (["alpha", None, "--cap", "-3"], "--cap"),
    (["search-linear", None, "2", "--l-max", "-1"], "--l-max"),
], ids=["cap", "l-max"])
def test_cli_refuses_negative_counts(argv, option, c5_file, capsys):
    # --cap -3 used to exit 3 as if the cap were hit; --l-max -1 printed
    # "exceeds -1" and exited 0
    with pytest.raises(SystemExit) as exc:
        main([c5_file if a is None else a for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}: must be a nonnegative integer, got '-" in err


def test_cli_row_policies(fano_file, tmp_path, capsys):
    assert main(["solve", fano_file, "--schema", "submod+fano-odd"]) == 0
    assert "b = 73/18" in capsys.readouterr().out

    # swapping the first two coordinates is an automorphism, so the orbit
    # policy adds a row without moving the optimum
    perms = str(tmp_path / "perms.json")
    with open(perms, "w") as fh:
        json.dump([{"100": "010", "010": "100", "101": "011", "011": "101"}], fh)
    assert main(["solve", fano_file, "--schema", "submod+fano-odd",
                 "--rows", f"orbit:{perms}"]) == 0
    assert "b = 73/18" in capsys.readouterr().out

    homs = str(tmp_path / "homs.json")
    atoms = {lab: [lab] for lab in _FANO_LABELS}
    with open(homs, "w") as fh:
        json.dump([{"base": [], "atoms": atoms}], fh)
    assert main(["solve", fano_file, "--schema", "submod+fano-odd",
                 "--rows", f"file:{homs}"]) == 0
    assert "b = 73/18" in capsys.readouterr().out

    assert main(["solve", fano_file, "--schema", "submod",
                 "--rows", f"file:{homs}"]) == 2
    assert main(["solve", fano_file, "--schema", "submod+fano-odd",
                 "--rows", "sideways"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err


def test_cli_demos(capsys):
    assert main(["demo", "c5"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and out.count("ok:") == 4

    assert main(["demo", "alpha-beta"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "25/4" in out

    # the paper's headline numbers: Fano 133/33 and non-Fano 93/23 under
    # their parity rows, and the 49-message product pinned at 16 by
    # submodularity but lifted to 532/33 and 372/23
    assert main(["demo", "fano-gap"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "= 133/33 > 4" in out and "= 93/23 > 4" in out

    assert main(["demo", "separation"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "at 16\n" in out
    assert "= 532/33 > 16" in out and "= 372/23 > 16" in out


# -- malformed input: exit code 2 and the path of the offending field --------


def _assert_input_error(argv, path, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.match(rf"input error: {re.escape(path)}[ :]", err), err


def _write(tmp_path, name, obj) -> str:
    path = str(tmp_path / name)
    dump_json(obj, path)
    return path


@pytest.mark.parametrize("obj, path", [
    # each of these was misread or crashed with a raw TypeError
    ({"messages": ["1", "2", "3"], "receivers": [{"wants": "1", "knows": "23"}]},
     "receivers[0].knows"),
    ({"messages": "abc", "receivers": [{"wants": "a", "knows": ["b"]}]}, "messages"),
    ({"graph": {"vertices": "123", "edges": [["1", "2"]]}}, "graph.vertices"),
    ({"messages": ["True", "b"], "receivers": [{"wants": True, "knows": ["b"]}]},
     "receivers[0].wants"),
    ({"messages": ["1", "2"], "receivers": 5}, "receivers"),
    ({"graph": {"vertices": 3, "edges": []}}, "graph.vertices"),
    # edge errors used to name no path, e.g. "unknown label '9'"
    ({"graph": {"vertices": ["1", "2"], "edges": [["1", "9"]]}}, "graph.edges[0][1]"),
    ({"graph": {"vertices": ["1", "2"], "edges": [["1", "2"], ["1", "2", "1"]]}},
     "graph.edges[1]"),
    ({"graph": {"vertices": ["1", "2"], "edges": [["1", "2"], ["2", "2"]]}}, "graph.edges[1]"),
    ({"graph": {"vertices": ["1", "2", "1"], "edges": []}}, "graph.vertices"),
    # used to name no path: "a receiver cannot know the message it wants"
    ({"messages": ["a", "b"], "receivers": [{"wants": "a", "knows": ["a"]}]}, "receivers[0]"),
    ({"messages": ["a", "b"], "receivers": [{"wants": "a", "knows": ["b"]},
                                            {"wants": "b", "knows": ["a", "b"]}]},
     "receivers[1]"),
], ids=["knows-string", "messages-string", "vertices-string", "wants-bool",
        "receivers-int", "vertices-int", "edge-unknown-label", "edge-not-a-pair",
        "edge-self-loop", "vertices-repeated", "knows-wanted", "knows-wanted-second"])
def test_cli_malformed_instance(obj, path, tmp_path, capsys):
    _assert_input_error(["solve", _write(tmp_path, "inst.json", obj)], path, capsys)


@pytest.mark.parametrize("obj, path", [
    ({"elements": ["a"], "ranks": [0, 1.9]}, "ranks[1]"),
    ({"elements": ["a"], "ranks": ["x", 1]}, "ranks[0]"),
    # a valid rank vector but for true == 1, which must not be read as 1
    ({"elements": ["a", "b"], "ranks": [0, 1, 1, True]}, "ranks[3]"),
    ({"elements": ["a"], "matrix": {"p": "2", "rows": [[1]]}}, "matrix.p"),
    ({"elements": ["a"], "matrix": {"p": 2, "rows": [5]}}, "matrix.rows[0]"),
    ({"elements": ["a"], "matrix": {"p": 4, "rows": [[1]]}}, "matrix.p"),
    ({"elements": ["a"], "ranks": [0]}, "ranks"),
    ({"elements": ["a"], "ranks": [0, 2]}, "ranks"),
    # used to name no path: "each of matrix.rows must have one entry per element"
    ({"elements": ["a", "b"], "matrix": {"p": 2, "rows": [[1, 0], [1]]}}, "matrix.rows[1]"),
], ids=["rank-float", "rank-string", "rank-bool", "p-string", "row-int", "p-not-prime",
        "ranks-length", "ranks-axioms", "row-length"])
def test_cli_malformed_matroid(obj, path, tmp_path, capsys):
    _assert_input_error(["matroid2ic", _write(tmp_path, "mat.json", obj)], path, capsys)


def test_error_message_bounds_deep_values():
    deep = []
    for _ in range(5000):
        deep = [deep]
    with pytest.raises(InputError, match=r"^messages\[0\] must be a label"):
        instance_from_json({"messages": [deep], "receivers": []})


@pytest.mark.parametrize("mutate, path", [
    (lambda c: c["x"][0].update(v=0.5), "x[0].v"),
    (lambda c: c.update(x=3), "x"),
    # int() read each of these spellings; the first two as 5/2 and 1/2
    (lambda c: c.update(value="2_5/10"), "value"),
    (lambda c: c["x"][0].update(v="1_0/20"), "x[0].v"),
    (lambda c: c.update(value="+5/2"), "value"),
    (lambda c: c.update(value="5/+2"), "value"),
    (lambda c: c.update(value=" 5/2"), "value"),
    (lambda c: c.update(value="5/2 "), "value"),
    (lambda c: c.update(value="\uff15/2"), "value"),  # fullwidth digit five
    (lambda c: c.update(value="\u0665/2"), "value"),  # Arabic-Indic digit five
    # used to name no path: "unknown schema 'sumbod'; known: ..."
    (lambda c: c.update(schema="sumbod"), "schema"),
], ids=["v-float", "x-int", "value-underscore", "v-underscore", "value-plus",
        "value-plus-denominator", "value-leading-space", "value-trailing-space",
        "value-fullwidth-digit", "value-arabic-indic-digit", "schema-unknown"])
def test_cli_malformed_certificate(mutate, path, c5_file, tmp_path, capsys):
    cert = _c5_cert_json()
    mutate(cert)
    _assert_input_error(["verify", c5_file, _write(tmp_path, "cert.json", cert)],
                        path, capsys)


def test_cli_integer_claimed_value_is_checked(c5_file, tmp_path, capsys):
    # an integer is a rational, so "value": 3 is read and then refuted
    cert = certificate_to_json(c5_certificate()[2], cycle_instance(5).messages,
                               schema_by_name("submod"))
    cert["value"] = 3
    assert main(["verify", c5_file, _write(tmp_path, "cert.json", cert)]) == 1
    assert "claimed value 3 but the combination is worth 5/2" in capsys.readouterr().err


def test_cli_homext_atom_key_outside_generator(fano_file, tmp_path, capsys):
    inst = _read_back(to_index_coding(fano()))
    schema = schema_by_name("submod+fano-odd")
    row = next(r for r in schema.rows(inst.messages) if r.side == 1)
    cert = _listed(certificate_to_json(addineq_certificate(fano(), row, schema), inst.messages,
                                       schema))
    atoms = cert["y"][0]["row"]["inner"]["atoms"]
    atoms["1OO"] = []
    _assert_input_error(["verify", fano_file, _write(tmp_path, "cert.json", cert)],
                        "y[0].row.inner.atoms.1OO", capsys)
    del atoms["1OO"]
    atoms["010"] = atoms["100"]
    assert main(["verify", fano_file, _write(tmp_path, "cert.json", cert)]) == 2
    assert capsys.readouterr().err == (
        "input error: y[0].row.inner: atom images must be disjoint from each other "
        "and from the base\n")


_IDENTITY_HOM = {"base": [], "atoms": {lab: [lab] for lab in _FANO_LABELS}}
_OVERLAP = "atom images must be disjoint from each other and from the base"


@pytest.mark.parametrize("rows, schema, obj, message", [
    ("file", "submod+fano-odd",
     [{"base": [], "atoms": dict(_IDENTITY_HOM["atoms"], **{"1OO": []})}],
     "hom file[0].atoms.1OO names '1OO', which is not a generator label"),
    ("file", "submod+fano-odd", ["x"], "hom file[0] must be an object, got 'x'"),
    ("file", "submod+fano-odd", [{"base": [], "atoms": {"100": ["100", "010"], "010": ["010"]}}],
     f"hom file[0]: {_OVERLAP}"),
    ("orbit", "submod+fano-odd", [{"100": "010"}], f"orbit file[0]: {_OVERLAP}"),
    # used to exit 0 with b = 4, the map and its unknown label unread
    ("orbit", "submod", [{"100": "zzz"}], "schema 'submod' takes no homomorphism rows"),
    ("file", "submod", [_IDENTITY_HOM], "schema 'submod' takes no homomorphism rows"),
    # used to exit 0 with b = 73/18, the key not a generator label yet ignored
    ("orbit", "submod+fano-odd", [{"nope": "zzz"}],
     "orbit file[0].nope names 'nope', which is not a generator label"),
    ("orbit", "submod+fano-odd", [{"100": "zzz"}], "orbit file[0].100: unknown label 'zzz'"),
], ids=["atom-key", "entry-string", "overlapping-atoms", "orbit-overlapping-atoms",
        "orbit-under-submod", "file-under-submod", "orbit-key-outside-generator",
        "orbit-image-outside-instance"])
def test_cli_malformed_hom_file(rows, schema, obj, message, fano_file, tmp_path, capsys):
    spec = f"{rows}:" + _write(tmp_path, "rows.json", obj)
    assert main(["solve", fano_file, "--schema", schema, "--rows", spec]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_cli_orbit_map_is_read_without_the_identity_embedding(c5_file, tmp_path, capsys):
    # C5 lacks the generator's labels, so no row is added; the map used to go
    # unread and the solve exit 0 with b = 5/2
    spec = "orbit:" + _write(tmp_path, "rows.json", [{"100": "zzz"}])
    assert main(["solve", c5_file, "--schema", "submod+fano-odd", "--rows", spec]) == 2
    assert capsys.readouterr().err == "input error: orbit file[0].100: unknown label 'zzz'\n"
    spec = "orbit:" + _write(tmp_path, "rows.json", [{"100": "1"}])
    assert main(["solve", c5_file, "--schema", "submod+fano-odd", "--rows", spec]) == 0
    assert capsys.readouterr().out == "b = 5/2\n"


def test_cli_repeated_label_is_refused(c5_file, tmp_path, capsys):
    # mask_of used to OR a repeat away, so each of these exited 0
    cert = _c5_cert_json()
    cert["x"][0]["t"] = ["1", "3", "1"]
    assert main(["verify", c5_file, _write(tmp_path, "cert.json", cert)]) == 2
    assert capsys.readouterr().err == "input error: x[0].t[2] repeats the label '1'\n"
    inst = {"messages": ["1", "2", "3"], "receivers": [{"wants": "1", "knows": ["2", 3, "2"]}]}
    assert main(["solve", _write(tmp_path, "inst.json", inst)]) == 2
    assert capsys.readouterr().err == "input error: receivers[0].knows[2] repeats the label '2'\n"


def test_cli_number_for_a_label_array_is_refused(c5_file, tmp_path, capsys):
    cert = _c5_cert_json()
    cert["x"][0]["s"] = 5
    assert main(["verify", c5_file, _write(tmp_path, "cert.json", cert)]) == 2
    assert capsys.readouterr().err == "input error: x[0].s must be an array, got 5\n"


def _c5_cert_json():
    return _listed(certificate_to_json(c5_certificate()[2], cycle_instance(5).messages,
                                       schema_by_name("submod")))


def test_cli_wrong_container_shows_the_masks_read(c5_file, tmp_path, capsys):
    # a certificate is read once, with its label arrays already masks of the
    # instance, so a container of the wrong type shows them as masks
    cert = _c5_cert_json()
    cert["y"] = cert["y"][0]
    assert main(["verify", c5_file, _write(tmp_path, "cert.json", cert)]) == 2
    assert capsys.readouterr().err == ("input error: y must be an array, got "
                                       "{'row': {'kind': 'submod', 's': 14, 't': 7}, 'v': '1/2'}\n")


def test_cli_repeated_key_is_refused(c5_file, tmp_path, capsys):
    # json.load keeps the last of a repeated key: the false claim of 3 was
    # dropped (verify exited 0), and the instance was solved on its second
    # receivers array alone
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(_c5_cert_json()).replace('"5/2"', '"3", "value": null', 1))
    assert main(["verify", c5_file, str(cert)]) == 2
    assert capsys.readouterr().err == f"input error: {cert}: an object repeats the key 'value'\n"
    inst = tmp_path / "inst.json"
    inst.write_text('{"messages": ["1", "2"], "receivers": [{"wants": "1", "knows": ["2"]}],'
                    ' "receivers": [{"wants": "2", "knows": []}]}')
    assert main(["solve", str(inst)]) == 2
    assert capsys.readouterr().err == (
        f"input error: {inst}: an object repeats the key 'receivers'\n")


def test_cli_repeated_y_row_is_refused(c5_file, tmp_path, capsys):
    # a repeated y row used to add its weights up and fail verification
    # (exit 1), where a repeated x pair is refused as input (exit 2)
    cert = _c5_cert_json()
    cert["y"].append(cert["y"][0])
    assert main(["verify", c5_file, _write(tmp_path, "cert.json", cert)]) == 2
    assert capsys.readouterr().err == "input error: y[2] repeats an earlier row\n"


@pytest.mark.parametrize("broken", [0, 1], ids=["first", "second"])
def test_cli_combine_names_the_factor_that_fails(broken, c5_file, tmp_path, capsys):
    cert = _c5_cert_json()
    good = _write(tmp_path, "good.json", cert)
    cert["value"] = "3"
    certs = [good, good]
    certs[broken] = _write(tmp_path, "bad.json", cert)
    assert main(["combine", c5_file, c5_file, *certs]) == 1
    assert capsys.readouterr().err == (
        f"verification failed: {['first', 'second'][broken]} certificate: "
        "claimed value 3 but the combination is worth 5/2\n")


def test_cli_product_names_a_repeated_label(tmp_path, capsys):
    # "a" with "b:c" and "a:b" with "c" both make the product label "a:b:c"
    first = _write(tmp_path, "g.json", {"messages": ["a", "a:b"], "receivers": [
        {"wants": "a", "knows": []}, {"wants": "a:b", "knows": ["a"]}]})
    second = _write(tmp_path, "f.json", {"messages": ["b:c", "c"], "receivers": [
        {"wants": "b:c", "knows": []}, {"wants": "c", "knows": []}]})
    assert main(["product", first, second]) == 2
    assert capsys.readouterr().err == (
        "input error: ground-set labels must be distinct; 'a:b:c' repeats\n")


# -- instance reads: masks where the file allows, the typed reader elsewhere ----


def _instances_to_read():
    rng = random.Random(30)
    fano_ic, nonfano_ic = to_index_coding(fano()), to_index_coding(nonfano())
    yield cycle_instance(5)
    yield cycle_instance(5).lex_product(cycle_instance(5))
    yield fano_ic.lex_product(nonfano_ic)
    for n in (1, 3, 9, 70):
        receivers = [(w, rng.getrandbits(n) & ~(1 << w)) for w in range(n) for _ in range(w % 3)]
        yield IndexCodingInstance(GroundSet(range(n)), receivers)


@pytest.mark.parametrize("chunk", [formats._CHUNK, 1 << 8], ids=["whole", "elementwise"])
def test_masked_instance_read_equals_the_typed_read(chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(formats, "_CHUNK", chunk)
    path = str(tmp_path / "inst.json")
    for inst in _instances_to_read():
        dump_json(instance_to_json(inst), path)
        doc = load_json(path, "messages")
        assert all(type(rec["knows"]) is formats._Mask for rec in doc["receivers"])
        masked, typed = instance_from_json(doc), instance_from_json(load_json(path))
        assert masked.messages == typed.messages
        assert masked.receivers == typed.receivers == inst.receivers
        assert all(type(knows) is int for _, knows in masked.receivers)


_C5_RECEIVERS = [{"wants": str(i), "knows": [str((i - 2) % 5 + 1), str(i % 5 + 1)]}
                 for i in range(1, 6)]
_C5_LABELS = ["1", "2", "3", "4", "5"]


def _c5_with(third):
    """C5's instance file with its third receiver replaced."""
    return {"messages": _C5_LABELS, "receivers": _C5_RECEIVERS[:2] + [third] + _C5_RECEIVERS[3:]}


_C5_EDGES = [[str(i), str(i % 5 + 1)] for i in range(1, 6)]


@pytest.mark.parametrize("obj, err", [
    ({"receivers": _C5_RECEIVERS, "messages": _C5_LABELS}, None),
    ({"messages": [1, 2, 3, 4, 5], "receivers": [
        {"wants": int(r["wants"]), "knows": list(map(int, r["knows"]))} for r in _C5_RECEIVERS]},
     None),
    ({"messages": [1, 2, 3, 4, 5], "receivers": _C5_RECEIVERS}, None),
    (_c5_with({"wants": "3", "knows": [2, 4]}), None),
    ({"graph": {"vertices": _C5_LABELS, "edges": _C5_EDGES}}, None),
    ({"messages": _C5_LABELS, "graph": {"vertices": _C5_LABELS, "edges": _C5_EDGES}}, None),
    ({"messages": _C5_LABELS + ["2"], "receivers": _C5_RECEIVERS},
     "messages: ground-set labels must be distinct; '2' repeats"),
    (_c5_with({"wants": "3", "knows": ["2", "4", "2"]}),
     "receivers[2].knows[2] repeats the label '2'"),
    (_c5_with({"wants": "3", "knows": ["2", "9"]}), "receivers[2].knows: unknown label '9'"),
    (_c5_with({"wants": "9", "knows": ["2", "4"]}), "receivers[2].wants: unknown label '9'"),
    (_c5_with({"wants": "3", "knows": 6}), "receivers[2].knows must be an array, got 6"),
    (_c5_with({"wants": "3", "knows": ["2", "3"]}), "receivers[2] knows '3', the message it wants"),
], ids=["messages-last", "integer-labels", "integer-messages", "integer-knows", "graph",
        "graph-and-messages", "repeated-message", "repeated-knows", "unknown-knows",
        "unknown-wants", "knows-number", "knows-wanted"])
def test_instance_files_the_masked_read_passes_on(obj, err, tmp_path, capsys):
    """What solve and verify print for files the masked read leaves to the
    typed reader, as they printed before instances were read to masks."""
    path = _write(tmp_path, "inst.json", obj)
    cert = _write(tmp_path, "c5.cert.json", _c5_cert_json())
    for argv, out in ((["solve", path], "b = 5/2\n"), (["verify", path, cert], "value = 5/2\n")):
        assert main(argv) == (0 if err is None else 2)
        assert capsys.readouterr() == ((out, "") if err is None else ("", f"input error: {err}\n"))


def test_instance_read_refuses_a_repeated_key(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"messages": ["1", "2"], "receivers": '
                 '[{"wants": "1", "knows": [], "knows": ["2"]}]}')
    assert main(["solve", path]) == 2
    assert capsys.readouterr().err == f"input error: {path}: an object repeats the key 'knows'\n"


# -- product certificates: labels held once ------------------------------------


@pytest.fixture(scope="module")
def c5_power_certs(tmp_path_factory):
    """Exponent -> certificate file of C5^2, C5^3 and C5^4, by icb product
    and combine from the built-in pentagon certificate."""
    work = tmp_path_factory.mktemp("powers")
    c5 = inst = _write(work, "c5.json", instance_to_json(cycle_instance(5)))
    c5_cert = cert = _write(work, "c5.cert.json", certificate_to_json(
        c5_certificate()[2], cycle_instance(5).messages, schema_by_name("submod")))
    certs = {}
    for k in (2, 3, 4):
        power, certs[k] = str(work / f"c5p{k}.json"), str(work / f"c5p{k}.cert.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["product", inst, c5, "--out", power]) == 0
            assert main(["combine", inst, c5, cert, c5_cert, "--out", certs[k]]) == 0
        inst, cert = power, certs[k]
    return certs


def test_masked_certificate_load_holds_a_fraction_of_its_file(c5_power_certs):
    # the plain load holds 3.6 times the file; label lists die as entries close
    path = c5_power_certs[3]
    gs = instance_from_json(load_json(path.replace(".cert.json", ".json"))).messages
    tracemalloc.start()
    try:
        doc = load_json(path, gs)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 0.3 * os.path.getsize(path)
    cert, _ = certificate_from_json(doc, gs)
    assert cert == certificate_from_json(load_json(path), gs)[0]
    assert len(cert.x) == 343 and all(type(mask) is int for pair in cert.x for mask in pair)


def test_buffered_certificate_load_holds_a_few_buffers(c5_power_certs, monkeypatch):
    # a whole-file read peaked at twice the file, held as bytes and as a str
    path = c5_power_certs[3]
    gs = instance_from_json(load_json(path.replace(".cert.json", ".json"))).messages
    whole, _ = certificate_from_json(load_json(path, gs), gs)
    monkeypatch.setattr(formats, "_CHUNK", 1 << 14)
    tracemalloc.start()
    try:
        doc = load_json(path, gs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert os.path.getsize(path) > 50 * formats._CHUNK
    assert peak < held + 4 * formats._CHUNK + (64 << 10)
    assert certificate_from_json(doc, gs)[0] == whole


def _emit_peak(obj, path: str, stdout: bool) -> int:
    """The tracemalloc peak of writing obj to path, by dump_json or, with
    stdout, as the command line writes it when --out is not given."""
    tracemalloc.start()
    try:
        if stdout:
            with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                _emit(obj, None)
        else:
            dump_json(obj, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dump_json_to_a_file_holds_a_fraction_of_its_text(c5_power_certs, tmp_path):
    # printing the whole text to stdout peaked at twice its length
    obj = load_json(c5_power_certs[3])
    copy = tmp_path / "copy.json"
    for stdout in (False, True):
        peak = _emit_peak(obj, str(copy), stdout)
        assert peak < (os.path.getsize(c5_power_certs[3]) - 1) // 3
        with open(c5_power_certs[3], "rb") as fh:
            assert copy.read_bytes() == fh.read()


def test_streamed_certificate_dump_peaks_at_a_fraction_of_its_entries(c5_power_certs, tmp_path):
    # the entries of C5^4, their label arrays listed with one str per label,
    # hold 16.5 MB; the writer needs those of about one batch at a time
    cube, c5, cube_cert, c5_cert = _factor_files(c5_power_certs)
    inst_g, inst_f = (instance_from_json(load_json(path)) for path in (cube, c5))
    schema = schema_by_name("submod")
    combined = combine_certificates(
        inst_g, inst_f, _read_certificate(cube_cert, inst_g.messages)[0],
        _read_certificate(c5_cert, inst_f.messages)[0], schema)
    combined.claimed_value = rat("625/16")  # as icb combine writes it
    gs = product_messages(inst_g.messages, inst_f.messages)
    path = tmp_path / "c5p4.cert.json"
    spelled = dict(zip(gs.labels, map(str, gs.labels)))

    def array(mask):
        return [spelled[lab] for lab in gs.labels_of(mask)]

    tracemalloc.start()
    try:  # every row of a combined submod certificate is a SubmodRow
        listed = ([{"s": array(s), "t": array(t), "v": rat_str(v)}
                   for (s, t), v in sorted(combined.x.items())],
                  [{"row": {"kind": "submod", "s": array(row.s), "t": array(row.t)},
                    "v": rat_str(v)} for row, v in combined.y.items()])
        held = tracemalloc.get_traced_memory()[0]
        del listed
        tracemalloc.reset_peak()
        dump_json(certificate_to_json(combined, gs, schema), str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held > 10 << 20
    assert peak < held // 6
    with open(c5_power_certs[4], "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_instance_write_peaks_at_a_fraction_of_its_text(nonfano_squared, tmp_path):
    # beside the receiver objects instance_to_json built, writing the 1.8 MB
    # text of the 3,844 receivers peaks at about 110 KB to a file, its
    # 64 KiB buffer included, and about 40 KB to stdout
    _, square, _ = nonfano_squared
    inst = instance_from_json(load_json(square, "messages"))
    assert len(inst.receivers) == 3844
    obj = instance_to_json(inst)
    path = tmp_path / "nf2.json"
    for stdout in (False, True):
        peak = _emit_peak(obj, str(path), stdout)
        assert peak < os.path.getsize(square) // 10
        with open(square, "rb") as fh:
            assert path.read_bytes() == fh.read()


def _factor_files(c5_power_certs):
    """The instances of C5^3 and C5, then their certificates, as icb combine
    takes them to make C5^4."""
    work = os.path.dirname(c5_power_certs[3])
    return (c5_power_certs[3].replace(".cert.json", ".json"), os.path.join(work, "c5.json"),
            c5_power_certs[3], os.path.join(work, "c5.cert.json"))


# The child measures how far its peak RSS rises above its RSS once
# icbound.cli is imported, so the bound does not move with the size of the
# interpreter and its imports. VmHWM is the child's own peak: its ru_maxrss
# would also count this process's pages, which the child holds until it execs.
# Each bound sits between this tree's reading and the reading of the tree
# whose regression it guards, both read from a warm private cache as
# _rise_of reads them (KiB, CPython 3.11).
_RISE = ("import sys\n"
         "def status(key):\n"
         "    with open('/proc/self/status') as fh:\n"
         "        return int(fh.read().split(key + ':')[1].split()[0])\n"
         "from icbound.cli import main\n"
         "start = status('VmRSS')\n"
         "code = main(sys.argv[1:])\n"
         "print(status('VmHWM') - start)\n"
         "sys.exit(code)\n")


@pytest.fixture(scope="module")
def pycache(tmp_path_factory):
    """A bytecode cache of _rise_of's own, apart from any __pycache__ beside
    the sources."""
    return str(tmp_path_factory.mktemp("pycache"))


def _rise_of(pycache, *argv):
    """What `icb argv` prints in a fresh process, and how many KiB its peak
    RSS rose above its RSS after importing icbound.cli. Compiling in the
    measured process moves its peak (by 770 KiB for icb product of
    non-Fano^2), so a first run of the same command writes the bytecode of
    every module it imports to pycache, and the measured run reads it there,
    whether or not the sources have cached bytecode."""
    src = os.path.dirname(os.path.dirname(formats.__file__))
    warm = {key: v for key, v in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    warm.update(PYTHONPATH=src, PYTHONPYCACHEPREFIX=pycache)
    for env in (warm, dict(warm, PYTHONDONTWRITEBYTECODE="1")):
        proc = subprocess.run([sys.executable, "-c", _RISE, *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    printed, _, rise_kib = proc.stdout[:-1].rpartition("\n")
    return printed, int(rise_kib)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_verify_of_c5_to_the_fourth_rises_little_past_its_imports(c5_power_certs, pycache):
    # on the 34.6 MB certificate a 2^22-character buffer rose 20,332-20,396
    # (the parent of e7265b8); a 2^21 one rises 14,588-14,592
    assert os.path.getsize(c5_power_certs[4]) > 30 << 20
    power = c5_power_certs[4].replace(".cert.json", ".json")
    printed, rise_kib = _rise_of(pycache, "verify", power, c5_power_certs[4])
    assert printed == "value = 625/16"
    assert rise_kib < 16 << 10


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_combine_into_c5_to_the_fourth_rises_little_past_its_imports(c5_power_certs, pycache,
                                                                    tmp_path):
    # listing every entry before the write rose 19,788-19,796 (the parent of
    # e7265b8); building each as the writer reaches it rises 3,348
    out = str(tmp_path / "c5p4.cert.json")
    printed, rise_kib = _rise_of(pycache, "combine", *_factor_files(c5_power_certs), "--out", out)
    assert printed == "value = 625/16"
    assert rise_kib < 9 << 10
    with open(c5_power_certs[4], "rb") as fh, open(out, "rb") as mine:
        assert mine.read() == fh.read()


@pytest.fixture(scope="module")
def nonfano_squared(tmp_path_factory):
    """The non-Fano instance and its even-row certificate, then the files of
    their square, by icb product and combine."""
    work = tmp_path_factory.mktemp("nonfano")
    inst = _read_back(to_index_coding(nonfano()))
    even = schema_by_name("submod+fano-even")
    row = next(r for r in even.rows(inst.messages) if r.side == 1)
    files = [_write(work, "nf.json", instance_to_json(inst)), _write(
        work, "nf.cert.json", certificate_to_json(addineq_certificate(nonfano(), row, even),
                                                  inst.messages, even))]
    square, square_cert = str(work / "nf2.json"), str(work / "nf2.cert.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["product", files[0], files[0], "--out", square]) == 0
        assert main(["combine", files[0], files[0], files[1], files[1], "--out", square_cert]) == 0
    return files, square, square_cert


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_verify_of_nonfano_squared_rises_little_past_its_imports(nonfano_squared, pycache):
    # the 1.8 MB instance is read whole, its receivers to masks, beside the
    # 0.7 MB certificate and the packed index: 3,636-3,736, about what
    # reading label lists and scanning receivers took (3,744-3,840 at the
    # parent of 0af4937); json.load of each whole file rose 4,332-4,352
    # (the parent of ae538d2)
    _, square, square_cert = nonfano_squared
    printed, rise_kib = _rise_of(pycache, "verify", square, square_cert)
    assert printed == "value = 8649/529"
    assert rise_kib < 4 << 10


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_product_into_nonfano_squared_rises_little_past_its_imports(nonfano_squared, pycache,
                                                                   tmp_path):
    # the 3,844 receivers are laid out from their (want, mask) pairs: 1,276,
    # where an object per receiver rose 2,020-2,028 (the parent of 443d149)
    (inst, _), square, _ = nonfano_squared
    out = str(tmp_path / "nf2.json")
    printed, rise_kib = _rise_of(pycache, "product", inst, inst, "--out", out)
    assert printed == ""
    assert rise_kib < 1650
    with open(square, "rb") as fh, open(out, "rb") as mine:
        assert mine.read() == fh.read()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_combine_into_nonfano_squared_rises_little_past_its_imports(nonfano_squared, pycache,
                                                                   tmp_path):
    # the product instance is built and decoded in memory and the
    # certificate written an entry at a time: 1,624, where listing every
    # entry before the write rose 2,064 (the parent of e7265b8)
    (inst, cert), _, square_cert = nonfano_squared
    out = str(tmp_path / "nf2.cert.json")
    printed, rise_kib = _rise_of(pycache, "combine", inst, inst, cert, cert, "--out", out)
    assert printed == "value = 8649/529"
    assert rise_kib < 1850
    with open(square_cert, "rb") as fh, open(out, "rb") as mine:
        assert mine.read() == fh.read()


# -- fuzzing: mutated valid files never escape the exit-code contract --------

_ANY_JSON = st.one_of(
    st.text(max_size=3),
    st.lists(st.integers(-3, 3) | st.text(max_size=2), max_size=3),
    st.integers(-10, 10),
    st.floats(),
    st.booleans(),
    st.none(),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)


def _positions(doc, prefix=()):
    """Every position in a JSON document, as a tuple of keys and indices."""
    yield prefix
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        yield from _positions(value, prefix + (key,))


@pytest.fixture(scope="module")
def fuzz_seeds(tmp_path_factory):
    """name -> (valid document, argv with None where the document's path goes)."""
    work = tmp_path_factory.mktemp("fuzz")
    c5 = _listed(instance_to_json(cycle_instance(5)))
    c5_path = _write(work, "c5.json", c5)
    fano_inst = _read_back(to_index_coding(fano()))
    fano_path = _write(work, "fano.json", instance_to_json(fano_inst))
    odd = schema_by_name("submod+fano-odd")
    row = next(r for r in odd.rows(fano_inst.messages) if r.side == 1)
    fano_cert = _listed(certificate_to_json(addineq_certificate(fano(), row, odd),
                                            fano_inst.messages, odd))
    c5_cert = _c5_cert_json()
    graph = {"graph": {"vertices": [1, 2, 3, 4, 5],
                       "edges": [[i, i % 5 + 1] for i in range(1, 6)]}}
    rows = ["solve", fano_path, "--schema", "fano-odd", "--rows"]
    c5_cert_path = _write(work, "c5.cert.json", c5_cert)
    return {
        "instance": (c5, ["solve", None]),
        "graph": (graph, ["solve", None]),
        "alpha": (graph, ["alpha", None]),
        "cert-submod": (c5_cert, ["verify", c5_path, None]),
        "combine": (c5_cert, ["combine", c5_path, c5_path, c5_cert_path, None]),
        "cert-fano": (fano_cert, ["verify", fano_path, None]),
        "matroid-ranks": (fano_ranks_json(), ["matroid2ic", None]),
        "matroid-matrix": ({"elements": list(_FANO_LABELS), "matrix": {"p": 2, "rows": FANO_ROWS}},
                           ["matroid2ic", None]),
        "orbit": ([{"100": "010", "010": "100", "101": "011", "011": "101"}], rows + ["orbit:"]),
        "homs": ([{"base": [], "atoms": {lab: [lab] for lab in _FANO_LABELS}}], rows + ["file:"]),
    }, work


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz_mutated_json(fuzz_seeds, data):
    seeds, work = fuzz_seeds
    name = data.draw(st.sampled_from(sorted(seeds)))
    doc, argv = seeds[name]
    doc = json.loads(json.dumps(doc))
    position = data.draw(st.sampled_from(list(_positions(doc))))
    if not position:
        doc = data.draw(_ANY_JSON)
    else:
        holder = doc
        for key in position[:-1]:
            holder = holder[key]
        if data.draw(st.booleans()):
            del holder[position[-1]]  # drop a key or an element
        else:
            holder[position[-1]] = data.draw(_ANY_JSON)
    path = _write(work, "mutated.json", doc)
    argv = [path if a is None else a + path if a in ("orbit:", "file:") else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 1, 2, 3)


# -- the fast reads equal the typed reads ----------------------------------------


def _read_outcome(read):
    """What read() returns, or the text of the InputError it raises."""
    try:
        return read()
    except InputError as exc:
        return f"input error: {exc}"


def _mutated(data, doc, labels):
    """doc with one position replaced (often by a label), dropped or, in an
    array, repeated."""
    position = data.draw(st.sampled_from(list(_positions(doc))))
    value = st.sampled_from(labels) | st.integers(0, 8) | _ANY_JSON
    if not position:
        return data.draw(value)
    holder = doc
    for key in position[:-1]:
        holder = holder[key]
    action = data.draw(st.sampled_from(["replace", "drop", "repeat"]))
    if action == "drop":
        del holder[position[-1]]
    elif action == "repeat" and isinstance(holder, list):
        holder.append(holder[position[-1]])
    else:
        holder[position[-1]] = data.draw(value)
    return doc


def _row_masks(row):
    if isinstance(row, SideRow):
        return _row_masks(row.inner)
    if isinstance(row, SubmodRow):
        return [row.s, row.t]
    return [row.hom.base, *row.hom.atom_images]


@pytest.fixture(scope="module")
def cert_seeds(tmp_path_factory):
    """name -> (valid certificate document, ground set, schema or None)."""
    fano_inst = _read_back(to_index_coding(fano()))
    odd = schema_by_name("submod+fano-odd")
    row = next(r for r in odd.rows(fano_inst.messages) if r.side == 1)
    return tmp_path_factory.mktemp("masked"), {
        "c5": (_c5_cert_json(), string_c5().messages, None),
        "fano": (_listed(certificate_to_json(addineq_certificate(fano(), row, odd),
                                             fano_inst.messages, odd)), fano_inst.messages, odd),
    }


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_masked_certificate_read_matches_the_typed_read(cert_seeds, data):
    work, seeds = cert_seeds
    doc, gs, schema = seeds[data.draw(st.sampled_from(sorted(seeds)))]
    doc = _mutated(data, json.loads(json.dumps(doc)), list(map(str, gs.labels)))
    path = _write(work, "mutated.json", doc)
    masked = _read_outcome(lambda: _read_certificate(path, gs, schema))
    typed = _read_outcome(lambda: certificate_from_json(load_json(path), gs, schema))
    if isinstance(typed, str):
        assert masked == typed
        return
    assert (masked[0], masked[1].name) == (typed[0], typed[1].name)
    cert = masked[0]
    masks = [m for pair in cert.x for m in pair] + [m for row in cert.y for m in _row_masks(row)]
    assert all(type(mask) is int for mask in masks)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_masked_instance_read_matches_the_typed_read(tmp_path_factory, data):
    name = data.draw(st.sampled_from(["c5", "fano"]))
    inst = string_c5() if name == "c5" else to_index_coding(fano())
    doc = _mutated(data, _listed(instance_to_json(inst)), list(map(str, inst.messages.labels)))
    if isinstance(doc, dict) and data.draw(st.booleans()):  # "messages" last, if present
        doc = dict(sorted(doc.items(), key=lambda item: item[0] == "messages"))
    path = _write(tmp_path_factory.getbasetemp(), "mutated-instance.json", doc)

    def read(load):
        got = instance_from_json(load())
        return got.messages.labels, got.receivers

    masked = _read_outcome(lambda: read(lambda: load_json(path, "messages")))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_plain_receivers", lambda items, gs: None)
        assert masked == _read_outcome(lambda: read(lambda: load_json(path)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_fast_receivers_read_matches_the_typed_read(tmp_path_factory, data):
    name = data.draw(st.sampled_from(["c5", "fano"]))
    inst = string_c5() if name == "c5" else to_index_coding(fano())
    labels = list(map(str, inst.messages.labels))
    path = str(tmp_path_factory.getbasetemp() / f"written-{name}.json")
    if not os.path.exists(path):
        dump_json(instance_to_json(inst), path)
    if data.draw(st.booleans()):  # "knows" as masks, as the CLI reads an instance
        doc = load_json(path, "messages")
    else:  # label arrays, for a mutation to reach into
        doc = load_json(path)
    doc = _mutated(data, doc, labels)

    def read():
        got = instance_from_json(doc)
        return got.messages.labels, got.receivers

    fast = _read_outcome(read)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_plain_receivers", lambda items, gs: None)
        assert fast == _read_outcome(read)
