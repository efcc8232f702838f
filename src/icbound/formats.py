"""JSON formats for instances, certificates, matroids and --rows files.

Everything round-trips bit-exactly: rationals as "p/q" strings in lowest
terms, subsets as sorted label arrays, schema rows as tagged objects that
carry their full homomorphism data so a certificate can be re-verified with
no access to whatever produced it.

This module is the only place that decodes JSON. Labels are strings or
integers, read as decimal strings so the two spellings cannot drift apart,
never booleans, floats or null; p, ranks and matrix entries are
integers; weights and claimed values are integers or ASCII "p" or "p/q"
strings (p an optional minus sign and digits, q digits and positive).
A hom (homext row, `--rows file:` entry) is {"base": [label], "atoms":
{generator label: [label]}}, a missing atom mapping to nothing; a `--rows
orbit:` file is an array of {generator label: instance label} maps.
Malformed input raises InputError naming the field's path, such as
`receivers[2].knows`, never a raw KeyError, TypeError or ValueError. A
graph edge is a pair of two distinct vertex labels. A certificate's
"closure" is "single", the only closure; any other value is refused.

`load_json(path)` returns what json.load does, except that an object
that repeats a key is refused, where json.load would keep the last value.
`load_json(path, gs)` reads a certificate: each subset's label
array becomes its mask of gs as its object closes, so no label list
outlives its entry, and `_Json.mask` takes the mask as it is. An array
that is not a list of distinct str labels of gs is left as decoded, for
the typed reader to word its error. `load_json(path, "messages")` reads an
instance so: each receiver's "knows" becomes its mask as it closes, once
the top-level "messages" (instance_to_json writes it first) is read, if
its labels are distinct strings. `instance_from_json` and
`certificate_from_json` take arrays of such masks at C speed; anything
else goes to the typed reader, whose errors are the same: "messages" after
"receivers", integer labels, the graph form, a repeated or unknown label.
A label array that repeats a label, and a certificate that repeats an (s,
t) pair or a y row, are refused. What instance_to_json and
certificate_to_json return is for dump_json alone and reads back only from
the text dump_json writes: the readers refuse its layout objects (below)
and its "y" iterator as not arrays.

`load_json` holds one buffer of the file's text, _CHUNK (2^21) characters,
beside what it has decoded. It reads a member of the top-level object or
array at a time, and a member array an element at a time until the rest of
the file is in the buffer, each by raw_decode with the same hook, so a
certificate's label arrays become masks while the text behind them is
dropped; a file that fits one buffer is read whole at the first read. A
value longer than the rest of a buffer doubles the buffer until it fits.
Text that this reader does not take (malformed JSON, a repeated key, a
top-level scalar) is read again by json.load, whose error names the line
and column in the whole file.

This module is also the only JSON writer. `dump_json` lays out exactly the
text of `json.dumps(obj, indent=2)`: two-space indentation, "," and a line
break between items, ": " after keys, keys in insertion order, non-ASCII as
\\uXXXX escapes, empty containers as [] and {}. It also writes an
iterator, which json.dumps refuses, as the array of what it yields, taking
one element at a time. With no path it returns that text; a file, named or
open, gets it plus one newline. `_write` lays out every non-empty object,
list, tuple and iterator by one loop over its members, appending
pieces of text to a list that is written out whenever a member leaves it
holding more than _BATCH pieces, so no copy of the whole text is built.
Three kinds of array reach it as layout objects, each laid out by its own
`lay_out`, which appends pieces and spills as `_write` does; json.dumps
refuses them. A label array is a _Labels: a subset mask and the document's
_Names, which spell each label once and keep per indentation two pieces
per label, `[\\n<indentation>"label"` to open an array and
`,\\n<indentation>"label"` inside it. It is laid out as the opening piece
of its lowest label and one compress of the other pieces by the mask's
other bits, or in a document of many labels one slice of them per run of
set bits. `instance_to_json` hands over "messages" as the _Labels of the
full mask and "receivers" as a _Receivers over the instance's (want, mask)
pairs, and `certificate_to_json` its "x" as an _XEntries over the sorted
(s, t, weight string) triples, so no object is built per entry. Each
entry is laid out as one piece from a per-document template that opens it
and its keys (per wanted label, or "{" and "s"), the _Labels pieces of its
masks, and one piece that closes a mask and opens the next key or closes
the entry (per weight, for "v"). `certificate_to_json` returns "y" as an
iterator, so a y entry exists only while the writer lays it out.
"""

from __future__ import annotations

import json
import reprlib
from itertools import compress
from operator import itemgetter
from json.encoder import encode_basestring_ascii as _escape
from typing import Dict, Iterator, List, Optional, Tuple

from icbound.certificate import DualCertificate
from icbound.errors import InputError
from icbound.gf import check_prime
from icbound.groundset import GroundSet, LatticeHom, first_repeat
from icbound.instance import IndexCodingInstance, from_graph
from icbound.matroid import Matroid, rank_from_matrix
from icbound.rational import Rational, rat, rat_str
from icbound.schema import (HomExtRow, HomExtSchema, SchemaRow, SideRow, SubmodRow,
                            SubmodSchema, UnionSchema)
from icbound.tighten import fano_schema, schema_with_submod

__all__ = [
    "schema_by_name",
    "SCHEMA_NAMES",
    "instance_to_json",
    "instance_from_json",
    "certificate_to_json",
    "certificate_from_json",
    "orbit_homs_from_json",
    "homs_from_json",
    "matroid_from_json",
    "load_json",
    "dump_json",
]

SCHEMA_NAMES = (
    "submod",
    "fano-odd",
    "fano-even",
    "submod+fano-odd",
    "submod+fano-even",
)


def schema_by_name(name: str, homs=None):
    """Build a schema from its registry name.

    homs are the rows of the homomorphic-extension part, None meaning the
    identity embedding; a plain submod schema ignores them.
    """
    if name == "submod":
        return SubmodSchema()
    if name in ("fano-odd", "fano-even"):
        return fano_schema(name.split("-", 1)[1], homs)
    if name in ("submod+fano-odd", "submod+fano-even"):
        return schema_with_submod(name.rsplit("-", 1)[1], homs)
    raise InputError(f"unknown schema {name!r}; known: {', '.join(SCHEMA_NAMES)}")


# -- plumbing -----------------------------------------------------------------


class _Mask(int):
    """A label array that load_json already read as its subset mask. JSON
    never yields this type, so `_Json.mask` tells it from a number in the file."""

    __slots__ = ()


def _bits_of(gs: GroundSet) -> Dict[str, int]:
    """The str labels of gs mapped to their bits; an int, a bool or a float
    misses every key, so only a label spelled as a JSON string is found."""
    return {lab: 1 << i for i, lab in enumerate(gs.labels) if type(lab) is str}


def _masked(get, value):
    """value as a _Mask when it is a list of distinct labels that get maps to
    their bits, summed at C speed; anything else as decoded."""
    if type(value) is list:
        try:
            mask = sum(map(get, value))
        except (KeyError, TypeError):  # not a label, or unhashable
            return value
        if mask.bit_count() == len(value):  # else a repeat
            return _Mask(mask)
    return value


def _object(pairs: list) -> dict:
    """dict(pairs), or InputError naming the first key that repeats."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        _, key = first_repeat(key for key, _ in pairs)
        raise InputError(f"an object repeats the key {key!r}")
    return obj


def _masker(masks_of):
    """The pairs hook of load_json(path, masks_of), which masks as that
    says, and the callback that gets each top-level member as soon as it is
    read; until the labels are known, the hook masks nothing."""
    get = None if masks_of == "messages" else _bits_of(masks_of).__getitem__

    def seen(key: str, value) -> None:
        nonlocal get
        if key == "messages" and get is None and type(value) is list \
                and set(map(type, value)) <= {str}:
            bits = {lab: 1 << i for i, lab in enumerate(value)}
            if len(bits) == len(value):
                get = bits.__getitem__

    def hook(pairs: list) -> dict:
        obj = _object(pairs)
        if get is None:
            return obj
        for key in ("s", "t", "base", "knows"):
            if key in obj:
                obj[key] = _masked(get, obj[key])
        atoms = obj.get("atoms")
        if type(atoms) is dict:
            for key, value in list(atoms.items()):
                atoms[key] = _masked(get, value)
        return obj

    return hook, seen


def load_json(path: str, masks_of: Optional[GroundSet | str] = None):
    """The decoded JSON document at path, equal to json.load's in every value,
    type and key order. An object that repeats a key raises InputError.

    With masks_of, every array under "s", "t", "base" or "knows", and every
    value of an "atoms" object, that holds only distinct str labels becomes
    its mask as its object closes: labels of the ground set masks_of, or
    with masks_of="messages" (an instance file) those of the top-level
    "messages" array, once it is read and if they are distinct strings. Any
    other array is left as decoded, for the typed readers to word its
    error. A document read this way must be read against the same labels."""
    hook, seen = (_object, None) if masks_of is None else _masker(masks_of)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _Reader(fh, hook, seen).document()
    except InputError as exc:  # a repeated key
        raise InputError(f"{path}: {exc}") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge ints, deep nesting
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


_CHUNK = 1 << 21  # characters load_json reads at a time
_SPACE = json.decoder.WHITESPACE.match  # what JSON allows between tokens
_ENDS = frozenset(" \t\n\r,]}:")  # what may follow a whole value


class _Reader:
    """The document of an open file, read a buffer at a time as the module
    docstring says; the hook closes each object in json.load's order, and
    seen, unless None, is called with each member of a top-level object as
    soon as it is read."""

    def __init__(self, fh, hook, seen=None):
        self.fh, self.hook, self.seen = fh, hook, seen
        self.decode = json.JSONDecoder(object_pairs_hook=hook).raw_decode
        self.text, self.pos, self.whole = "", 0, False

    def document(self):
        try:
            if self._peek() in ("{", "["):
                doc = self._container(self._member)
                if not self._peek():
                    return doc
        except (ValueError, RecursionError):
            pass
        # json.load has the last word on anything else: it words the error
        # at its place in the file, or reads a top-level scalar
        self.text = ""
        self.fh.seek(0)
        return json.load(self.fh, object_pairs_hook=self.hook)

    def _more(self) -> bool:
        """Drop the text before pos and read the next buffer behind the rest,
        as long as the rest when that is longer, so a value that keeps
        failing to fit is copied a linear total; False once the whole file
        is in."""
        if self.whole:
            return False
        rest, self.text = self.text[self.pos:], ""
        size = max(_CHUNK, len(rest))
        chunk = self.fh.read(size)
        self.whole = len(chunk) < size
        self.text, self.pos = rest + chunk, 0
        return True

    def _peek(self) -> str:
        """The character at pos after whitespace, "" at the end of the file.
        The next buffer is read once at most a quarter of one is left, so a
        decode seldom fails at the buffer's end (its error counts the lines
        before it)."""
        self.pos = _SPACE(self.text, self.pos).end()
        while not self.whole and len(self.text) - self.pos <= _CHUNK >> 2:
            self._more()
            self.pos = _SPACE(self.text, self.pos).end()
        return self.text[self.pos:self.pos + 1]

    def _value(self):
        """The value after pos. The buffer may cut a value short, "12" of
        "123" or "1e" of "1e+5", so it is whole only when whitespace or one
        of ,]}: follows it or the file ends; else it is decoded again with
        more text."""
        self._peek()
        while True:
            try:
                value, end = self.decode(self.text, self.pos)
            except json.JSONDecodeError:
                if self._more():
                    continue
                raise
            if self.whole or end < len(self.text) and self.text[end] in _ENDS:
                self.pos = end
                return value
            self._more()

    def _member(self):
        """A member of the top-level container: an array an element at a time
        until the rest of the file is in the buffer, anything else whole."""
        if self._peek() == "[" and not self.whole:
            return self._container(self._value)
        return self._value()

    def _container(self, item):
        """The object or array at pos, each member read by item(); ValueError
        where it is not JSON."""
        close = "}" if self.text[self.pos] == "{" else "]"
        self.pos += 1
        items = []
        sep = self._peek()
        if sep == close:
            self.pos += 1
        else:
            sep = ","
        while sep == ",":
            if close == "]":
                items.append(item())
            else:
                key = self._value()
                if type(key) is not str or self._peek() != ":":
                    raise ValueError("not an object member")
                self.pos += 1
                items.append((key, item()))
                if self.seen:
                    self.seen(*items[-1])
            sep = self._peek()
            self.pos += 1
        if sep != close:
            raise ValueError("not a separator")
        return items if close == "]" else self.hook(items)


class _Written(int):
    """The characters dump_json wrote before the file's last newline; the
    text is ASCII, so they are also its bytes. encode() answers with a
    sequence of that length, as the text's own would, for callers that
    measure what dump_json returned by len(text.encode())."""

    __slots__ = ()

    def encode(self, encoding: str = "utf-8", errors: str = "strict") -> range:
        return range(self)


# Pieces joined into one write. A label is one piece, some 20 characters in
# a product's files, so a batch is about 16 KB: no more text than 33
# receivers or x entries of the squared Fano and non-Fano files hold. A file
# that dump_json opens gathers _BUFFER bytes of batches into one system
# call; a call per batch made `icb product` of C5^4 (3.8 MB) a fifth slower
# on a 2-vCPU virtual machine.
_BATCH = 3 << 8
_BUFFER = 1 << 16


def dump_json(obj, path) -> str | int:
    """obj as exactly the text of json.dumps(obj, indent=2), a layout object
    as the array it lays out. With path None this returns the text;
    otherwise it writes the text plus a newline to path, a file name or an
    open text file, a batch of pieces at a time as they are laid out, and
    returns the number of characters before that newline. A file name that
    cannot be opened or written raises InputError."""
    parts: List[str] = []
    if path is None:
        _write(obj, "\n", parts, None)
        return "".join(parts)
    if not hasattr(path, "write"):  # a file name
        try:
            with open(path, "w", encoding="utf-8", buffering=_BUFFER) as fh:
                return dump_json(obj, fh)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from exc
    written = 0

    def spill() -> None:
        nonlocal written
        text = "".join(parts)
        parts.clear()
        written += len(text)
        path.write(text)

    _write(obj, "\n", parts, spill)
    spill()
    path.write("\n")
    return _Written(written)


def _write(obj, newline: str, parts: List[str], spill) -> None:
    """Append the pieces of json.dumps(obj, indent=2) to parts; newline is
    the line break plus the indentation of obj's own line. With indent set
    the stdlib encodes in pure Python, so a non-empty dict, list or tuple,
    and an iterator as the array of what it yields, are laid out here by one
    loop over their members: a string is escaped in C, a non-str key
    spelled as json.dumps spells it, a layout object lays itself out, and
    other members recurse.
    Unless spill is None, it is called to empty parts whenever a member
    leaves more than _BATCH pieces. Anything else goes to json.dumps, whose
    only newlines are layout because strings escape theirs."""
    kind = type(obj)
    if kind is dict and obj:
        keyed, members, close = True, obj.items(), "}"
    elif kind in (list, tuple) and obj or isinstance(obj, Iterator):
        keyed, members, close = False, obj, "]"
    elif isinstance(obj, _Layout):
        obj.lay_out(parts, newline, spill)
        return
    else:
        parts.append(json.dumps(obj, indent=2).replace("\n", newline))
        return
    out = parts.append
    inner = newline + "  "
    head = opened = ("{" if keyed else "[") + inner
    sep = "," + inner
    for value in members:
        if keyed:
            key, value = value
            out(head + (_escape(key) if type(key) is str else json.dumps({key: 0})[1:-4]) + ": ")
        else:
            out(head)
        kind = type(value)
        if kind is str:
            out(_escape(value))
        elif isinstance(value, _Layout):
            value.lay_out(parts, inner, spill)
        else:
            _write(value, inner, parts, spill)
        head = sep
        if spill and len(parts) > _BATCH:
            spill()
    out("[]" if head is opened else newline + close)


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> bytes:
    """One byte per bit of mask, lowest first: 1 where the bit is set."""
    return bin(mask)[:1:-1].encode().translate(_BITS)


def _lay_array(parts: List[str], first: Tuple[str, ...], later: Tuple[str, ...], mask: int,
               close: str, empty: str) -> None:
    """Append the pieces of mask's label array to parts: empty when mask is
    0, else the first piece of the lowest label, one compress of the later
    pieces by the other bits, and close."""
    if not mask:
        parts.append(empty)
        return
    rest = mask & (mask - 1)
    parts.append(first[(mask ^ rest).bit_length() - 1])
    parts += compress(later, _bits(rest))
    parts.append(close)


# Past _RUNS labels, a mask with fewer than one run of set bits per 16
# labels has its later pieces cut as one tuple slice per run, not picked by
# one compress over every label. A product's masks are a few runs (6 on
# average in C5^4's 625 labels), and its instance was laid out in 0.7 of the
# compress time; at 49 labels slices were 10-30% slower, at 125 as fast.
_RUNS = 128


def _lay_runs(parts: List[str], first: Tuple[str, ...], later: Tuple[str, ...], mask: int,
              close: str, empty: str) -> None:
    """_lay_array, by one slice of the later pieces per run of set bits when
    mask has few runs."""
    if not mask or (mask & ~(mask << 1)).bit_count() << 4 > len(later):
        _lay_array(parts, first, later, mask, close, empty)
        return
    rest = mask & (mask - 1)
    parts.append(first[(mask ^ rest).bit_length() - 1])
    while rest:
        low = rest & -rest
        top = rest + low  # the run from low carried into the bit above it
        parts += later[low.bit_length() - 1:(top & -top).bit_length() - 1]
        rest &= top
    parts.append(close)


class _Names:
    """The JSON spellings of a ground set's labels as the strings a file
    holds, per indentation the pieces of their arrays ("[" or ",", the line
    break and indentation, and the label's spelling), and lay, which lays
    out an array from its mask and the pieces."""

    __slots__ = ("spelled", "lay", "_pieces")

    def __init__(self, gs: GroundSet):
        self.spelled = tuple(map(_escape, map(str, gs.labels)))
        self.lay = _lay_runs if len(self.spelled) > _RUNS else _lay_array
        self._pieces: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}

    def pieces(self, newline: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """The pieces for an array whose own line is newline: those of a
        first element, then those of a later one."""
        pieces = self._pieces.get(newline)
        if pieces is None:
            inner = newline + "  "
            pieces = self._pieces[newline] = (tuple("[" + inner + lab for lab in self.spelled),
                                              tuple("," + inner + lab for lab in self.spelled))
        return pieces


class _Layout:
    """An array that dump_json lays out by the object's own lay_out(parts,
    newline, spill), spill as _write's; json.dumps and the readers refuse
    it, a reader's error naming its class."""

    __slots__ = ()

    def __repr__(self) -> str:
        return type(self).__name__


class _Labels(_Layout):
    """A label array held as its subset mask of names."""

    __slots__ = ("names", "mask")

    def __init__(self, names: _Names, mask: int):
        self.names, self.mask = names, mask

    def lay_out(self, parts: List[str], newline: str, spill) -> None:
        """Append the pieces of the array on a line indented as newline to
        parts."""
        self.names.lay(parts, *self.names.pieces(newline), self.mask, newline + "]", "[]")


class _Receivers(_Layout):
    """An instance's "receivers" array held as its (want, knows mask) pairs;
    its members are {"wants": label, "knows": _Labels} objects."""

    __slots__ = ("names", "pairs")

    def __init__(self, names: _Names, pairs: Tuple[Tuple[int, int], ...]):
        self.names, self.pairs = names, pairs

    def lay_out(self, parts: List[str], newline: str, spill) -> None:
        """Append the array's pieces to parts, from a template per wanted
        label that opens a receiver up to its "knows" array."""
        if not self.pairs:
            parts.append("[]")
            return
        inner = newline + "  "
        field = inner + "  "
        first, later = self.names.pieces(field)
        lay = self.names.lay
        opening = [f'{{{field}"wants": {lab},{field}"knows": ' for lab in self.names.spelled]
        heads, later_heads = ["[" + inner + o for o in opening], ["," + inner + o for o in opening]
        full, empty = field + "]" + inner + "}", "[]" + inner + "}"
        for w, k in self.pairs:
            parts.append(heads[w])
            lay(parts, first, later, k, full, empty)
            heads = later_heads
            if spill and len(parts) > _BATCH:
                spill()
        parts.append(newline + "]")


class _XEntries(_Layout):
    """A certificate's "x" array held as its sorted (s, t, weight string)
    triples; its members are {"s": _Labels, "t": _Labels, "v": weight}."""

    __slots__ = ("names", "triples")

    def __init__(self, names: _Names, triples: List[Tuple[int, int, str]]):
        self.names, self.triples = names, triples

    def lay_out(self, parts: List[str], newline: str, spill) -> None:
        """Append the array's pieces to parts, from a template per distinct
        weight that closes t and the entry."""
        if not self.triples:
            parts.append("[]")
            return
        inner = newline + "  "
        field = inner + "  "
        first, later = self.names.pieces(field)
        opening = "{" + field + '"s": '
        to_t = f'{field}],{field}"t": ', f'[],{field}"t": '
        ends = {v: f',{field}"v": {_escape(v)}{inner}}}' for v in {v for _, _, v in self.triples}}
        closes = {v: (field + "]" + end, "[]" + end) for v, end in ends.items()}
        lay = self.names.lay
        head, later_head = "[" + inner + opening, "," + inner + opening
        for s, t, v in self.triples:
            parts.append(head)
            lay(parts, first, later, s, *to_t)
            lay(parts, first, later, t, *closes[v])
            head = later_head
            if spill and len(parts) > _BATCH:
                spill()
        parts.append(newline + "]")


# -- typed readers ------------------------------------------------------------


class _Json:
    """A decoded JSON value and the path that reached it; each reader returns
    the value as one type or raises InputError naming that path."""

    __slots__ = ("value", "key", "parent")

    def __init__(self, value, key, parent: Optional["_Json"] = None):
        self.value, self.key, self.parent = value, key, parent

    @property
    def path(self) -> str:
        up = self.parent  # the root names the file; its fields start the path
        if isinstance(self.key, int):
            return f"{up.path}[{self.key}]"
        return self.key if up is None or up.parent is None else f"{up.path}.{self.key}"

    def _expect(self, ok: bool, expected: str):
        if not ok:  # reprlib bounds the depth and length of what it shows
            raise InputError(f"{self.path} must be {expected}, got {reprlib.repr(self.value)}")
        return self.value

    def _at_path(self, read, arg):
        """read(arg), with the path put in front of any ValueError it raises."""
        try:
            return read(arg)
        except ValueError as exc:
            raise InputError(f"{self.path}: {exc}") from None

    def _object(self) -> dict:
        return self._expect(isinstance(self.value, dict), "an object")

    def _array(self) -> list:
        return self._expect(isinstance(self.value, (list, tuple)), "an array")

    def __contains__(self, key: str) -> bool:
        return key in self._object()

    def __getitem__(self, key: str) -> "_Json":
        """A required field of an object."""
        if key not in self._object():
            raise InputError(f"{self.path} is missing the {key!r} field")
        return _Json(self.value[key], key, self)

    def items(self) -> Iterator[Tuple[str, "_Json"]]:
        return ((key, _Json(v, key, self)) for key, v in self._object().items())

    def __iter__(self) -> Iterator["_Json"]:
        """The elements of an array."""
        return (_Json(v, i, self) for i, v in enumerate(self._array()))

    def integer(self) -> int:
        return self._expect(type(self.value) is int, "an integer")

    def integers(self) -> List[int]:
        items = self._array()
        if set(map(type, items)) <= {int}:  # one C-speed pass over a rank vector
            return items
        return [_Json(v, i, self).integer() for i, v in enumerate(items)]

    def rational(self) -> Rational:
        self._expect(type(self.value) in (int, str), 'an integer or a "p/q" string')
        return self._at_path(rat, self.value)

    def label(self) -> str:
        return str(self._expect(type(self.value) in (str, int), "a label (a string or an integer)"))

    def labels(self) -> List[str]:
        items = self._array()
        if set(map(type, items)) <= {str}:  # one C-speed pass over product-sized lists
            return items
        return [v if type(v) is str else _Json(v, i, self).label() for i, v in enumerate(items)]

    def ground_set(self) -> GroundSet:
        """A label list as a ground set (distinct labels)."""
        return self._at_path(GroundSet, self.labels())

    def index(self, gs: GroundSet) -> int:
        """A label as its position in gs."""
        return self._at_path(gs.index, self.label())

    def mask(self, gs: GroundSet) -> int:
        """A list of distinct labels as a subset mask of gs; an array that
        load_json(path, gs) already read as its mask, as that int."""
        if type(self.value) is _Mask:
            return int(self.value)
        labels = self.labels()
        mask = self._at_path(gs.mask_of, labels)
        if mask.bit_count() != len(labels):
            i, label = first_repeat(labels)
            raise InputError(f"{self.path}[{i}] repeats the label {label!r}")
        return mask


def _hom(node: _Json, gen: GroundSet, gs: GroundSet) -> LatticeHom:
    """A {"base", "atoms"} object as a lattice hom from gen into gs."""
    index = {str(lab): i for i, lab in enumerate(gen.labels)}
    images = [0] * gen.n
    for key, labels in node["atoms"].items():
        if key not in index:
            raise InputError(f"{labels.path} names {key!r}, which is not a generator label")
        images[index[key]] = labels.mask(gs)
    base = node["base"].mask(gs)
    return node._at_path(lambda atoms: LatticeHom(gen, gs, base, atoms), tuple(images))


# -- instances ----------------------------------------------------------------


def instance_to_json(instance: IndexCodingInstance) -> dict:
    """The instance file's object for dump_json: "messages" as the _Labels
    of every label, "receivers" as a _Receivers over instance.receivers."""
    names = _Names(instance.messages)
    return {"messages": _Labels(names, instance.messages.full_mask),
            "receivers": _Receivers(names, instance.receivers)}


def _edge(node: _Json, gs: GroundSet) -> Tuple[str, str]:
    """A graph edge: a pair of two distinct vertex labels."""
    node._expect(len(node._array()) == 2, "a pair of labels")
    u, v = (end.index(gs) for end in node)
    if u == v:
        raise InputError(f"{node.path} is a self-loop at {gs.labels[u]!r}")
    return gs.labels[u], gs.labels[v]


def instance_from_json(obj) -> IndexCodingInstance:
    doc = _Json(obj, "instance")
    if "graph" in doc:
        graph = doc["graph"]
        gs = graph["vertices"].ground_set()
        return from_graph(gs.labels, [_edge(e, gs) for e in graph["edges"]])
    gs = doc["messages"].ground_set()
    receivers = doc["receivers"]
    pairs = _plain_receivers(receivers.value, gs)
    if pairs is None:
        pairs = [(rec["wants"].index(gs), rec["knows"].mask(gs)) for rec in receivers]
    return IndexCodingInstance(gs, pairs)


def _plain_receivers(items, gs: GroundSet) -> Optional[List[Tuple[int, int]]]:
    """The (wants, knows) pairs of a receivers array whose every entry has a
    str label of gs as "wants" and, as "knows", a mask that load_json's hook
    read; None for anything else, label arrays included, for the typed reader
    to read or to word the error."""
    if type(items) is not list:
        return None
    index = {lab: i for i, lab in enumerate(gs.labels) if type(lab) is str}
    try:
        wants = list(map(index.__getitem__, map(itemgetter("wants"), items)))
        knows = list(map(itemgetter("knows"), items))
    except (KeyError, TypeError):  # a missing field, a non-object entry, a non-label
        return None
    if set(map(type, knows)) != {_Mask}:  # label arrays, from a plain load_json or in process
        return None
    return list(zip(wants, map(int, knows)))


# -- schema rows, certificates and --rows files --------------------------------


def _row_to_json(row: SchemaRow, names: _Names) -> dict:
    """The tagged object of a row that _serializable accepted."""
    if isinstance(row, SideRow):
        return {"kind": "left" if row.side == 0 else "right",
                "inner": _row_to_json(row.inner, names)}
    if isinstance(row, SubmodRow):
        return {
            "kind": "submod",
            "s": _Labels(names, row.s),
            "t": _Labels(names, row.t),
        }
    gen = row.hom.domain
    atoms = {}
    for i, lab in enumerate(gen.labels):
        atoms[str(lab)] = _Labels(names, row.hom.atom_images[i])
    return {
        "kind": "homext",
        "schema": row.schema,
        "base": _Labels(names, row.hom.base),
        "atoms": atoms,
    }


def _serializable(row: SchemaRow) -> SchemaRow:
    """row, or InputError when it or a row inside it has no JSON form."""
    inner = row
    while isinstance(inner, SideRow):
        inner = inner.inner
    if not isinstance(inner, (SubmodRow, HomExtRow)):
        raise InputError(f"cannot serialize schema row {inner!r}")
    return row


def _row_from_json(node: _Json, gs: GroundSet, schema) -> SchemaRow:
    kind = node["kind"].value
    if kind in ("left", "right"):
        if not isinstance(schema, UnionSchema):
            raise InputError(f"{node.path} is a {kind!r} row under schema {schema.name!r}")
        side = 0 if kind == "left" else 1
        return SideRow(side, _row_from_json(node["inner"], gs, (schema.left, schema.right)[side]))
    if kind == "submod":
        return SubmodRow(node["s"].mask(gs), node["t"].mask(gs))
    if kind == "homext":
        name = node["schema"].value
        if not isinstance(schema, HomExtSchema) or name != schema.name:
            raise InputError(f"{node.path} is a {name!r} row under schema {schema.name!r}")
        return HomExtRow(name, _hom(node, schema.generator, gs))
    raise InputError(f"{node.path} has unknown kind {kind!r}")


def certificate_to_json(cert: DualCertificate, gs: GroundSet, schema) -> dict:
    """The certificate file's object: "x" as an _XEntries over the sorted
    (s, t, weight string) triples, which dump_json lays out with no object
    per entry, and "y" as an iterator that builds each entry, label arrays
    and all, only when dump_json reaches it, so the object can be written
    once. Every weight is spelled and every row checked here, so a refusal
    comes before a file is opened. schema is not read, as each row carries
    its full homomorphism."""
    names = _Names(gs)
    x = [(s, t, rat_str(v)) for (s, t), v in sorted(cert.x.items())]
    y = [(_serializable(row), rat_str(v)) for row, v in cert.y.items()]
    return {
        "value": None if cert.claimed_value is None else rat_str(cert.claimed_value),
        "schema": cert.schema_name,
        "closure": "single",
        "x": _XEntries(names, x),
        "y": ({"row": _row_to_json(row, names), "v": v} for row, v in y),
    }


def _plain_x(items) -> Optional[Dict[Tuple[int, int], Rational]]:
    """The weights of an "x" array whose every entry has masks load_json
    read as "s" and "t" and an integer or string "v", no (s, t) pair twice;
    None when anything is irregular, for the typed loop to word the error.
    Each distinct weight is parsed once: a product repeats few."""
    try:
        s, t, v = (list(map(itemgetter(key), items)) for key in ("s", "t", "v"))
        if {*map(type, s), *map(type, t)} == {_Mask} and {*map(type, v)} <= {int, str}:
            weights = {w: rat(w) for w in set(v)}
            x = dict(zip(zip(map(int, s), map(int, t)), map(weights.__getitem__, v)))
            return x if len(x) == len(items) else None
    except (KeyError, TypeError, ValueError):  # a missing field, a non-object entry, a bad weight
        pass
    return None


def certificate_from_json(obj, gs: GroundSet, schema=None):
    """Read a certificate; returns (certificate, schema).

    When no schema object is supplied, one is built from the file's schema
    name with the identity embedding; verification never depends on the
    schema's own homs because every row carries its full homomorphism. A
    supplied schema must have the file's schema name.
    """
    doc = _Json(obj, "certificate")
    node = doc["schema"]
    name = node.value
    if schema is None:
        schema = node._at_path(schema_by_name, name)
    elif name != schema.name:
        raise InputError(f"{node.path} is {name!r}, expected {schema.name!r}")
    node = doc["closure"]
    if node.value != "single":
        raise InputError(f"{node.path} is {reprlib.repr(node.value)}; "
                         'only "single" closure is supported')
    x = _plain_x(doc["x"].value)
    if x is None:
        x = {}
        for entry in doc["x"]:
            pair = (entry["s"].mask(gs), entry["t"].mask(gs))
            if pair in x:
                raise InputError(f"{entry.path} repeats an earlier (s, t) pair")
            x[pair] = entry["v"].rational()
    y: Dict = {}
    for entry in doc["y"]:
        row = _row_from_json(entry["row"], gs, schema)
        if row in y:
            raise InputError(f"{entry.path} repeats an earlier row")
        y[row] = entry["v"].rational()
    claimed = None if doc.value.get("value") is None else doc["value"].rational()
    return DualCertificate(name, x, y, claimed), schema


def _homext_part(schema_name: str) -> HomExtSchema:
    """The homomorphic-extension part of a registry schema; InputError when
    it has none, as a --rows file then has nothing to feed."""
    schema = schema_by_name(schema_name)
    part = schema.right if isinstance(schema, UnionSchema) else schema
    if not isinstance(part, HomExtSchema):
        raise InputError(f"schema {schema_name!r} takes no homomorphism rows")
    return part


def homs_from_json(obj, schema_name: str, gs: GroundSet) -> List[LatticeHom]:
    """A `--rows file:` array of homs from the schema's generator into gs."""
    part = _homext_part(schema_name)
    return [_hom(entry, part.generator, gs) for entry in _Json(obj, "hom file")]


def orbit_homs_from_json(obj, schema_name: str, gs: GroundSet) -> List[LatticeHom]:
    """A `--rows orbit:` array of label maps as homs into gs: the identity
    embedding, then its image under each map in file order, each hom once;
    none when the identity embedding is absent, as without the file. Every
    map is read first: its keys must be generator labels, its images labels
    of gs."""
    part = _homext_part(schema_name)
    generator = set(map(str, part.generator.labels))
    maps = []
    for entry in _Json(obj, "orbit file"):
        label_map = {}
        for key, image in entry.items():
            if key not in generator:
                raise InputError(f"{image.path} names {key!r}, which is not a generator label")
            label_map[key] = gs.labels[image.index(gs)]
        maps.append((entry, label_map))
    ident = part.embedding(gs, {})
    if ident is None:
        return []
    # every image is in gs, so with the identity present each map embeds
    homs = [ident] + [entry._at_path(lambda m: part.embedding(gs, m), label_map)
                      for entry, label_map in maps]
    return list(dict.fromkeys(homs))


# -- matroids and codes ---------------------------------------------------------


def matroid_from_json(obj) -> Matroid:
    doc = _Json(obj, "matroid")
    gs = doc["elements"].ground_set()
    elements = gs.labels
    if "matrix" in doc:
        rows = []
        for node in doc["matrix"]["rows"]:
            rows.append(node.integers())
            node._expect(len(rows[-1]) == len(elements),
                         f"an array of {len(elements)} integers, one per element")
        columns = [[row[j] for row in rows] for j in range(len(elements))]
        p = doc["matrix"]["p"]
        return rank_from_matrix(elements, columns, p._at_path(check_prime, p.integer()))
    ranks = doc["ranks"]
    return ranks._at_path(lambda rs: Matroid(gs, rs), ranks.integers())
