"""Canonical JSON serialization for task sets and vector instances.

Rationals travel as strings ("p/q" or a decimal literal) because instance
values routinely exceed double precision; task-set parsing is exact and
serialize/parse round-trips bit-identically.  Vector instances are only
written.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain

from .errors import ParseError
from .generators import DvpInstance
from .model import MAX_EXPONENT, TaskSet, _of_pairs, as_rational, plain_ratio, require_valid


def parse_rational(value, where: str = "value") -> Fraction:
    """`as_rational` of a JSON value (an int or a string literal) or a Fraction."""
    if isinstance(value, float):
        raise ParseError(f"{where}: floats are lossy; write the value as a string")
    if isinstance(value, bool) or not isinstance(value, (int, str, Fraction)):
        raise ParseError(f"{where}: expected a rational, got {type(value).__name__}")
    try:
        return as_rational(value)
    except ValueError as exc:
        raise ParseError(f"{where}: not a rational literal: {exc}") from exc


def _json_int(text: str) -> int:
    """A JSON integer literal as an int, refused past MAX_EXPONENT digits
    as `as_rational` refuses a string literal."""
    if len(text) - text.startswith("-") > MAX_EXPONENT:
        raise ValueError(f"{text[:40]!r} has more than {MAX_EXPONENT} digits")
    return int(text)


# one decoder for every document: `json.loads` with a keyword argument
# builds a new one each call
_DECODER = json.JSONDecoder(parse_int=_json_int)


class _Repeated(dict):
    """A decoded object whose text writes a key twice; `key` is the first
    such key."""

    key: str


def _pairs(pairs: list) -> dict:
    """The object of `pairs`, each key at its last value as `_DECODER`
    keeps it; a `_Repeated` when a key occurs twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        obj = _Repeated(obj)
        obj.key = next(key for key, _ in pairs if key in seen or seen.add(key))
    return obj


# the decoder of a bench config, and the second decode of a task-set
# document that may repeat a key
_PAIRS_DECODER = json.JSONDecoder(parse_int=_json_int, object_pairs_hook=_pairs)


def load_json(data: bytes | str, what: str, decoder: json.JSONDecoder = _DECODER):
    """The JSON document in `data`, UTF-8 when bytes, as `decoder` reads
    it.  Undecodable bytes, a byte order mark, malformed JSON, an integer
    of more than MAX_EXPONENT digits and nesting past the parser's depth
    limit all raise ParseError naming `what`."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        if data.startswith("\ufeff"):  # worded as `json.loads` words it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", data, 0)
        return decoder.decode(data)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON {what}: {exc}") from exc


def _repeats_no_key(data: bytes | str, strings: int) -> bool:
    """True when the text `data`, which decoded to `strings` keys and
    string values, writes no key twice.  With no backslash in the text
    every '"' delimits a string, and a repeated key would add its own
    quotes, and those of the value it hides, to twice `strings`.  False
    when it cannot tell."""
    quote, backslash = ('"', "\\") if isinstance(data, str) else (b'"', b"\\")
    return backslash not in data and data.count(quote) == 2 * strings


def parse_taskset(data: bytes | str) -> TaskSet:
    """Parse the task-set document, converting every value exactly and
    keeping file order, so task i of the file has id i; rejects sets
    violating the model assumptions with per-task diagnostics.  The
    document holds only "tasks" and an optional "name", and a task only
    "c", "d" and "t"; any other key is a ParseError naming it, and so is a
    key written twice in one object.  Only a text whose quote count
    cannot rule that out (`_repeats_no_key`) is decoded a second time,
    keeping every key.

    A plain "p" or "p/q" literal (`plain_ratio`) is read as ints, every
    other value through `parse_rational`, and each value's numerator and
    denominator go straight into two flat lists, from which the one set
    builder, `model._of_pairs`, builds the set.  It checks nothing: every
    pair here is ints with a positive denominator.  No `Task` is built.
    """
    doc = load_json(data, "task set")
    if not isinstance(doc, dict) or "tasks" not in doc:
        raise ParseError('document must be an object with a "tasks" list')
    if len(doc) > 1 + ("name" in doc):
        key = next(key for key in doc if key not in ("name", "tasks"))
        raise ParseError(f"task set: unknown key {key!r}")
    raw_tasks = doc["tasks"]
    if not isinstance(raw_tasks, list) or not raw_tasks:
        raise ParseError('"tasks" must be a nonempty list')
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError('"name" must be a string')
    nums: list[int] = []
    dens: list[int] = []
    ints = 0  # values written as JSON integers
    for i, entry in enumerate(raw_tasks, start=1):
        if not isinstance(entry, dict):
            raise ParseError(f"task {i}: expected an object")
        for key in ("c", "d", "t"):
            if key not in entry:
                raise ParseError(f"task {i}: missing field {key!r}")
            value = entry[key]
            pair = plain_ratio(value)
            if pair is None:
                exact = parse_rational(value, where=f"task {i}, field {key!r}")
                pair = exact.numerator, exact.denominator
                ints += value.__class__ is int
            nums.append(pair[0])
            dens.append(pair[1])
        if len(entry) != 3:
            key = next(key for key in entry if key not in ("c", "d", "t"))
            raise ParseError(f"task {i}: unknown key {key!r}")
    # the keys, the name and every value but the integers are strings
    if not _repeats_no_key(data, len(doc) + ("name" in doc) + len(nums) * 2 - ints):
        doc = load_json(data, "task set", _PAIRS_DECODER)
        for i, obj in enumerate([doc, *doc["tasks"]]):
            if obj.__class__ is _Repeated:
                where = f"task {i}" if i else "task set"
                raise ParseError(f"{where}: repeated key {obj.key!r}")
    ts = _of_pairs(nums, dens, name)
    require_valid(ts)
    return ts


def json_list(items: list[str], level: int = 1) -> str:
    """The JSON list of the already rendered `items`, laid out as
    `json.dumps(..., indent=2)` lays out a list at indent level `level`:
    one item a line, one level deeper.  An item's later lines carry their
    own indentation.

    Any indent makes the json module fall back to its pure-Python encoder,
    so the fixed-schema writers render each scalar themselves and lay out
    the lines with this.
    """
    if not items:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    return f"[{inner}{(',' + inner).join(items)}\n{'  ' * level}]"


def _rendered(values, scale: int) -> dict:
    """Each distinct rational of `values`, divided by `scale`, as its JSON
    string.  `str` of a Fraction is quadratic in its digits, and generated
    sets repeat large values (one shared period, C equal to D), so each is
    rendered once."""
    text = dict.fromkeys(values)
    for value in text:
        text[value] = f'"{Fraction(value, scale)}"'
    return text


def serialize_taskset(ts: TaskSet) -> str:
    """The task-set document, with the bytes of `json.dumps(doc, indent=2)`.
    It is written from the set's ints, so no `Task` is built."""
    text = _rendered(chain(ts.c, ts.d, ts.t), ts.scale)
    tasks = [
        f'{{\n      "c": {text[c]},\n      "d": {text[d]},\n'
        f'      "t": {text[t]}\n    }}'
        for c, d, t in zip(ts.c, ts.d, ts.t)
    ]
    return f'{{\n  "name": {json.dumps(ts.name)},\n  "tasks": {json_list(tasks)}\n}}\n'


def serialize_dvp(dvp: DvpInstance) -> str:
    """The vector-instance document, `json.dumps(doc, indent=2)`."""
    doc = {"vectors": [[str(v1), str(v2)] for v1, v2 in dvp.vectors]}
    return json.dumps(doc, indent=2) + "\n"
