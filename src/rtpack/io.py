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
from .model import MAX_EXPONENT, TaskSet, _of_rows, as_rational, plain_ratio, require_valid


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


def load_json(data: bytes | str, what: str):
    """The JSON document in `data`, UTF-8 when bytes.  Undecodable bytes,
    a byte order mark, malformed JSON, an integer of more than MAX_EXPONENT
    digits and nesting past the parser's depth limit all raise ParseError
    naming `what`."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        if data.startswith("\ufeff"):  # worded as `json.loads` words it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", data, 0)
        return _DECODER.decode(data)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON {what}: {exc}") from exc


def parse_taskset(data: bytes | str) -> TaskSet:
    """Parse the task-set document, converting every value exactly and
    assigning ids in file order; rejects sets violating the model
    assumptions with per-task diagnostics.

    A plain "p" or "p/q" literal (`plain_ratio`) is read as ints, every
    other value through `parse_rational`, and the set is built straight
    from these pairs by the one row builder, `model._of_rows`, which checks
    nothing: every pair here is ints with a positive denominator.
    No `Task` is built.
    """
    doc = load_json(data, "task set")
    if not isinstance(doc, dict) or "tasks" not in doc:
        raise ParseError('document must be an object with a "tasks" list')
    raw_tasks = doc["tasks"]
    if not isinstance(raw_tasks, list) or not raw_tasks:
        raise ParseError('"tasks" must be a nonempty list')
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError('"name" must be a string')
    rows = []
    for i, entry in enumerate(raw_tasks, start=1):
        if not isinstance(entry, dict):
            raise ParseError(f"task {i}: expected an object")
        row = []
        for key in ("c", "d", "t"):
            if key not in entry:
                raise ParseError(f"task {i}: missing field {key!r}")
            value = entry[key]
            pair = plain_ratio(value)
            if pair is None:
                exact = parse_rational(value, where=f"task {i}, field {key!r}")
                pair = exact.numerator, exact.denominator
            row += pair
        rows.append(row)
    ts = _of_rows(rows, name)
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
