"""Canonical JSON serialization for task sets and vector instances.

Rationals travel as strings ("p/q" or a decimal literal) because instance
values routinely exceed double precision; task-set parsing is exact and
serialize/parse round-trips bit-identically.  Vector instances are only
written.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ParseError
from .generators import DvpInstance
from .model import Task, TaskSet, as_rational, require_valid


def parse_rational(value, where: str = "value") -> Fraction:
    """`as_rational` of a JSON value: an int or a string literal."""
    if isinstance(value, float):
        raise ParseError(
            f"{where}: JSON floats are lossy; write the value as a string"
        )
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ParseError(f"{where}: expected a rational, got {type(value).__name__}")
    try:
        return as_rational(value)
    except ValueError as exc:
        raise ParseError(f"{where}: not a rational literal: {exc}") from exc


def load_json(data: bytes | str, what: str):
    """The JSON document in `data`, UTF-8 when bytes.  Undecodable bytes,
    malformed JSON, an integer past the conversion limit and nesting past
    the parser's depth limit all raise ParseError naming `what`."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON {what}: {exc}") from exc


def parse_taskset(data: bytes | str) -> TaskSet:
    """Parse the task-set document, converting every value exactly and
    assigning ids in file order; rejects sets violating the model
    assumptions with per-task diagnostics."""
    doc = load_json(data, "task set")
    if not isinstance(doc, dict) or "tasks" not in doc:
        raise ParseError('document must be an object with a "tasks" list')
    raw_tasks = doc["tasks"]
    if not isinstance(raw_tasks, list) or not raw_tasks:
        raise ParseError('"tasks" must be a nonempty list')
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError('"name" must be a string')
    tasks = []
    for i, entry in enumerate(raw_tasks, start=1):
        if not isinstance(entry, dict):
            raise ParseError(f"task {i}: expected an object")
        fields = {}
        for key in ("c", "d", "t"):
            if key not in entry:
                raise ParseError(f"task {i}: missing field {key!r}")
            fields[key] = parse_rational(entry[key], where=f"task {i}, field {key!r}")
        tasks.append(Task(c=fields["c"], d=fields["d"], t=fields["t"], id=i))
    ts = TaskSet(tuple(tasks), name=name)
    require_valid(ts)
    return ts


def serialize_taskset(ts: TaskSet) -> str:
    doc = {
        "name": ts.name,
        "tasks": [
            {
                "c": str(tsk.c),
                "d": str(tsk.d),
                "t": str(tsk.t),
            }
            for tsk in ts
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def serialize_dvp(dvp: DvpInstance) -> str:
    doc = {
        "vectors": [
            [str(v1), str(v2)] for v1, v2 in dvp.vectors
        ]
    }
    return json.dumps(doc, indent=2) + "\n"
