"""Sporadic task model on exact rational arithmetic.

Every timing quantity is a `fractions.Fraction`; no float ever enters a
schedulability decision.  Tasks are immutable and keep a stable integer id
assigned in input order (1-based), so partitions can always be reported
against the original indices regardless of sorting or transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Union

from .errors import ValidationError

RationalLike = Union[Fraction, int, str]


def as_rational(value: RationalLike) -> Fraction:
    """Convert exactly: ints pass through, strings accept "p/q" and decimal
    literals ("0.25" becomes 1/4)."""
    if isinstance(value, bool):
        raise TypeError("booleans are not rational quantities")
    if isinstance(value, float):
        raise TypeError("floats are rejected; pass a string or Fraction to stay exact")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:  # "1/0": a malformed value, like "abc"
        raise ValueError(f"zero denominator in {value!r}") from exc


@dataclass(frozen=True, slots=True)
class Task:
    """A sporadic task: worst-case execution time c, relative deadline d,
    minimum inter-arrival time t.

    Slotted (no per-instance dict): callers hold many tasks at once.
    """

    c: Fraction
    d: Fraction
    t: Fraction
    id: int = 0

    @property
    def utilization(self) -> Fraction:
        return self.c / self.t

    def __repr__(self) -> str:  # compact, keeps exact values readable
        return f"Task(id={self.id}, c={self.c}, d={self.d}, t={self.t})"


def task(c: RationalLike, d: RationalLike, t: RationalLike, id: int = 0) -> Task:
    """Convenience constructor converting every field exactly."""
    return Task(as_rational(c), as_rational(d), as_rational(t), id)


class DeadlineClass(Enum):
    IMPLICIT = "implicit"
    CONSTRAINED = "constrained"
    ARBITRARY = "arbitrary"


@dataclass(frozen=True)
class IntView:
    """C, D and T of a task list, by position, multiplied by `scale`, the
    lcm of all their denominators, so that every value is an int.

    Quantities compared at one positive scale keep their order, so exact
    tests and fitting decisions can run on these ints; every deadline
    point k*T_i + D_i of the list is an int at this scale too.

    The list's shares and densities over its hyperperiods are ints as
    well, computed on first use and then kept, and every layer reads them
    here: `whole` is the lcm of the periods and `share[i]` = u_i * whole;
    `span_whole` is the lcm of the min(D_i, T_i) and `span_share[i]` =
    C_i * span_whole / min(D_i, T_i), the density times `span_whole`.  A
    subset compared against `whole` or `span_whole` decides as against its
    own hyperperiod, a divisor of it.  These terms assume D, T > 0, which
    `validate` checks on C, D and T alone.
    """

    scale: int
    c: tuple[int, ...]
    d: tuple[int, ...]
    t: tuple[int, ...]

    @classmethod
    def of(cls, tasks: Sequence[Task]) -> IntView:
        scale = math.lcm(
            *(x.denominator for tsk in tasks for x in (tsk.c, tsk.d, tsk.t))
        )
        return cls(
            scale,
            tuple(tsk.c.numerator * (scale // tsk.c.denominator) for tsk in tasks),
            tuple(tsk.d.numerator * (scale // tsk.d.denominator) for tsk in tasks),
            tuple(tsk.t.numerator * (scale // tsk.t.denominator) for tsk in tasks),
        )

    @cached_property
    def whole(self) -> int:
        return math.lcm(*self.t)

    @cached_property
    def share(self) -> tuple[int, ...]:
        whole = self.whole
        return tuple(whole // t * c for c, t in zip(self.c, self.t))

    @cached_property
    def span_whole(self) -> int:
        return math.lcm(*map(min, self.d, self.t))

    @cached_property
    def span_share(self) -> tuple[int, ...]:
        whole = self.span_whole
        return tuple(whole // min(d, t) * c for c, d, t in zip(self.c, self.d, self.t))


@dataclass(frozen=True)
class TaskSet:
    """An immutable task list.  Its validation verdict and integer view
    are computed on first use and then kept: nothing they depend on can
    change."""

    tasks: tuple[Task, ...]
    name: str = ""

    def __post_init__(self):
        if not self.tasks:
            raise ValueError("a task set holds at least one task")
        ids = [tsk.id for tsk in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate task ids in {self.name!r}: {ids}")

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def total_utilization(self) -> Fraction:
        return sum((tsk.utilization for tsk in self.tasks), Fraction(0))

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """`validate` of this set."""
        return tuple(validate(self))

    @cached_property
    def ints(self) -> IntView:
        """The set's C, D and T at one integer scale, by position."""
        return IntView.of(self.tasks)

    def by_id(self, tid: int) -> Task:
        for tsk in self.tasks:
            if tsk.id == tid:
                return tsk
        raise KeyError(tid)


def taskset(triples: Iterable[tuple], name: str = "") -> TaskSet:
    """Build a TaskSet from (c, d, t) triples, ids assigned 1..N in order."""
    tasks = tuple(
        task(c, d, t, id=i) for i, (c, d, t) in enumerate(triples, start=1)
    )
    return TaskSet(tasks, name=name)


def dbf(tsk: Task, tpoint: Fraction) -> Fraction:
    """Demand bound function: max{0, floor((t-D)/T)+1} * C."""
    if tpoint < tsk.d:
        return Fraction(0)
    jobs = (tpoint - tsk.d) // tsk.t + 1
    return jobs * tsk.c


def dbf_star(tsk: Task, tpoint: Fraction) -> Fraction:
    """Linear upper approximation of dbf: 0 below D, else ((t-D)/T + 1) * C."""
    if tpoint < tsk.d:
        return Fraction(0)
    return ((tpoint - tsk.d) / tsk.t + 1) * tsk.c


def lambda_metric(ts: TaskSet) -> Fraction:
    """max over tasks of max(T/D, 1); equals 1 exactly on implicit-deadline
    sets.  Compared on the set's integer view, so the set must be valid."""
    require_valid(ts)
    view = ts.ints
    num = den = 1
    for d, t in zip(view.d, view.t):
        if t * den > num * d:
            num, den = t, d
    return Fraction(num, den)


def gamma_metric(ts: TaskSet) -> Fraction:
    """max over tasks of C/min(T, D) (the largest density), read from the
    set's integer view, so the set must be valid."""
    require_valid(ts)
    view = ts.ints
    return Fraction(max(view.span_share), view.span_whole)


def transform_dagger(ts: TaskSet) -> TaskSet:
    """Tighten each task to an implicit-deadline one.

    T >= D: keep (C, D) and shrink the period to D.  T < D: keep (C, T) and
    shrink the deadline to T.  Ids are preserved; the result is a fixed point
    of the transform.
    """
    out = []
    for tsk in ts:
        if tsk.t >= tsk.d:
            out.append(Task(tsk.c, tsk.d, tsk.d, tsk.id))
        else:
            out.append(Task(tsk.c, tsk.t, tsk.t, tsk.id))
    return TaskSet(tuple(out), name=ts.name)


def classify(ts: TaskSet) -> DeadlineClass:
    view = ts.ints
    if view.d == view.t:
        return DeadlineClass.IMPLICIT
    if all(d <= t for d, t in zip(view.d, view.t)):
        return DeadlineClass.CONSTRAINED
    return DeadlineClass.ARBITRARY


@dataclass(frozen=True)
class Violation:
    task_id: int
    field: str
    message: str

    def __str__(self) -> str:
        return f"task {self.task_id}: {self.message}"


def validate(ts: TaskSet) -> list[Violation]:
    """Check the model assumptions; violations are data, not failures.

    Degenerate sets stay loadable for study, but every solver entry point
    refuses task sets for which this list is nonempty.  The checks compare
    C, D and T on the set's integer view; the messages print the task's
    fractions.
    """
    out: list[Violation] = []
    view = ts.ints
    for tsk, c, d, t in zip(ts, view.c, view.d, view.t):
        if c <= 0:
            out.append(Violation(tsk.id, "c", f"C = {tsk.c} must be positive"))
        if d <= 0:
            out.append(Violation(tsk.id, "d", f"D = {tsk.d} must be positive"))
        if t <= 0:
            out.append(Violation(tsk.id, "t", f"T = {tsk.t} must be positive"))
        if 0 < t < c:
            out.append(Violation(tsk.id, "c", f"C = {tsk.c} exceeds T = {tsk.t}"))
        if 0 < d < c:
            out.append(Violation(tsk.id, "c", f"C = {tsk.c} exceeds D = {tsk.d}"))
    return out


def require_valid(ts: TaskSet) -> None:
    """Raise ValidationError listing every violation, if there are any.

    The set is validated once; later calls read its kept verdict.
    """
    if ts.violations:
        raise ValidationError(ts.violations)

