"""Sporadic task model on exact rational arithmetic.

Every timing quantity stays exact; no float ever enters a schedulability
decision.  A `TaskSet` holds one form: C, D and T of every task as ints
at one common scale, which every solver reads.  A `Task` holds its values
as `fractions.Fraction`s; a set reads its `Task`s off the ints when asked.
A task's id is its position in the set plus one, as the paper numbers
tau_1 ... tau_N: the parser and every generator keep their input order,
so partitions, violations and simulated misses always name the original
indices regardless of sorting or transforms.  The one public builder is
`taskset`, from (c, d, t) triples, over the one private builder,
`_of_pairs`, which makes every set from two flat lists of numerators and
denominators; the parser fills the lists from ints and Fractions, which
are valid by construction, and `gen_random` passes its int rows through
`_of_rows`, which flattens them.  A set's derived terms are `lazy`:
computed on first use and then kept.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, repeat
from operator import floordiv, mul
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import ValidationError

RationalLike = Union[Fraction, int, str]

# Largest decimal exponent a literal may carry, and the most digits its
# numerator and denominator may have: Python's default limit on the digits
# of an int converted to or from a string.  The exponent would otherwise
# build 10**exp unbounded, and a longer value could not be printed.
MAX_EXPONENT = 4300
DIGIT_LIMIT = 10**MAX_EXPONENT


# a run of digits as int() reads one: underscores may join digits and
# are not counted
_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")


def plain_ratio(value) -> Optional[tuple[int, int]]:
    """(p, q) of a plain "p" or "p/q" literal, the task-set writers' own
    form, not reduced: an ASCII str of at most MAX_EXPONENT characters,
    digits or digits "/" digits with q > 0, so that no part can reach
    DIGIT_LIMIT.  None for any other value."""
    if isinstance(value, str) and len(value) <= MAX_EXPONENT and value.isascii():
        num, slash, den = value.partition("/")
        if num.isdigit():
            if not slash:
                return int(num), 1
            if den.isdigit():
                q = int(den)
                if q:
                    return int(num), q
    return None


def as_rational(value: RationalLike) -> Fraction:
    """Convert exactly: ints pass through, strings accept "p/q" and decimal
    literals ("0.25" becomes 1/4, "2.5e-3" 1/400).  A decimal exponent
    beyond +-MAX_EXPONENT, a literal with a run of more than MAX_EXPONENT
    digits as written (a numerator, denominator, integer or fractional
    part, or exponent; "0" * 4300 + "1" too), or a value whose numerator
    or denominator has more than MAX_EXPONENT digits is a ValueError.  A
    Fraction is returned as it is: it is immutable."""
    if value.__class__ is Fraction:
        return value
    if value.__class__ is int:
        return Fraction(value)
    pair = plain_ratio(value)
    if pair is not None:  # Fraction's regex parse is skipped
        return Fraction(*pair)
    if isinstance(value, bool):
        raise TypeError("booleans are not rational quantities")
    if isinstance(value, float):
        raise TypeError("floats are rejected; pass a string or Fraction to stay exact")
    if isinstance(value, str) and ("e" in value or "E" in value):
        exp = value.lower().rpartition("e")[2].strip().lstrip("+-")
        exp = exp.replace("_", "").lstrip("0")
        if exp.isdecimal() and (len(exp) > 4 or int(exp) > MAX_EXPONENT):
            raise ValueError(f"exponent of {value[:40]!r} exceeds {MAX_EXPONENT}")
    if (
        isinstance(value, str)
        and len(value) > MAX_EXPONENT
        and any(
            len(run) - run.count("_") > MAX_EXPONENT for run in _DIGIT_RUN.findall(value)
        )
    ):  # int() would refuse the run with advice to lift its limit
        raise ValueError(f"{value[:40]!r} has more than {MAX_EXPONENT} digits")
    try:
        out = Fraction(value)
    except ZeroDivisionError as exc:  # "1/0": a malformed value, like "abc"
        raise ValueError(f"zero denominator in {value!r}") from exc
    if isinstance(value, str) and (
        abs(out.numerator) >= DIGIT_LIMIT or out.denominator >= DIGIT_LIMIT
    ):
        raise ValueError(f"{value[:40]!r} has more than {MAX_EXPONENT} digits")
    return out


def ratio_sum(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The exact sum of the fractions num/den of (num, den) int pairs, as
    (numerator, lcm of the denominators), not reduced; a zero denominator
    raises ZeroDivisionError."""
    pairs = list(pairs)
    whole = math.lcm(*(den for _, den in pairs))
    return sum(num * (whole // den) for num, den in pairs), whole


class lazy:
    """`functools.cached_property` without its lock, which Python 3.10
    and 3.11 take on every first read: the value is computed on first
    read and kept in the instance's `__dict__`, where it shadows this
    non-data descriptor, so a frozen dataclass still refuses assignment.
    Read on the class, it is the descriptor."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


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


class DeadlineClass(Enum):
    IMPLICIT = "implicit"
    CONSTRAINED = "constrained"
    ARBITRARY = "arbitrary"


def _view_of(
    nums: list[int], dens: list[int]
) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(scale, C, D, T) of values given as the flat lists of their
    numerators and of their positive denominators, in the order C, D, T
    per task: the values scaled by the lcm L' of the denominators as
    given, then divided by g, the gcd of L' and every scaled value.  So
    the scale is L'/g, the lcm of the reduced denominators (no prime of
    that lcm divides every value at it), and equal values give equal
    sets."""
    scale = math.lcm(*dens)
    scaled = list(map(mul, nums, map(floordiv, repeat(scale), dens)))
    g = math.gcd(scale, *scaled)
    scaled = [x // g for x in scaled]
    return scale // g, tuple(scaled[0::3]), tuple(scaled[1::3]), tuple(scaled[2::3])


@dataclass(frozen=True, init=False, repr=False)
class TaskSet:
    """An immutable task list, held as C, D and T of every task, by
    position, as ints `c`, `d` and `t` multiplied by `scale`, the lcm of
    all their denominators, with its `name`.  Task i + 1 is the task at
    position i.

    Quantities compared at one positive scale keep their order, so exact
    tests and fitting decisions run on these ints; every deadline point
    k*T_i + D_i of the set is an int at this scale too.

    The set's shares and densities over its hyperperiods are ints as
    well, computed on first use and then kept, and every layer reads them
    here: `whole` is the lcm of the periods and `share[i]` = u_i * whole;
    `span[i]` is min(D_i, T_i), `span_whole` the lcm of the spans and
    `span_share[i]` = C_i * span_whole / span[i], the density times
    `span_whole`.  A subset compared against `whole` or `span_whole`
    decides as against its own hyperperiod, a divisor of it.  These terms
    assume D, T > 0, which `validate` checks on C, D and T alone, so they
    stay lazy: a set with T = 0 still loads.

    Each task's linear demand approximation is a line in these terms:
    from D_i on, dbf*_i(t) * whole = share[i] * t + offset[i], with
    `offset[i]` = C_i * whole - share[i] * D_i.  A sum of such lines over
    tasks whose deadlines are all at most t is dbf* of the sum at t; the
    demand sweep's fast-forward, the oracle's load bound and
    deadline-monotonic admission read the slopes and intercepts here.

    Only `taskset` and `_of_pairs` build a set; calling `TaskSet`, with
    or without arguments, is a TypeError.  Iterating a set reads its
    `Task`s off the ints, without keeping them.  Since the scale is
    canonical, equality and hash are the dataclass's, those of (scale, c,
    d, t, name); repr is the `taskset` call that rebuilds the set, read
    off the ints.  The validation verdict and the
    deadline-monotonic order (`dm_order`, which every DM strategy packs
    in and the oracle's load bound walks) are computed on first use and
    then kept, `lazy` like the terms above: nothing they depend on can
    change.
    """

    scale: int
    c: tuple[int, ...]
    d: tuple[int, ...]
    t: tuple[int, ...]
    name: str

    def __init__(self, *args, **kwargs):
        raise TypeError("a TaskSet is built by taskset(triples, name)")

    def __repr__(self) -> str:
        """The `taskset` call that builds this set, each value its exact
        quoted string, read off the ints."""
        scale = self.scale
        rows = tuple(
            tuple(str(Fraction(x, scale)) for x in task) for task in zip(self.c, self.d, self.t)
        )
        return f"taskset({rows!r}, name={self.name!r})"

    def __iter__(self) -> Iterator[Task]:
        """Each task read off the ints, not kept."""
        scale = self.scale
        for tid, (c, d, t) in enumerate(zip(self.c, self.d, self.t), start=1):
            yield Task(Fraction(c, scale), Fraction(d, scale), Fraction(t, scale), tid)

    def __len__(self) -> int:
        return len(self.c)

    @lazy
    def whole(self) -> int:
        return math.lcm(*self.t)

    @lazy
    def share(self) -> tuple[int, ...]:
        whole = self.whole
        return tuple(whole // t * c for c, t in zip(self.c, self.t))

    @lazy
    def offset(self) -> tuple[int, ...]:
        whole = self.whole
        return tuple(c * whole - s * d for c, d, s in zip(self.c, self.d, self.share))

    @lazy
    def span(self) -> tuple[int, ...]:
        return tuple(map(min, self.d, self.t))

    @lazy
    def span_whole(self) -> int:
        return math.lcm(*self.span)

    @lazy
    def span_share(self) -> tuple[int, ...]:
        whole = self.span_whole
        return tuple(whole // span * c for c, span in zip(self.c, self.span))

    @property
    def total_utilization(self) -> Fraction:
        """The sum of C/T, on the ints; a period of 0 raises
        ZeroDivisionError."""
        return Fraction(*ratio_sum(zip(self.c, self.t)))

    @lazy
    def violations(self) -> tuple[Violation, ...]:
        """`validate` of this set."""
        return tuple(validate(self))

    @lazy
    def dm_order(self) -> tuple[int, ...]:
        """Positions in deadline-monotonic order: nondecreasing deadline,
        equal deadlines by position, which is id order, sorted stably on
        the ints.

        Input order is what makes the known worst-case families reproduce
        their published fitting traces, since those constructions index
        tasks in deadline order with ties.
        """
        d = self.d
        return tuple(sorted(range(len(d)), key=d.__getitem__))


def _of_pairs(nums: list[int], dens: list[int], name: str) -> TaskSet:
    """The set of the values nums[k]/dens[k], in the order C, D, T per
    task.  Unchecked: the lists must already be ints of equal length, a
    multiple of 3, with positive denominators, as every caller builds
    them.  No values is a ValueError."""
    if not nums:
        raise ValueError("a task set holds at least one task")
    ts = object.__new__(TaskSet)
    scale, c, d, t = _view_of(nums, dens)
    ts.__dict__.update(scale=scale, c=c, d=d, t=t, name=name)
    return ts


def _of_rows(rows: list[Sequence[int]], name: str) -> TaskSet:
    """`_of_pairs` of rows (cn, cd, dn, dd, tn, td), one per task."""
    pairs = list(chain.from_iterable(rows))
    return _of_pairs(pairs[0::2], pairs[1::2], name)


def taskset(triples: Iterable[tuple], name: str = "") -> TaskSet:
    """The task set of (c, d, t) triples of `as_rational` values, in
    order: the set `_of_pairs` builds from their numerators and
    denominators, which are valid by construction.  A bool or a float is
    a TypeError and a malformed literal a ValueError, as `as_rational`
    raises them."""
    nums, dens = [], []
    for c, d, t in triples:
        for x in (as_rational(c), as_rational(d), as_rational(t)):
            nums.append(x.numerator)
            dens.append(x.denominator)
    return _of_pairs(nums, dens, name)


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
    sets.  Compared on the set's ints, so the set must be valid."""
    require_valid(ts)
    num = den = 1
    for d, t in zip(ts.d, ts.t):
        if t * den > num * d:
            num, den = t, d
    return Fraction(num, den)


def gamma_metric(ts: TaskSet) -> Fraction:
    """max over tasks of C/min(T, D) (the largest density), read from the
    set's density terms, so the set must be valid."""
    require_valid(ts)
    return Fraction(max(ts.span_share), ts.span_whole)


def classify(ts: TaskSet) -> DeadlineClass:
    if ts.d == ts.t:
        return DeadlineClass.IMPLICIT
    if all(d <= t for d, t in zip(ts.d, ts.t)):
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
    C, D and T on the set's ints; a violation's message prints the values
    as fractions.
    """
    out: list[Violation] = []
    for tid, (c, d, t) in enumerate(zip(ts.c, ts.d, ts.t), start=1):
        if c > 0 and d >= c and t >= c:
            continue
        fc, fd, ft = (Fraction(x, ts.scale) for x in (c, d, t))
        if c <= 0:
            out.append(Violation(tid, "c", f"C = {fc} must be positive"))
        if d <= 0:
            out.append(Violation(tid, "d", f"D = {fd} must be positive"))
        if t <= 0:
            out.append(Violation(tid, "t", f"T = {ft} must be positive"))
        if 0 < t < c:
            out.append(Violation(tid, "c", f"C = {fc} exceeds T = {ft}"))
        if 0 < d < c:
            out.append(Violation(tid, "c", f"C = {fc} exceeds D = {fd}"))
    return out


def require_valid(ts: TaskSet) -> None:
    """Raise ValidationError listing every violation, if there are any.

    The set is validated once; later calls read its kept verdict.
    """
    if ts.violations:
        raise ValidationError(ts.violations)

