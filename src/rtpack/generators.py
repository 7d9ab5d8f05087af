"""Instance families: the published worst-case constructions, the dominated
vector packing transform, and seeded random task sets.

All generators are pure functions of their parameters; random families
derive every draw from an explicit seed, so concurrent or repeated
generation reproduces bit-identical instances.  Every family builds its
set, in task order, by the one set builder `model._of_pairs`: the random
sets, both adversaries and the dominated-vector sets from int rows
(numerator and denominator of C, D and T) through `model._of_rows`; the
speed-up-gap and Lemma-1 families from exact (c, d, t) triples through
`model.taskset`.  `gen_random` takes every integer draw through
`_randint1`, `randint`'s own rule on the generator's bits, and rounds
its shares with a Farey table (`_share_limiter`).
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable

from .errors import BadParam
from .model import (
    DIGIT_LIMIT,
    MAX_EXPONENT,
    DeadlineClass,
    TaskSet,
    _of_rows,
    as_rational,
    ratio_sum,
    taskset,
)

DEFAULT_DENOMINATOR_BOUND = 8
UUNIFAST_MAX_RANDOMS = 20_000_000
# the type each number of `GenParams` must have; a generator's other
# numbers are ints
_PARAM_KINDS = {"seed": int, "n": int, "utilization_target": Rational, "denominator_bound": int}


def _check_numbers(**values) -> None:
    """Refuse each of `values` that is a bool or not of its kind (its
    `_PARAM_KINDS` entry, else int) with a TypeError naming it, so that no
    float or bool enters a generated set or its name."""
    for field, value in values.items():
        kind = _PARAM_KINDS.get(field, int)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise TypeError(f"{field}: expected {kind.__name__}, got {value!r}")


def _printable_power(base: int, exp: int, factor: int = 1) -> bool:
    """Whether factor * base**exp, for positive ints, stays below
    DIGIT_LIMIT, so that it can be printed; no value past that limit is
    built."""
    value = factor
    if base > 1:
        for _ in range(exp):
            value *= base
            if value >= DIGIT_LIMIT:
                return False
    return value < DIGIT_LIMIT


def _fit_adversary(k: int, shift: int, name: str) -> TaskSet:
    """The adversary families' common body, with the long period
    h = K^(K+2): the first task has C = K^(shift-1), D = 1 and T = h; then
    each tier j = 1..K has an implicit task with D = T = K^(j-1+shift) and
    C = D/K, followed, for j < K, by a filler with C = K^j - K^(j-1),
    D = K^j and T = h.  The rows are int powers of K, built by
    `model._of_rows`; the only value below 1 is K^-1, the row pair
    (1, K)."""
    if not isinstance(k, int) or k < 4:
        raise BadParam(f"need integer k >= 4, got {k!r}")
    if not _printable_power(k, k + 2):
        raise BadParam(
            f"k = {k} is too large: k^(k+2) has more than {MAX_EXPONENT} digits"
        )
    pw = [1]  # pw[e] = K^e
    for _ in range(k + 2):
        pw.append(pw[-1] * k)
    h = pw[k + 2]

    def power(e: int) -> tuple[int, int]:  # K^e for e >= -1, as (num, den)
        return (pw[e], 1) if e >= 0 else (1, k)

    rows = [(*power(shift - 1), 1, 1, h, 1)]
    for j in range(1, k + 1):
        d = pw[j - 1 + shift]
        rows.append((*power(j - 2 + shift), d, 1, d, 1))
        if j < k:
            rows.append((pw[j] - pw[j - 1], 1, pw[j], 1, h, 1))
    return _of_rows(rows, f"{name}-k{k}")


def gen_best_fit_adversary(k: int) -> TaskSet:
    """Family on which deadline-monotonic best fit opens K processors while
    two suffice.

    2K tasks: a light short-deadline task, heavy implicit tasks at deadlines
    K^0, K^1, ..., and long-period fillers that saturate each deadline tier.
    The long period is K^(K+2), large enough that the fillers' utilization
    stays negligible.
    """
    return _fit_adversary(k, 0, "bf-adversary")


def gen_worst_fit_adversary(k: int) -> TaskSet:
    """Family on which deadline-monotonic worst fit opens K processors while
    two suffice; same structure as the best-fit family with the implicit
    tasks shifted one deadline tier up."""
    return _fit_adversary(k, 1, "wf-adversary")


def gen_speedup_gap(n: int, eps: Fraction) -> TaskSet:
    """Family where any two tasks clash on a unit-speed processor, yet one
    processor at speed 1 + eps schedules all of them.

    Every task has C = D, growing geometrically as ((1+eps)/eps)-powers; all
    periods equal the largest deadline.
    """
    if not isinstance(n, int) or n < 2:
        raise BadParam(f"need integer n >= 2, got {n!r}")
    eps = as_rational(eps)
    if not 0 < eps < 1:
        raise BadParam(f"need 0 < eps < 1, got {eps}")
    # eps = p/q in lowest terms makes the period (p+q)^(n-2) * q / p^(n-1),
    # also in lowest terms, and with p < q its numerator is the larger part
    p, q = eps.numerator, eps.denominator
    if not _printable_power(p + q, n - 2, q):
        raise BadParam(
            f"n = {n} is too large for eps = {eps}: the period"
            f" (1+eps)^(n-2)/eps^(n-1) has more than {MAX_EXPONENT} digits"
        )
    # task i >= 2 has D = (1+eps)^(i-2) / eps^(i-1), one running product
    ratio = (1 + eps) / eps
    deadlines = [1 / eps]
    for _ in range(3, n + 1):
        deadlines.append(deadlines[-1] * ratio)
    period = deadlines[-1]
    triples = [(1, 1, period)] + [(d, d, period) for d in deadlines]
    return taskset(triples, f"speedup-gap-n{n}")


@dataclass(frozen=True)
class DvpInstance:
    """Two-dimensional dominated vectors: v1 in (0,1] and either v2 = 0 or
    v1 < v2 <= 1.  A coordinate that is a bool or not a `Rational` is a
    TypeError naming its vector, and one out of range a BadParam.  The
    ranges are compared on each vector's numerators and denominators, so
    a vector of Fractions, as every generator draws, is checked without
    a Fraction comparison."""

    vectors: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        for i, (v1, v2) in enumerate(self.vectors):
            if v1.__class__ is not Fraction or v2.__class__ is not Fraction:
                for value in (v1, v2):
                    if isinstance(value, bool) or not isinstance(value, Rational):
                        raise TypeError(f"vector {i}: expected Rational, got {value!r}")
            a, b, c, d = v1.numerator, v1.denominator, v2.numerator, v2.denominator
            if not 0 < a <= b:
                raise BadParam(f"vector {i}: v1 = {v1} outside (0, 1]")
            if c and not (a * d < c * b and c <= d):  # v1 < v2 <= 1
                raise BadParam(f"vector {i}: v2 = {v2} must be 0 or in (v1, 1]")

    def __len__(self) -> int:
        return len(self.vectors)


def dvp_to_tasks(dvp: DvpInstance, name: str = "dvp") -> TaskSet:
    """Map dominated vectors to strictly constrained tasks (D = 1, C = v2,
    T = v2/v1) and zero-second-coordinate vectors to implicit tasks of
    period H with C = v1 * H, where H is a common integer multiple of the
    strict periods (the rational lcm).  The set is named `name`, and is
    built by `model._of_rows` from the vectors' numerators and
    denominators."""
    pairs = [(v1.numerator, v1.denominator, v2.numerator, v2.denominator) for v1, v2 in dvp.vectors]
    periods = [(c * b, d * a) for a, b, c, d in pairs if c]  # v2/v1 = cb/da
    # H = hn/hd: the lcm of the periods' numerators in lowest terms over
    # the gcd of their denominators, 1 without a strict period
    hn = math.lcm(*(pn // math.gcd(pn, pd) for pn, pd in periods))
    hd = math.gcd(*(pd // math.gcd(pn, pd) for pn, pd in periods)) or 1
    rows = [(c, d, 1, 1, c * b, d * a) if c else (a * hn, b * hd, hn, hd, hn, hd)
            for a, b, c, d in pairs]  # fmt: skip
    return _of_rows(rows, name)


def gen_random_dvp(
    seed: int, n: int, denominator_bound: int = DEFAULT_DENOMINATOR_BOUND
) -> DvpInstance:
    """Seeded dominated-vector instance with denominators bounded by q.  A
    number that is a bool or not an int is a TypeError naming it."""
    _check_numbers(seed=seed, n=n, denominator_bound=denominator_bound)
    if n < 1:
        raise BadParam(f"need n >= 1, got {n}")
    if denominator_bound < 2:  # a dominated vector needs k2 >= 2
        raise BadParam(f"need denominator_bound >= 2, got {denominator_bound}")
    rng = random.Random(f"rtpack-dvp:{seed}")
    q = denominator_bound
    vectors = []
    for _ in range(n):
        if rng.random() < 0.3:
            vectors.append((Fraction(rng.randint(1, q), q), Fraction(0)))
        else:
            k2 = rng.randint(2, q)
            k1 = rng.randint(1, k2 - 1)
            vectors.append((Fraction(k1, q), Fraction(k2, q)))
    return DvpInstance(tuple(vectors))


@dataclass(frozen=True)
class GenParams:
    """The parameters of `gen_random`.  `seed`, `n` and `denominator_bound`
    are ints and `utilization_target` is an int or a Fraction: a bool, a
    float or any other type is a TypeError naming the field, so that no
    float enters a generated set.  A value out of range is a BadParam.
    Numbers of exactly those classes skip `_check_numbers`, and the target
    is compared on its numerator and denominator."""

    seed: int
    n: int
    deadline_class: DeadlineClass = DeadlineClass.CONSTRAINED
    utilization_target: Fraction = Fraction(1)
    denominator_bound: int = DEFAULT_DENOMINATOR_BOUND

    def __post_init__(self):
        n, target = self.n, self.utilization_target
        if not (
            self.seed.__class__ is n.__class__ is self.denominator_bound.__class__ is int
            and target.__class__ in (Fraction, int)
        ):
            _check_numbers(**{field: getattr(self, field) for field in _PARAM_KINDS})
        if n < 1:
            raise BadParam(f"need n >= 1, got {n}")
        un, ud = target.numerator, target.denominator
        if un <= 0:
            raise BadParam("utilization target must be positive")
        if un > n * ud:
            raise BadParam(f"target {target} impossible with {n} tasks")
        if self.denominator_bound < 1:
            raise BadParam("denominator bound must be at least 1")


def _uunifast(rng: random.Random, n: int, target: float) -> list[float]:
    """UUniFast with discard: n utilization shares summing to target, each
    below 1.

    A draw takes n - 1 random numbers.  Once a share reaches 1 the draw is
    lost, so its remaining numbers are drawn without the arithmetic: every
    draw advances `rng` alike, kept or discarded.  Raises BadParam once the
    discarded draws have used UUNIFAST_MAX_RANDOMS numbers, a few seconds
    of work; near U = n/4 at n in the thousands, or at U/n of 0.9 from
    n = 8 on, almost every draw has a share of 1 or more.
    """
    if target >= n:  # only the all-saturated split exists
        return [1.0] * n
    for _ in range(max(1, UUNIFAST_MAX_RANDOMS // max(1, n - 1))):
        shares = []
        rest = target
        for i in range(n - 1):
            nxt = rest * rng.random() ** (1.0 / (n - i))
            if rest - nxt >= 1.0:
                for _ in range(n - 2 - i):
                    rng.random()
                break
            shares.append(rest - nxt)
            rest = nxt
        else:
            if rest < 1.0:
                shares.append(rest)
                return shares
    raise BadParam(
        f"UUniFast drew no split of U = {target} into {n} shares below 1"
        f" within {UUNIFAST_MAX_RANDOMS} random numbers"
    )


def _limit_denominator(num: int, den: int, bound: int) -> tuple[int, int]:
    """`Fraction(num, den).limit_denominator(bound)`, den > 0, as
    (numerator, denominator) in lowest terms, on ints: the closest
    fraction to x = num/den with a denominator of at most `bound`, from
    the continued-fraction convergents of x, taken after reducing it.  A
    tie between the last convergent p1/q1 and the semiconvergent goes to
    p1/q1, as in the standard library."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if den <= bound:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (bound - q0) // q1
    # p1/q1 lies d/(q1*den) from x, and 1/(q1*(q0+k*q1)) from the
    # semiconvergent on the other side of x
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


# the largest denominator bound that `_share_limiter` builds a Farey table
# for: q^2 at the default den-bound q = 8, the one bound the benchmark
# draws at; F_64 has 1,261 fractions (the table's ints must fit a byte)
FAREY_LIMIT = 64


@functools.cache
def _farey_table(bound: int) -> tuple[tuple[float, ...], bytes, bytes]:
    """(mids, nums, dens) of the Farey sequence of order `bound` (1 <=
    bound <= FAREY_LIMIT), the fractions in [0, 1] with a denominator of at
    most `bound`, ascending: nums[j]/dens[j] is its fraction j, and mids[j]
    the float nearest the midpoint of fractions j and j + 1, with inf last.
    Built on first use, then kept.  Every numerator and denominator fits
    a byte, so nums and dens are bytes: at bound 64 the table takes about
    43 KB, 40 KB of it the midpoint floats and their tuple."""
    mids, nums, dens = [], [0], [1]
    # a/b and c/d are neighbours; the next fraction follows from them
    a, b, c, d = 0, 1, 1, bound
    while True:
        mids.append((a * d + b * c) / (2 * b * d))
        nums.append(c)
        dens.append(d)
        if c == d:
            break
        k = (bound + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    mids.append(math.inf)
    return tuple(mids), bytes(nums), bytes(dens)


def _share_limiter(bound: int) -> Callable[[float], tuple[int, int]]:
    """The function x -> `_limit_denominator(*x.as_integer_ratio(), bound)`
    of a float x.  For x in [0, 1] and bound <= FAREY_LIMIT it bisects the
    midpoints of `_farey_table(bound)`: the closest fraction is the one
    whose two midpoints enclose x.  A float equal to a midpoint float may
    be an exact tie, so it, a value outside [0, 1] and every value at a
    larger bound go to `_limit_denominator`."""

    def exact(x: float) -> tuple[int, int]:
        return _limit_denominator(*x.as_integer_ratio(), bound)

    if bound > FAREY_LIMIT:
        return exact
    mids, nums, dens = _farey_table(bound)

    def limit(x: float) -> tuple[int, int]:
        if 0.0 <= x <= 1.0:
            j = bisect_left(mids, x)
            if mids[j] != x:
                return nums[j], dens[j]
        return exact(x)

    return limit


def _randint1(getrandbits: Callable[[int], int], w: int) -> int:
    """`randint(1, w)`, w >= 1, of the `random.Random` whose public
    `getrandbits` is given, on the same bits: CPython's `randint(1, w)`
    is 1 + `_randbelow(w)`, which draws k = w.bit_length() bits and draws
    again while the result is at least w (3.10 to 3.13 alike).  So the
    stream, and every generated set, stays that of `randint`, without its
    `randrange` and `_randbelow` frames."""
    k = w.bit_length()
    r = getrandbits(k)
    while r >= w:
        r = getrandbits(k)
    return r + 1


def gen_random(params: GenParams) -> TaskSet:
    """Seeded random task set near the utilization target.

    Periods come from a bounded-denominator grid, deadlines follow the
    requested class, and execution times realize UUniFast shares; a scaling
    pass pulls the exact total utilization within 10% of the target (density
    clamping permitting), retrying with fresh draws when it cannot.  Tasks
    are drawn, totalled, scaled and clamped on ints (numerator, denominator),
    and the returned set is built straight from them by `model._of_rows`.
    Every integer draw is `randint(1, w)`'s, taken by `_randint1` straight
    from the generator's bits, and each share is rounded to denominator q^2
    by `_share_limiter`, a Farey-table lookup at q <= 8.
    """
    rng = random.Random(f"rtpack-gen:{params.seed}")
    bits = rng.getrandbits
    q = params.denominator_bound
    n = params.n
    cls = params.deadline_class
    target = Fraction(params.utilization_target)
    tn, td = target.numerator, target.denominator
    floor_den = q**3  # the scaling pass keeps C at least 1/q^3
    limit = _share_limiter(q * q)

    def utilization(tasks: list[list[int]]) -> tuple[int, int]:
        return ratio_sum([x[0] * x[5] for x in tasks], [x[1] * x[4] for x in tasks])

    def within(num: int, den: int) -> bool:  # |num/den - target| <= target/10
        return 9 * tn * den <= 10 * num * td <= 11 * tn * den

    best: list[list[int]] | None = None
    best_gap = None  # (|num * td - tn * den|, den): the gap to target is their ratio / td
    for _ in range(64):
        shares = _uunifast(rng, n, float(target))
        # per task [cn, cd, dn, dd, p, r]: execution time cn/cd, deadline
        # dn/dd, period p/r
        tasks = []
        for i in range(n):
            p, r = _randint1(bits, 4 * q), _randint1(bits, q)
            if cls is DeadlineClass.IMPLICIT:
                dn, dd = p, r
            elif cls is DeadlineClass.CONSTRAINED:
                dn, dd = p * _randint1(bits, q), r * q
            else:
                dn, dd = p * _randint1(bits, 2 * q), r * q
            sn, sd = limit(shares[i])
            if sn * q * q < sd:  # the share, at most 1, is raised to 1/q^2
                sn, sd = 1, q * q
            cn, cd = sn * p, sd * r  # c = min(share * period, d), at most the period
            if dn * cd < cn * dd:
                cn, cd = dn, dd
            tasks.append([cn, cd, dn, dd, p, r])
        num, den = utilization(tasks)
        for _ in range(3):
            if within(num, den):
                break
            # c = min(max(c * factor, 1/q^3), d, period)
            fn, fd = _limit_denominator(tn * den, td * num, floor_den)
            for tsk in tasks:
                cn, cd, dn, dd, p, r = tsk
                cn, cd = cn * fn, cd * fd
                if cn * floor_den < cd:
                    cn, cd = 1, floor_den
                if dn * cd < cn * dd:
                    cn, cd = dn, dd
                if p * cd < cn * r:
                    cn, cd = p, r
                tsk[0], tsk[1] = cn, cd
            num, den = utilization(tasks)
        if within(num, den):
            return _of_rows(tasks, f"random-s{params.seed}")
        gap = abs(num * td - tn * den), den
        if best_gap is None or gap[0] * best_gap[1] < best_gap[0] * gap[1]:
            best, best_gap = tasks, gap
    assert best is not None
    return _of_rows(best, f"random-s{params.seed}")


def gen_lemma1_shaped(
    seed: int,
    n_strict: int,
    n_implicit: int,
    denominator_bound: int = DEFAULT_DENOMINATOR_BOUND,
) -> TaskSet:
    """Seeded set matching the common-deadline closed-form test's shape:
    strict tasks with D = 1 and small integer periods, implicit tasks
    sharing one period that is a multiple of all of them.

    Totals are deliberately unconstrained so both feasible and infeasible
    sets occur.  A number that is a bool or not an int is a TypeError
    naming it.
    """
    _check_numbers(
        seed=seed, n_strict=n_strict, n_implicit=n_implicit, denominator_bound=denominator_bound
    )
    if n_strict < 0 or n_implicit < 0 or n_strict + n_implicit < 1:
        raise BadParam("need at least one task")
    rng = random.Random(f"rtpack-lemma1:{seed}")
    q = denominator_bound
    triples = []
    for _ in range(n_strict):
        period = rng.randint(2, 6)
        triples.append((Fraction(rng.randint(1, q), q), 1, period))
    if n_implicit:
        # the lcm of the strict periods (1 without any), times 1..3
        h = math.lcm(*(t for _, _, t in triples)) * rng.randint(1, 3)
        for _ in range(n_implicit):
            triples.append((h * Fraction(rng.randint(1, q), q), h, h))
    return taskset(triples, f"lemma1-s{seed}")
