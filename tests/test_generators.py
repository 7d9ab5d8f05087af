import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from rtpack.errors import BadParam
from rtpack.feasibility import edf_feasible_exact, lemma1_feasible
from rtpack import generators
from rtpack.generators import (
    DvpInstance,
    GenParams,
    dvp_to_tasks,
    gen_best_fit_adversary,
    gen_lemma1_shaped,
    gen_random,
    gen_random_dvp,
    gen_speedup_gap,
    gen_worst_fit_adversary,
    _printable_power,
)
from rtpack.io import serialize_taskset
from rtpack.model import (
    DIGIT_LIMIT,
    MAX_EXPONENT,
    DeadlineClass,
    Task,
    TaskSet,
    classify,
    taskset,
    validate,
)

from conftest import held_ints, ints_of, of_tasks, subset_feasible

F = Fraction


def reference_gen_random(params: GenParams) -> TaskSet:
    """`gen_random` with every task field drawn and clamped on Fractions:
    the same random numbers in the same order, so the same instances."""
    rng = random.Random(f"rtpack-gen:{params.seed}")
    q = params.denominator_bound
    n = params.n
    target = Fraction(params.utilization_target)
    lo, hi = target - target / 10, target + target / 10

    best = best_gap = None
    for _ in range(64):
        shares = generators._uunifast(rng, n, float(target))
        tasks = []
        for i in range(n):
            period = Fraction(rng.randint(1, 4 * q), rng.randint(1, q))
            if params.deadline_class is DeadlineClass.IMPLICIT:
                d = period
            elif params.deadline_class is DeadlineClass.CONSTRAINED:
                d = period * Fraction(rng.randint(1, q), q)
            else:
                d = period * Fraction(rng.randint(1, 2 * q), q)
            share = Fraction(shares[i]).limit_denominator(q * q)
            share = min(max(share, Fraction(1, q * q)), Fraction(1))
            c = min(share * period, d, period)
            tasks.append(Task(c=c, d=d, t=period))
        for _ in range(3):
            total = sum((t.utilization for t in tasks), Fraction(0))
            if lo <= total <= hi:
                break
            factor = (target / total).limit_denominator(q**3)
            tasks = [
                Task(c=min(max(t.c * factor, Fraction(1, q**3)), t.d, t.t), d=t.d, t=t.t)
                for t in tasks
            ]
        total = sum((t.utilization for t in tasks), Fraction(0))
        candidate = of_tasks(tasks, name=f"random-s{params.seed}")
        if lo <= total <= hi:
            return candidate
        gap = abs(total - target)
        if best_gap is None or gap < best_gap:
            best, best_gap = candidate, gap
    return best


def reference_fit_adversary(k: int, shift: int, name: str) -> TaskSet:
    """`generators._fit_adversary` on Fraction powers of K, through
    `taskset`."""
    kf = Fraction(k)
    h = kf ** (k + 2)
    triples = [(kf ** (shift - 1), 1, h)]
    for j in range(1, k + 1):
        d = kf ** (j - 1 + shift)
        triples.append((d / kf, d, d))
        if j < k:
            triples.append((kf**j - kf ** (j - 1), kf**j, h))
    return taskset(triples, f"{name}-k{k}")


def reference_dvp_to_tasks(dvp: DvpInstance, name: str = "dvp") -> TaskSet:
    """`dvp_to_tasks` on Fractions, through `taskset`."""
    periods = [v2 / v1 for v1, v2 in dvp.vectors if v2 != 0]
    if periods:
        h = Fraction(
            math.lcm(*(p.numerator for p in periods)),
            math.gcd(*(p.denominator for p in periods)),
        )
    else:
        h = Fraction(1)
    triples = [(v2, 1, v2 / v1) if v2 != 0 else (v1 * h, h, h) for v1, v2 in dvp.vectors]
    return taskset(triples, name)


class TestBestFitAdversary:
    def test_k4_values(self):
        ts = gen_best_fit_adversary(4)
        by_id = {t.id: t for t in ts}
        assert by_id[1] == Task(F(1, 4), F(1), F(4096), id=1)
        assert by_id[2] == Task(F(1, 4), F(1), F(1), id=2)
        assert by_id[3] == Task(F(3), F(4), F(4096), id=3)
        assert by_id[4] == Task(F(1), F(4), F(4), id=4)
        assert by_id[7] == Task(F(48), F(64), F(4096), id=7)

    def test_size_is_2k(self):
        assert len(gen_best_fit_adversary(4)) == 8

    def test_constrained_class_and_valid(self):
        ts = gen_best_fit_adversary(4)
        assert classify(ts) is DeadlineClass.CONSTRAINED
        assert validate(ts) == []

    def test_default_h(self):
        ts = gen_best_fit_adversary(4)
        assert max(t.t for t in ts) == F(4) ** 6

    def test_bad_params(self):
        with pytest.raises(BadParam):
            gen_best_fit_adversary(3)


@pytest.mark.parametrize("k", range(4, 12))
@pytest.mark.parametrize(
    "gen, shift, name",
    [(gen_best_fit_adversary, 0, "bf-adversary"), (gen_worst_fit_adversary, 1, "wf-adversary")],
)
def test_adversary_matches_fraction_reference(gen, shift, name, k):
    assert gen(k) == reference_fit_adversary(k, shift, name)


class TestWorstFitAdversary:
    def test_k4_values(self):
        ts = gen_worst_fit_adversary(4)
        by_id = {t.id: t for t in ts}
        assert by_id[1] == Task(F(1), F(1), F(4096), id=1)
        assert by_id[2] == Task(F(1), F(4), F(4), id=2)
        assert by_id[4] == Task(F(4), F(16), F(16), id=4)

    def test_k5_valid(self):
        ts = gen_worst_fit_adversary(5)
        assert len(ts) == 10
        assert validate(ts) == []

    def test_bad_k(self):
        with pytest.raises(BadParam):
            gen_worst_fit_adversary(2)


class TestPrintableLimit:
    """Instances whose largest value would pass the digits an int may print
    with are refused before any task is built, naming the parameter."""

    @pytest.mark.parametrize(
        "base, exp, factor",
        [(1368, 1370, 1), (1369, 1371, 1), (3, 9011, 2), (3, 9012, 2),
         (2, 14284, 1), (2, 14285, 1), (1, 10**12, 7), (10**2150, 2, 1)],
    )  # fmt: skip
    def test_power_check_matches_the_digit_count(self, base, exp, factor):
        assert _printable_power(base, exp, factor) == (factor * base**exp < DIGIT_LIMIT)

    @pytest.mark.parametrize("gen", [gen_best_fit_adversary, gen_worst_fit_adversary])
    def test_adversaries_up_to_the_limit(self, gen):
        ts = gen(1368)
        assert len(str(max(t.t for t in ts))) <= MAX_EXPONENT
        with pytest.raises(BadParam, match="k = 1369 is too large"):
            gen(1369)
        with pytest.raises(BadParam, match="k = 1000000000 is too large"):
            gen(10**9)

    def test_speedup_gap_up_to_the_limit(self):
        ts = gen_speedup_gap(9013, F(1, 2))
        assert len(str(tuple(ts)[-1].t)) == MAX_EXPONENT
        with pytest.raises(BadParam, match="n = 9014 is too large"):
            gen_speedup_gap(9014, F(1, 2))
        with pytest.raises(BadParam, match="n = 1000000000 is too large"):
            gen_speedup_gap(10**9, F(1, 2))
        # (1 + 10^2000)^2 * 10^2000 has 6,001 digits
        with pytest.raises(BadParam, match="n = 4 is too large"):
            gen_speedup_gap(4, F(1, 10**2000))

    @given(st.integers(2, 40), st.fractions(0, 1, max_denominator=50))
    def test_speedup_gap_period_numerator_is_the_larger_part(self, n, eps):
        assume(0 < eps < 1)
        period = tuple(gen_speedup_gap(n, eps))[-1].t
        p, q = eps.numerator, eps.denominator
        assert (period.numerator, period.denominator) == ((p + q) ** (n - 2) * q, p ** (n - 1))
        assert period.numerator > period.denominator


class TestSpeedupGap:
    def test_n3_values(self):
        ts = gen_speedup_gap(3, F(1, 2))
        assert [(t.c, t.d, t.t) for t in ts] == [
            (F(1), F(1), F(6)),
            (F(2), F(2), F(6)),
            (F(6), F(6), F(6)),
        ]

    @given(st.integers(2, 30), st.fractions(0, 1, max_denominator=50))
    def test_deadlines_match_the_closed_form(self, n, eps):
        assume(0 < eps < 1)
        want = [F(1)] + [(1 + eps) ** (i - 2) / eps ** (i - 1) for i in range(2, n + 1)]
        assert [t.d for t in gen_speedup_gap(n, eps)] == want

    def test_execution_equals_deadline_everywhere(self):
        for n, eps in [(2, F(1, 4)), (5, F(1, 2)), (7, F(3, 4))]:
            ts = gen_speedup_gap(n, eps)
            assert all(t.c == t.d for t in ts)
            assert validate(ts) == []

    def test_feasible_at_augmented_speed(self):
        ts = gen_speedup_gap(3, F(1, 2))
        assert edf_feasible_exact(ts, speed=F(3, 2)).feasible

    def test_bad_params(self):
        with pytest.raises(BadParam):
            gen_speedup_gap(1, F(1, 2))
        with pytest.raises(BadParam):
            gen_speedup_gap(3, F(1))
        with pytest.raises(BadParam):
            gen_speedup_gap(3, F(0))


class TestDvp:
    def test_dominated_vector_mapping(self):
        dvp = DvpInstance(((F(3, 10), F(3, 5)),))
        ts = dvp_to_tasks(dvp)
        assert tuple(ts)[0] == Task(F(3, 5), F(1), F(2), id=1)

    def test_zero_vector_mapping_uses_common_multiple(self):
        dvp = DvpInstance(((F(3, 10), F(3, 5)), (F(1, 4), F(0))))
        ts = dvp_to_tasks(dvp)
        assert tuple(ts)[1] == Task(F(1, 2), F(2), F(2), id=2)

    def test_h_is_integer_multiple_of_all_strict_periods(self):
        dvp = gen_random_dvp(7, 8)
        ts = dvp_to_tasks(dvp)
        implicit = [t for t in ts if t.d == t.t]
        strict = [t for t in ts if t.d < t.t]
        for imp in implicit:
            for s in strict:
                assert (imp.t / s.t).denominator == 1

    def test_feasibility_matches_vector_sums(self):
        dvp = DvpInstance(((F(3, 10), F(3, 5)), (F(1, 4), F(0))))
        ts = dvp_to_tasks(dvp)
        assert sum(v[0] for v in dvp.vectors) <= 1
        assert sum(v[1] for v in dvp.vectors) <= 1
        assert lemma1_feasible(ts)
        assert edf_feasible_exact(ts).feasible

    def test_subset_equivalence_bruteforce(self):
        dvp = gen_random_dvp(3, 6)
        tasks = tuple(dvp_to_tasks(dvp))
        n = len(dvp)
        for r in range(1, n + 1):
            for idx in itertools.combinations(range(n), r):
                fits = (
                    sum(dvp.vectors[i][0] for i in idx) <= 1
                    and sum(dvp.vectors[i][1] for i in idx) <= 1
                )
                subset = [tasks[i] for i in idx]
                assert subset_feasible(subset) == fits

    def test_invariants_enforced(self):
        with pytest.raises(BadParam):
            DvpInstance(((F(0), F(1, 2)),))
        with pytest.raises(BadParam):
            DvpInstance(((F(1, 2), F(1, 4)),))
        with pytest.raises(BadParam):
            DvpInstance(((F(1, 2), F(3, 2)),))

    @pytest.mark.parametrize(
        "vector, ok",
        [((F(1), F(0)), True), ((1, 0), True), ((F(2, 5), F(1)), True),
         ((F(1, 2), F(1, 2)), False), ((F(2, 4), F(1, 2)), False), ((F(1, 3), F(-1, 2)), False),
         ((F(-1, 2), F(0)), False), ((F(5, 4), F(0)), False), ((F(1, 2), F(7, 6)), False)],
    )  # fmt: skip
    def test_range_boundaries(self, vector, ok):
        # v1 = 1 and v2 = 1 are in range, v2 = v1 is not, however written
        if ok:
            assert DvpInstance((vector,)).vectors == (vector,)
        else:
            with pytest.raises(BadParam, match="^vector 0: v"):
                DvpInstance((vector,))

    @pytest.mark.parametrize(
        "vector, value",
        [((0.5, F(0)), 0.5), ((F(1, 4), 0.5), 0.5), ((True, F(0)), True),
         ((F(1, 4), True), True), (("1/2", F(0)), "1/2")],
    )  # fmt: skip
    def test_inexact_coordinate_is_a_type_error(self, vector, value):
        # a float would reach the mapping as a bare AttributeError, and True
        # would build a task from 1
        with pytest.raises(TypeError) as err:
            DvpInstance(((F(1, 2), F(0)), vector))
        assert str(err.value) == f"vector 1: expected Rational, got {value!r}"

    @pytest.mark.parametrize("bound", [1, 0, -3])
    def test_denominator_bound_below_two_raises(self, bound):
        # a dominated vector needs a second coordinate k2/q with k2 >= 2
        with pytest.raises(BadParam, match="denominator_bound"):
            gen_random_dvp(0, 3, bound)

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.0), ("seed", True), ("n", True), ("n", 3.0),
         ("denominator_bound", 8.0), ("denominator_bound", False)],
    )  # fmt: skip
    def test_mistyped_number_is_a_type_error(self, field, value):
        # True would be read as 1, and a float seed names another instance
        with pytest.raises(TypeError) as err:
            gen_random_dvp(**{"seed": 0, "n": 3, field: value})
        assert str(err.value) == f"{field}: expected int, got {value!r}"

    @pytest.mark.parametrize("q", [2, 3, 8, 100])
    def test_mapping_matches_fraction_reference_on_draws(self, q):
        for seed in range(40):
            dvp = gen_random_dvp(seed, 1 + seed % 12, q)
            assert dvp_to_tasks(dvp, f"dvp-s{seed}") == reference_dvp_to_tasks(dvp, f"dvp-s{seed}")

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(bool),
                st.fractions(min_value=0, max_value=1, max_denominator=10**6),
            ).map(lambda v: (min(v), max(v)) if min(v) and min(v) < max(v) else (max(v), F(0))),
            min_size=1,
            max_size=6,
        )
    )
    def test_mapping_matches_fraction_reference(self, vectors):
        # strict periods with large coprime parts, and sets without any
        dvp = DvpInstance(tuple(vectors))
        assert dvp_to_tasks(dvp) == reference_dvp_to_tasks(dvp)

    def test_generated_instances_convert_cleanly(self):
        for seed in range(20):
            dvp = gen_random_dvp(seed, 8)
            ts = dvp_to_tasks(dvp)
            assert validate(ts) == []
            assert len(ts) == 8


class TestRandom:
    def test_deterministic_in_seed(self):
        params = GenParams(seed=42, n=6, utilization_target=F(2))
        assert gen_random(params) == gen_random(params)

    def test_distinct_seeds_differ(self):
        a = gen_random(GenParams(seed=1, n=6))
        b = gen_random(GenParams(seed=2, n=6))
        assert a != b

    def test_implicit_class(self):
        ts = gen_random(
            GenParams(seed=5, n=6, deadline_class=DeadlineClass.IMPLICIT)
        )
        assert classify(ts) is DeadlineClass.IMPLICIT

    def test_constrained_class(self):
        ts = gen_random(
            GenParams(seed=5, n=8, deadline_class=DeadlineClass.CONSTRAINED)
        )
        assert all(t.d <= t.t for t in ts)

    def test_target_utilization_statistics(self):
        hit = 0
        for seed in range(100):
            ts = gen_random(
                GenParams(
                    seed=seed,
                    n=6,
                    deadline_class=DeadlineClass.IMPLICIT,
                    utilization_target=F(2),
                )
            )
            if abs(ts.total_utilization - 2) <= F(2, 10):
                hit += 1
        assert hit >= 95

    def test_outputs_validate(self):
        for seed in range(30):
            cls = list(DeadlineClass)[seed % 3]
            ts = gen_random(GenParams(seed=seed, n=5, deadline_class=cls))
            assert validate(ts) == []

    def test_bad_params(self):
        with pytest.raises(BadParam):
            GenParams(seed=1, n=0)
        with pytest.raises(BadParam):
            GenParams(seed=1, n=2, utilization_target=F(3))
        with pytest.raises(BadParam):
            GenParams(seed=1, n=2, utilization_target=F(0))

    @pytest.mark.parametrize(
        "target, ok",
        [(2, True), (F(2), True), (F(4, 2), True), (F(1, 10**6), True), (F(2000001, 10**6), False),
         (F(5, 2), False), (3, False), (0, False), (F(-1, 3), False)],
    )  # fmt: skip
    def test_target_range_boundaries(self, target, ok):
        # a target of exactly n is reachable: every share saturated
        if ok:
            assert GenParams(seed=1, n=2, utilization_target=target).utilization_target == target
        else:
            with pytest.raises(BadParam, match="target"):
                GenParams(seed=1, n=2, utilization_target=target)

    @pytest.mark.parametrize(
        "field, value, kind",
        [("utilization_target", 0.1, "Rational"), ("utilization_target", 2.0, "Rational"),
         ("utilization_target", True, "Rational"), ("utilization_target", "1", "Rational"),
         ("n", True, "int"), ("n", 4.0, "int"), ("n", F(4), "int"),
         ("denominator_bound", False, "int"), ("denominator_bound", 8.0, "int"),
         ("denominator_bound", "8", "int"), ("seed", 1.0, "int"), ("seed", True, "int")],
    )  # fmt: skip
    def test_inexact_or_mistyped_number_is_a_type_error(self, field, value, kind):
        # no float reaches the generator: 0.1 would be read as its binary
        # fraction, and True as 1; a seed of 1.0 or True would name and draw
        # another set than seed 1
        with pytest.raises(TypeError) as err:
            GenParams(**{"seed": 0, "n": 4, field: value})
        assert str(err.value) == f"{field}: expected {kind}, got {value!r}"

    def test_unreachable_target_raises_instead_of_hanging(self):
        # at U = n/4 with n = 1000 UUniFast-discard accepts almost no draw
        start = time.monotonic()
        with pytest.raises(BadParam, match="UUniFast"):
            gen_random(GenParams(seed=0, n=1000, utilization_target=F(250)))
        assert time.monotonic() - start < 10

    @pytest.mark.parametrize(
        "n, target, seed, digest",
        [
            # sha256 prefixes of serialize_taskset, recorded with the
            # uncapped UUniFast-discard loop; acceptance ranges from 1.7e-5
            # (n = 4, U = 39/10) to 1.5e-4 (n = 5, U = 9/2) per draw
            (4, F(39, 10), 0, "16435b080ef91a6f"),
            (4, F(39, 10), 1, "8b34bc2f3ea9b410"),
            (4, F(39, 10), 2, "29af8304ed331416"),
            (5, F(9, 2), 0, "c8692925a9eb6483"),
            (5, F(9, 2), 1, "febff0ca538c1da7"),
            (6, F(27, 5), 0, "35d9da2b25c05c92"),
            (6, F(27, 5), 1, "707ab3f832299b57"),
            (6, F(27, 5), 2, "08179f69fe66044e"),
        ],
    )
    def test_high_share_targets_keep_their_instances(self, n, target, seed, digest):
        ts = gen_random(
            GenParams(
                seed=seed,
                n=n,
                utilization_target=target,
                deadline_class=DeadlineClass.IMPLICIT,
            )
        )
        assert hashlib.sha256(serialize_taskset(ts).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("cls", list(DeadlineClass))
    @pytest.mark.parametrize("den_bound", [1, 2, 5, 8])
    def test_matches_fraction_reference(self, cls, den_bound):
        # n from 3 to 20; the targets include some the scaling pass or the
        # retry loop must reach.  At den_bound 1 many targets miss the 10%
        # window in all 64 draws (implicit n = 3, U = 1/2 returns U = 5/6),
        # which compares the closest-set fallback and the scaling factor's
        # limit_denominator(1)
        for seed in range(60):
            n = 3 + seed % 18
            target = [F(1, 2), F(1), F(n, 4), F(n, 3)][seed % 4]
            params = GenParams(seed, n, cls, target, den_bound)
            assert gen_random(params) == reference_gen_random(params)

    @pytest.mark.parametrize("cls", list(DeadlineClass))
    @pytest.mark.parametrize("den_bound", [1, 2, 5, 8])
    def test_built_straight_into_the_integer_view(self, cls, den_bound):
        # from its int pairs: no Task until one is read, and the ints that
        # the tasks give, field by field and scale included
        for seed in range(20):
            n = 3 + seed % 10
            ts = gen_random(GenParams(seed, n, cls, F(1 + seed % 4, 2), den_bound))
            assert (len(ts), ts.violations) == (n, ())
            assert [tsk.id for tsk in ts] == list(range(1, n + 1))
            u = ts.total_utilization
            assert held_ints(ts) == ints_of(tuple(ts))
            assert u == sum(tsk.utilization for tsk in ts)

    @pytest.mark.parametrize("seed", [0, 1, 7, 3301])
    def test_draw_rule_matches_randint(self, seed):
        # widths 1..300: 1, every power of two up to 256 and both its
        # neighbours; the same numbers and the same generator state after
        # each width, so no bit is drawn more or fewer times than by randint
        ours, theirs = random.Random(seed), random.Random(seed)
        for w in range(1, 301):
            got = [generators._randint1(ours.getrandbits, w) for _ in range(5)]
            assert got == [theirs.randint(1, w) for _ in range(5)]
            assert ours.getstate() == theirs.getstate()

    @given(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False).map(float.as_integer_ratio),
            # dyadic values with small denominators, where ties occur, and
            # not reduced when the numerator is even
            st.builds(lambda a, j: (a, 2**j), st.integers(-200, 200), st.integers(0, 8)),
            # int ratios with a common factor, as the scaling pass makes
            st.builds(
                lambda a, b, k: (a * k, b * k),
                st.integers(-(10**6), 10**6),
                st.integers(1, 10**6),
                st.integers(1, 60),
            ),
        ),
        st.integers(1, 1000),
    )
    def test_int_limit_denominator_matches_fraction(self, ratio, bound):
        want = Fraction(*ratio).limit_denominator(bound)
        assert generators._limit_denominator(*ratio, bound) == (want.numerator, want.denominator)

    @pytest.mark.parametrize(
        "x, bound, want",
        # x lies halfway between two closest fractions; the last convergent
        # wins, also where x is given as an unreduced int ratio
        [(0.75, 2, (1, 1)), (0.25, 2, (0, 1)), (-0.75, 2, (-1, 1)), (2.5, 1, (2, 1)),
         ((6, 8), 2, (1, 1)), ((2, 8), 2, (0, 1)), ((-9, 12), 2, (-1, 1)), ((10, 4), 1, (2, 1))],
    )  # fmt: skip
    def test_int_limit_denominator_ties(self, x, bound, want):
        ratio = x.as_integer_ratio() if isinstance(x, float) else x
        lim = Fraction(*ratio).limit_denominator(bound)
        assert generators._limit_denominator(*ratio, bound) == want == (lim.numerator, lim.denominator)

    @pytest.mark.parametrize("n, target", [(1, 0.5), (3, 2.9), (4, 3.6), (100, 25.0)])
    def test_uunifast_matches_uncapped_discard_loop(self, n, target):
        def uncapped(rng):
            while True:
                shares, rest = [], target
                for i in range(n - 1):
                    nxt = rest * rng.random() ** (1.0 / (n - i))
                    shares.append(rest - nxt)
                    rest = nxt
                shares.append(rest)
                if all(s < 1.0 for s in shares):
                    return shares

        for seed in range(20):
            ref, rng = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert generators._uunifast(rng, n, target) == uncapped(ref)
            assert rng.random() == ref.random()  # both streams advanced alike


def limited(x: float, bound: int) -> tuple[int, int]:
    want = Fraction(x).limit_denominator(bound)
    return want.numerator, want.denominator


# the bounds gen_random asks for (q^2 up to the table's limit), small
# ones, and bounds past the limit, which go to `_limit_denominator`
SHARE_BOUNDS = sorted({*range(1, 17), *(q * q for q in range(1, 9)), 65, 100, 10_000})


class TestShareLimiter:
    @given(st.floats(0, 1), st.sampled_from(SHARE_BOUNDS))
    def test_matches_fraction_on_unit_floats(self, x, bound):
        assert generators._share_limiter(bound)(x) == limited(x, bound)

    def test_midpoint_ties(self):
        # every midpoint of Farey neighbours a/b < c/d that a float holds
        # exactly, at every bound with a table: the lookup cannot tell the
        # two neighbours apart there, and the standard library takes the
        # last convergent, which may lie on either side
        ties = []
        for bound in range(1, generators.FAREY_LIMIT + 1):
            a, b, c, d = 0, 1, 1, bound
            while True:
                num, den = a * d + b * c, 2 * b * d
                den //= math.gcd(num, den)
                if den & (den - 1) == 0:  # a power of two
                    ties.append((num / (2 * b * d), bound))
                if c == d:
                    break
                k = (bound + b) // d
                a, b, c, d = c, d, k * c - a, k * d - b
        # 1/(2B) and 1 - 1/(2B) at every power of two B, 1/2 once at B = 1
        assert len(ties) == 13
        sides = set()
        for x, bound in ties:
            want = limited(x, bound)
            assert generators._share_limiter(bound)(x) == want
            sides.add(Fraction(*want) > x)
        assert sides == {False, True}

    @pytest.mark.parametrize("bound", [1, 2, 5, 49, 64])
    def test_floats_next_to_every_midpoint(self, bound):
        # the float nearest each midpoint and its two neighbours, where a
        # midpoint rounded the wrong way would pick the wrong side
        limit = generators._share_limiter(bound)
        mids, _, _ = generators._farey_table(bound)
        for mid in mids[:-1]:
            for x in (math.nextafter(mid, 0), mid, math.nextafter(mid, 1)):
                assert limit(x) == limited(x, bound)

    @pytest.mark.parametrize("bound", SHARE_BOUNDS)
    def test_ends_and_values_outside_the_unit_interval(self, bound):
        limit = generators._share_limiter(bound)
        for x in (0.0, -0.0, 1.0, 5e-324, 1 - 2**-53, -0.25, 1.5, 3.75, 1e300, -1e300):
            assert limit(x) == limited(x, bound)

    @pytest.mark.parametrize("bound, size", [(1, 2), (2, 3), (7, 19), (64, 1261)])
    def test_table_is_the_farey_sequence(self, bound, size):
        mids, nums, dens = generators._farey_table(bound)
        fractions = sorted({Fraction(a, b) for b in range(1, bound + 1) for a in range(b + 1)})
        assert len(fractions) == size
        assert [Fraction(a, b) for a, b in zip(nums, dens)] == fractions
        assert mids == (*(float((x + y) / 2) for x, y in zip(fractions, fractions[1:])), math.inf)


class TestLemma1Shaped:
    def test_shape_always_accepted_by_closed_form(self):
        for seed in range(30):
            ts = gen_lemma1_shaped(seed, n_strict=seed % 4, n_implicit=1 + seed % 3)
            lemma1_feasible(ts)  # must not raise ShapeMismatch
            assert validate(ts) == []

    def test_no_tasks_refused(self):
        with pytest.raises(BadParam, match="need at least one task"):
            gen_lemma1_shaped(5, 0, 0)

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 2.0), ("n_strict", True), ("n_implicit", 1.0),
         ("denominator_bound", 8.0), ("denominator_bound", True)],
    )  # fmt: skip
    def test_mistyped_number_is_a_type_error(self, field, value):
        params = {"seed": 0, "n_strict": 2, "n_implicit": 1, "denominator_bound": 8}
        with pytest.raises(TypeError) as err:
            gen_lemma1_shaped(**{**params, field: value})
        assert str(err.value) == f"{field}: expected int, got {value!r}"

    def test_produces_both_verdicts(self):
        verdicts = {
            lemma1_feasible(gen_lemma1_shaped(seed, 2, 2)) for seed in range(40)
        }
        assert verdicts == {True, False}
