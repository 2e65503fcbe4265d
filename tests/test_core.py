import math
import random
import time
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import pytest

from probdigits import (
    BaseTooSmall,
    BudgetExceeded,
    Cylinder,
    DEFAULT_BUDGET,
    DigitOutOfRange,
    DigitSeq,
    Enclosure,
    EndpointOneSided,
    FlipSet,
    FlipSpecError,
    FlipSystem,
    InvalidArgument,
    MoranSpec,
    NonPositiveWeight,
    NotPRational,
    OutOfUnitInterval,
    PointKind,
    PrefixTooShort,
    ProbDigitsError,
    ProbVector,
    RankTooLarge,
    ShiftPastPrefix,
    SumNotOne,
    bernoulli_cdf,
    classify,
    continuity_class,
    covering_measure,
    cylinder_bounds,
    cylinder_image,
    derivative_estimate,
    encode,
    entropy_sum,
    eval_digits,
    eval_flip,
    eval_nega,
    flip_digits,
    flip_image,
    graph_dimension_estimate,
    ifs_graph_points,
    ifs_maps,
    integral_closed_form,
    integral_riemann,
    integral_series,
    jump_at,
    make_prob_vector,
    monotone_witness,
    moran_dimension,
    moran_set_cylinders,
    nega_to_digits,
    p_rationals,
    rectangle_diagonals_sq,
    sample_digits,
    shift_digits,
    shift_value,
)
from probdigits import core
from conftest import (
    ASYM_VECTORS,
    cylinder_by_fractions,
    eval_nega_by_fractions,
    horner_sum,
    integral_series_by_fractions,
    orbit_by_fractions,
    random_fraction,
    random_seq,
    riemann_by_walk,
)


# ---------------------------------------------------------------------------
# probability vectors
# ---------------------------------------------------------------------------

def test_make_prob_vector_uniform():
    pv = make_prob_vector([Fraction(1, 2), Fraction(1, 2)])
    assert pv.q == 2
    assert pv.beta == (0, Fraction(1, 2), 1)


def test_make_prob_vector_cumulative_oracle(pv3):
    # independent cumulative sums
    expected = [Fraction(0)]
    for w in (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)):
        expected.append(expected[-1] + w)
    assert list(pv3.beta) == expected
    assert pv3.beta == (0, Fraction(1, 5), Fraction(1, 2), 1)


def test_prob_vector_common_denominator(pv3):
    coprime = make_prob_vector(["2/7", "3/11", "34/77"])
    for pv, den in ((pv3, 10), (coprime, 77), (ProbVector.uniform(4), 4)):
        assert pv.den == den
        assert all((v * den).denominator == 1 for v in pv.p + pv.beta)


def test_make_prob_vector_rejections():
    with pytest.raises(SumNotOne):
        make_prob_vector([Fraction(1, 2), Fraction(1, 2), Fraction(1, 10)])
    with pytest.raises(NonPositiveWeight):
        make_prob_vector([Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(BaseTooSmall):
        make_prob_vector([Fraction(1)])


def test_prob_vector_coerces_and_checks_its_input():
    # the constructor coerces and checks as make_prob_vector does, and takes the running sum as beta
    built = ProbVector((0.5, "1/2"))
    assert built == make_prob_vector(["1/2", "1/2"])
    assert all(type(v) is Fraction for v in built.p + built.beta)
    assert built.int_table == (2, (0, 1, 2), (1, 1))


def test_vector_builds_its_letter_tables_once_and_the_kernels_none(monkeypatch):
    # one builder call per vector, and the integral series, the Riemann sums
    # and the alternating expansion read its tables without making a table
    calls, tables = [], []
    build, new = core._letter_tables, core.IntTable.__new__
    monkeypatch.setattr(core, "_letter_tables", lambda table: calls.append(table) or build(table))
    monkeypatch.setattr(core.IntTable, "__new__", lambda cls, *fields: tables.append(fields) or new(cls, *fields))
    pv = make_prob_vector(["1/4", "3/4"])
    # int_table, then the flip and expectation tables
    assert (calls, len(tables)) == ([pv.int_table], 3)
    system = FlipSystem(pv, FlipSet.parse("mask:;01"))
    integral_series(system)
    integral_riemann(system, 8)
    eval_nega(DigitSeq((1, 0, 1), 2, (0, 1)), pv)
    assert (len(calls), len(tables)) == (1, 3)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def brute_bracket(seq, pv, terms=60):
    """Partial sum over `terms` explicit digits plus the leftover weight."""
    total = Fraction(0)
    weight = Fraction(1)
    for k in range(1, terms + 1):
        d = seq.digit_at(k)
        total += weight * pv.beta[d]
        weight *= pv.p[d]
    return total, total + weight


def test_eval_all_zero(uniform2):
    assert eval_digits(DigitSeq((0,), 2), uniform2) == 0


def test_eval_prefix_value_with_bracket_oracle(pv3):
    seq = DigitSeq((1, 2), 3)
    value = eval_digits(seq, pv3)
    lo, hi = brute_bracket(seq, pv3)
    assert lo <= value <= hi
    assert value == Fraction(7, 20)


def test_eval_dual_representation_of_half(uniform2):
    assert eval_digits(DigitSeq((0,), 2, "max"), uniform2) == Fraction(1, 2)
    assert eval_digits(DigitSeq((1,), 2), uniform2) == Fraction(1, 2)


def test_eval_max_tail_bracket_oracle():
    rng = random.Random(11)
    for q, pv in ASYM_VECTORS.items():
        for _ in range(20):
            seq = random_seq(rng, q)
            lo, hi = brute_bracket(seq, pv, terms=80)
            assert lo <= eval_digits(seq, pv) <= hi


def test_eval_alphabet_mismatch(uniform2, pv3):
    with pytest.raises(DigitOutOfRange):
        eval_digits(DigitSeq((2,), 3), uniform2)
    with pytest.raises(DigitOutOfRange):
        DigitSeq((3,), 3)


def test_dual_representation_random():
    rng = random.Random(5)
    for q, pv in ASYM_VECTORS.items():
        for _ in range(50):
            digits = tuple(rng.randrange(q) for _ in range(rng.randint(0, 8)))
            last = rng.randint(1, q - 1)
            upper = DigitSeq(digits + (last,), q, "zero")
            lower = DigitSeq(digits + (last - 1,), q, "max")
            assert eval_digits(upper, pv) == eval_digits(lower, pv)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_encode_examples(pv3, uniform2):
    seq = encode(Fraction(7, 20), pv3, 8)
    assert seq.digits == (1, 2)
    assert seq.tail_kind == "zero"
    assert encode(0, pv3, 8).digits == ()
    assert encode(Fraction(1, 3), uniform2, 6).digits == (0, 1, 0, 1, 0, 1)


def test_encode_refinement_oracle(pv3):
    # independent digit choice by scanning cells, plus the stated orbit values
    x = Fraction(7, 20)
    state = x
    digits = []
    for _ in range(8):
        if state == 0:
            break
        digit = next(c for c in range(pv3.q) if pv3.beta[c] <= state < pv3.beta[c + 1])
        digits.append(digit)
        state = (state - pv3.beta[digit]) / pv3.p[digit]
    assert tuple(digits) == encode(x, pv3, 8).digits
    assert shift_value(x, pv3) == Fraction(1, 2)
    assert shift_value(shift_value(x, pv3), pv3) == 0


def test_encode_one_and_bounds(pv3):
    one = encode(1, pv3, 8)
    assert one.digits == (2,) and one.tail_kind == "max"
    assert eval_digits(one, pv3) == 1
    with pytest.raises(OutOfUnitInterval):
        encode(Fraction(3, 2), pv3, 4)
    with pytest.raises(InvalidArgument):
        encode(Fraction(1, 3), pv3, -5)
    assert encode(Fraction(1, 3), pv3, 0).digits == ()


def test_encode_round_trip():
    rng = random.Random(23)
    for q, pv in ASYM_VECTORS.items():
        for _ in range(40):
            x = random_fraction(rng)
            depth = rng.randint(1, 12)
            seq = encode(x, pv, depth)
            cyl = cylinder_bounds(seq.digits, pv)
            assert cyl.contains(x)
            if len(seq.digits) < depth:
                assert eval_digits(seq, pv) == x  # orbit terminated: exact
            else:
                width = Fraction(1)
                for d in seq.digits:
                    width *= pv.p[d]
                assert cyl.width == width


def test_uniform_reduction_matches_base_q():
    rng = random.Random(31)
    for q in (2, 3, 5):
        pv = ProbVector.uniform(q)
        for _ in range(100 // 3 + 1):
            x = random_fraction(rng, max_den=10**4)
            if x == 1:
                continue
            depth = 10
            # standard radix algorithm
            digits = []
            y = x
            for _ in range(depth):
                if y == 0:
                    break
                d = math.floor(q * y)
                digits.append(d)
                y = q * y - d
            assert encode(x, pv, depth).digits == tuple(digits)


# ---------------------------------------------------------------------------
# cylinders
# ---------------------------------------------------------------------------

def test_cylinder_examples(pv3, uniform2):
    cyl = cylinder_bounds((1,), pv3)
    assert (cyl.lo, cyl.hi) == (Fraction(1, 5), Fraction(1, 2))
    empty = cylinder_bounds((), pv3)
    assert (empty.lo, empty.hi) == (0, 1)
    top = cylinder_bounds((1,), uniform2)
    assert (top.lo, top.hi) == (Fraction(1, 2), 1)


def test_cylinder_inf_sup_oracle(pv3):
    # property-2 oracle: inf by explicit partial sum, sup bracketed by truncation
    rng = random.Random(7)
    for _ in range(25):
        base = tuple(rng.randrange(3) for _ in range(rng.randint(1, 8)))
        cyl = cylinder_bounds(base, pv3)
        total = Fraction(0)
        weight = Fraction(1)
        for d in base:
            total += weight * pv3.beta[d]
            weight *= pv3.p[d]
        assert cyl.lo == total
        lo, hi = brute_bracket(DigitSeq(base, 3, "max"), pv3, terms=80)
        assert lo <= cyl.hi <= hi
        assert cyl.width == weight


def test_cylinder_partition_ratio_nesting():
    rng = random.Random(13)
    for q, pv in ASYM_VECTORS.items():
        for _ in range(30):
            base = tuple(rng.randrange(q) for _ in range(rng.randint(0, 10)))
            cyl = cylinder_bounds(base, pv)
            children = [cyl.child(c) for c in range(q)]
            assert children[0].lo == cyl.lo
            assert children[-1].hi == cyl.hi
            for c in range(q - 1):
                assert children[c].hi == children[c + 1].lo  # adjacency
            for c in range(q):
                assert cyl.lo <= children[c].lo and children[c].hi <= cyl.hi
                assert children[c].width / cyl.width == pv.p[c]
            assert sum(ch.width for ch in children) == cyl.width
            assert cyl.width <= pv.max_p ** cyl.rank


def test_cylinder_chain_shrinks_to_point(pv3):
    x = Fraction(355, 452)
    prev = cylinder_bounds((), pv3)
    for depth in range(1, 14):
        cyl = cylinder_bounds(encode(x, pv3, depth).digits, pv3)
        assert cyl.contains(x)
        assert prev.lo <= cyl.lo and cyl.hi <= prev.hi
        prev = cyl
    assert prev.width <= pv3.max_p ** 13


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------

def test_shift_digit_and_value_agree(pv3):
    seq = DigitSeq((1, 2, 0, 2), 3)
    x = eval_digits(seq, pv3)
    assert eval_digits(shift_digits(seq, 1), pv3) == shift_value(x, pv3)


def test_shift_fixed_points(pv3):
    assert shift_value(0, pv3) == 0
    assert shift_value(1, pv3) == 1


def test_shift_rank_identity():
    # offset/weight recursion checked by direct substitution at n = 3
    rng = random.Random(41)
    for q, pv in ASYM_VECTORS.items():
        for _ in range(20):
            x = random_fraction(rng)
            states = [x]
            for _ in range(3):
                states.append(shift_value(states[-1], pv))
            for n in (1, 2, 3):
                if states[n - 1] == 1:
                    continue
                # the digit of a state is the cell that holds it
                d = min(bisect_right(pv.beta, states[n - 1]) - 1, pv.q - 1)
                assert pv.beta[d] + pv.p[d] * states[n] == states[n - 1]


def test_shift_past_prefix():
    seq = DigitSeq((1, 0), 2)
    assert shift_digits(seq, 2).digits == ()
    with pytest.raises(ShiftPastPrefix):
        shift_digits(seq, 3)
    with pytest.raises(InvalidArgument):
        shift_digits(seq, -1)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_examples(pv3, uniform2):
    assert classify(Fraction(7, 20), pv3, 16).kind is PointKind.P_RATIONAL
    assert classify(0, pv3, 16).kind is PointKind.P_RATIONAL
    assert classify(1, pv3, 16).kind is PointKind.P_RATIONAL
    assert classify(Fraction(1, 3), uniform2, 16).kind is PointKind.P_IRRATIONAL


COPRIME3 = make_prob_vector(["2/7", "3/11", "34/77"])
MASKED3 = FlipSystem(COPRIME3, FlipSet.parse("mask:1;011"))
BASE3 = (2, 0, 1, 1, 2, 0)
FLIPPED3 = tuple(2 - d if MASKED3.flips.contains(k) else d for k, d in enumerate(BASE3, start=1))
MORAN4 = MoranSpec(make_prob_vector(["1/8", "1/4", "3/8", "1/4"]), 1)


def derivative_by_fractions(base, system, rank):
    ratios, ratio = [], Fraction(1)
    for k, d in enumerate(base[:rank], start=1):
        flipped = system.pv.q - 1 - d if system.flips.contains(k) else d
        ratio *= system.pv.p[flipped] / system.pv.p[d]
        ratios.append(ratio)
    return tuple(ratios)


#: (id, call returning a tuple of Fractions, the same values built by
#: Fraction arithmetic) for each function that builds its results with
#: core._lowest_terms
REDUCED = [
    ("shift-value", lambda: (shift_value(Fraction(5, 13), COPRIME3),),
     lambda: (orbit_by_fractions(Fraction(5, 13), COPRIME3, 1)[1][1],)),
    ("shift-value-state-0", lambda: (shift_value(Fraction(2, 7), COPRIME3),), lambda: (Fraction(0),)),
    ("shift-value-one", lambda: (shift_value(1, COPRIME3),), lambda: (Fraction(1),)),
    ("cylinder-bounds", lambda: cylinder_bounds(BASE3, COPRIME3)[2:], lambda: cylinder_by_fractions(BASE3, COPRIME3)),
    ("flip-image", lambda: tuple(flip_image(BASE3, MASKED3)), lambda: cylinder_by_fractions(FLIPPED3, COPRIME3)),
    ("eval-nega", lambda: tuple(eval_nega(DigitSeq(BASE3, 3, (0, 1, 2)), COPRIME3)),
     lambda: (eval_nega_by_fractions(DigitSeq(BASE3, 3, (0, 1, 2)), COPRIME3),) * 2),
    ("derivative-estimate", lambda: derivative_estimate(BASE3, MASKED3, 6).ratios,
     lambda: derivative_by_fractions(BASE3, MASKED3, 6)),
    ("integral-series", lambda: tuple(integral_series(MASKED3, Fraction(1, 10**9))),
     lambda: integral_series_by_fractions(MASKED3, Fraction(1, 10**9))),
    ("integral-riemann", lambda: tuple(integral_riemann(MASKED3, 5)), lambda: riemann_by_walk(MASKED3, 5)),
    ("covering-measure", lambda: (covering_measure(MORAN4, 6),),
     lambda: (sum((hi - lo for lo, hi in (cylinder_by_fractions(b, MORAN4.pv)
                                          for b in moran_set_cylinders(MORAN4, 6))), Fraction(0)),)),
    ("covering-measure-zero", lambda: (covering_measure(MoranSpec(ProbVector.uniform(2), 1), 3),),
     lambda: (Fraction(0),)),
]


@pytest.mark.parametrize("call, expected", [row[1:] for row in REDUCED], ids=[row[0] for row in REDUCED])
def test_results_are_reduced_fractions(call, expected):
    values, oracle = call(), expected()
    assert len(values) == len(oracle)
    for value, want in zip(values, oracle):
        # exactly a Fraction, in lowest terms over a positive denominator, and
        # the pair that the constructor builds from the same value
        assert type(value) is Fraction
        assert value.denominator > 0 and math.gcd(value.numerator, value.denominator) == 1
        assert (value.numerator, value.denominator) == (want.numerator, want.denominator)


@pytest.mark.parametrize("base", [2, 4, 12, 36, 64, 77, 343, 360, 1024])
def test_lowest_terms_over_a_power_is_lowest_terms(base):
    # every residue mod base, 0 and the scale itself, and multiples of high
    # powers of base's primes, whose gcd with the scale is a prime power
    primes = [ell for ell in range(2, base + 1) if base % ell == 0 and all(ell % k for k in range(2, ell))]
    for n in range(1, 9):
        scale = base ** n
        nums = [*range(2 * base), scale - 1, scale, scale + 1, 5 * scale]
        nums += [ell ** e * m for ell in primes for e in range(1, scale.bit_length() + 3) for m in (1, 3, base + 1)]
        for over in (scale, scale * 5, 1):  # a power of base, and two scales that are not
            built = core._lowest_terms_over(nums, over)
            assert all(type(value) is Fraction for value in built)
            assert [(v.numerator, v.denominator) for v in built] == \
                [(v.numerator, v.denominator) for v in (Fraction(num, over) for num in nums)]


def test_walk_states_stay_reduced_on_a_periodic_orbit():
    # on 1/3,2/3 the orbit of 1/7 is 1/7 -> 3/7 -> 1/7: a walk that kept
    # unreduced pairs would grow them at every step
    pv = make_prob_vector(["1/3", "2/3"])
    digits, a, b = core._walk(1, 7, pv.int_table, 10_000)
    # the steps ran out, short of state 0
    assert len(digits) == 10_000 and a != 0 and (a, b) in ((1, 7), (3, 7))
    assert digits == [0, 1] * 5_000
    assert encode(Fraction(1, 7), pv, 10_000).digits == (0, 1) * 5_000


def test_classify_orbit_oracle(uniform2):
    # 1/3 cycles 1/3 -> 2/3 -> 1/3 under the uniform shift
    assert shift_value(Fraction(1, 3), uniform2) == Fraction(2, 3)
    assert shift_value(Fraction(2, 3), uniform2) == Fraction(1, 3)


def test_classify_undetermined():
    pv = make_prob_vector([Fraction(1, 3), Fraction(2, 3)])
    pc = classify(Fraction(1, 2), pv, 24)
    assert pc.kind is PointKind.UNDETERMINED
    assert pc.depth == 24
    assert classify(Fraction(1, 2), pv, 0) == (PointKind.UNDETERMINED, 0)
    with pytest.raises(InvalidArgument):
        classify(Fraction(1, 3), pv, -3)


# ---------------------------------------------------------------------------
# digit sequences as values
# ---------------------------------------------------------------------------

def test_digitseq_stream_equality():
    assert DigitSeq((1, 2, 0), 3) == DigitSeq((1, 2), 3)
    assert DigitSeq((1, 0, 0, 2), 3, (0, 2)) == DigitSeq((1, 0), 3, (0, 2))
    assert DigitSeq((1, 2, 0), 3) != DigitSeq((1, 2), 3, "max")
    assert DigitSeq((), 2, "max") == DigitSeq((1,), 2, "max")  # the number 1
    # equal streams hash equal
    assert hash(DigitSeq((1, 2, 0), 3)) == hash(DigitSeq((1, 2), 3))
    assert hash(DigitSeq((1, 0, 0, 2), 3, (0, 2))) == hash(DigitSeq((1, 0), 3, (0, 2, 0, 2)))
    assert len({DigitSeq((), 2, "max"), DigitSeq((1,), 2, "max"), DigitSeq((1, 1), 2, (1,))}) == 1


def test_digitseq_digit_at():
    seq = DigitSeq((1, 2), 3, (0, 2))
    assert [seq.digit_at(k) for k in range(1, 7)] == [1, 2, 0, 2, 0, 2]


# ---------------------------------------------------------------------------
# distribution function
# ---------------------------------------------------------------------------

def test_bernoulli_cdf_uniform_is_identity(uniform2):
    rng = random.Random(3)
    for _ in range(25):
        x = random_fraction(rng, max_den=5000)
        assert bernoulli_cdf(x, uniform2) == x


def test_bernoulli_cdf_values(asym2):
    assert bernoulli_cdf(Fraction(-1, 2), asym2) == 0
    assert bernoulli_cdf(2, asym2) == 1
    # first base-2 cell [0, 1/2) carries weight p_0 = 1/4
    assert bernoulli_cdf(Fraction(1, 2), asym2) == Fraction(1, 4)
    # 1/3 = 0.010101..., exact geometric closure
    seq = DigitSeq((0, 1), 2, (0, 1))
    assert bernoulli_cdf(Fraction(1, 3), asym2) == eval_digits(seq, asym2)


def test_bernoulli_cdf_period_budget(monkeypatch, uniform2):
    # 2 is a primitive root of the prime 1048589, so 1/1048589 has period 1048588 > 2**20
    with pytest.raises(BudgetExceeded):
        bernoulli_cdf(Fraction(1, 1048589), uniform2)
    # 1/7 = 0.(001) and 1/14 = 0.0(010): the budget bounds the period, not the preperiod
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 3)
    assert bernoulli_cdf(Fraction(1, 7), uniform2) == Fraction(1, 7)
    assert bernoulli_cdf(Fraction(1, 14), uniform2) == Fraction(1, 14)
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 2)
    for x in (Fraction(1, 7), Fraction(1, 14)):
        with pytest.raises(BudgetExceeded):
            bernoulli_cdf(x, uniform2)


def test_bernoulli_cdf_refuses_in_constant_memory(monkeypatch, uniform2):
    # the period is bounded from the denominator before any digit is made; a
    # budget of 2**16 keeps the traced loop short, and a dict of 2**16 seen
    # remainders alone would take several MiB
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 1 << 16)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            bernoulli_cdf(Fraction(1, 1048589), uniform2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bernoulli_cdf_monotone(asym2):
    xs = [Fraction(k, 17) for k in range(18)]
    vals = [bernoulli_cdf(x, asym2) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_sample_digits_exact_law(pv3):
    # one pass over every integer draw in [0, D) hits digit c exactly p[c]*D times
    class EveryDraw:
        def __init__(self):
            self.next = 0

        def randrange(self, n):
            assert n == pv3.den
            self.next += 1
            return self.next - 1

    digits = sample_digits(pv3, pv3.den, EveryDraw())
    assert [digits.count(c) for c in range(3)] == [p * pv3.den for p in pv3.p]
    with pytest.raises(InvalidArgument):
        sample_digits(pv3, -1, EveryDraw())


# ---------------------------------------------------------------------------
# enclosures
# ---------------------------------------------------------------------------

def test_enclosure_semantics():
    from probdigits import Enclosure

    point = Enclosure.point(Fraction(1, 3))
    assert point.is_exact and point.value == Fraction(1, 3)
    box = Enclosure(Fraction(1, 4), Fraction(1, 2))
    assert box.width == Fraction(1, 4)
    assert box.midpoint() == Fraction(3, 8)
    assert Fraction(1, 3) in box and Fraction(3, 5) not in box
    assert box.intersects(point)
    assert not box.intersects(Enclosure.point(Fraction(9, 10)))
    with pytest.raises(ValueError):
        box.value
    with pytest.raises(ValueError):
        Enclosure(Fraction(1), Fraction(0))


@pytest.mark.parametrize("bad", [2, -1, True, False, 1.0, "1", None])
def test_digit_check_of_cylinders_and_derivative_scans(bad):
    # the fast type-and-range test refuses exactly what check_digit refuses, with its message
    pv = make_prob_vector(["1/4", "3/4"])
    system = FlipSystem(pv, FlipSet.all())
    with pytest.raises(DigitOutOfRange) as expected:
        pv.check_digit(bad)
    for refuse in (lambda: cylinder_bounds((0, bad, 1), pv), lambda: derivative_estimate((0, bad, 1), system, 3)):
        with pytest.raises(DigitOutOfRange) as raised:
            refuse()
        assert str(raised.value) == str(expected.value)


def test_digit_check_accepts_an_int_subclass():
    class Digit(int):
        pass

    pv = make_prob_vector(["1/4", "3/4"])
    cyl = cylinder_bounds((Digit(1), 0), pv)
    assert (cyl.lo, cyl.hi) == (Fraction(1, 4), Fraction(7, 16))
    assert derivative_estimate((Digit(1),), FlipSystem(pv, FlipSet.all()), 1).ratios == (Fraction(1, 3),)


def test_digitseq_validation():
    with pytest.raises(BaseTooSmall):
        DigitSeq((0,), 1)
    with pytest.raises(DigitOutOfRange):
        DigitSeq((0, 7), 3)
    with pytest.raises(DigitOutOfRange):
        DigitSeq((0,), 3, (0, 9))
    with pytest.raises(ValueError):
        DigitSeq((0,), 3, ())
    with pytest.raises(ValueError):
        DigitSeq((0,), 3, "sometimes")


@pytest.mark.parametrize("call", [
    lambda pv: encode(float("nan"), pv),
    lambda pv: encode(float("inf"), pv),
    lambda pv: encode(None, pv),
    lambda pv: classify("1/0", pv),
    lambda pv: classify("one half", pv),
    lambda pv: make_prob_vector(["a", "b"]),
    lambda pv: integral_series(FlipSystem(pv, FlipSet.none()), "x"),
    lambda pv: entropy_sum(FlipSystem(pv, FlipSet.none()), "x", 3),
    lambda pv: moran_dimension(MoranSpec(pv, 0), "x"),
    lambda pv: encode(Fraction(1, 3), pv, 1.5),
    lambda pv: classify(Fraction(1, 3), pv, 2.5),
], ids=["encode-nan", "encode-inf", "encode-none", "classify-zero-denominator", "classify-words",
        "prob-vector-words", "integral-series-tol-words", "entropy-sum-alpha-words", "moran-tol-words",
        "encode-float-depth", "classify-float-max-depth"])
def test_non_rational_input_is_invalid_argument(uniform2, call):
    with pytest.raises(InvalidArgument):
        call(uniform2)


SYSTEM2 = FlipSystem(ProbVector.uniform(2), FlipSet.parse("mask:;01"))
PLAIN2 = FlipSystem(ProbVector.uniform(2), FlipSet.none())
MORAN4 = MoranSpec(ProbVector.uniform(4), 1)
#: q = 2 with marker 1 leaves no block digit: the Moran walks return early
MORAN_EMPTY = MoranSpec(ProbVector.uniform(2), 1)


@pytest.mark.parametrize("call, error", [
    (lambda: derivative_estimate((0, 1, 0), SYSTEM2, "2"), InvalidArgument),
    (lambda: derivative_estimate((0, 1, 0), SYSTEM2, 2.0), InvalidArgument),
    (lambda: integral_riemann(SYSTEM2, "2"), InvalidArgument),
    (lambda: monotone_witness(SYSTEM2, "2"), InvalidArgument),
    (lambda: p_rationals(SYSTEM2.pv, "2"), InvalidArgument),
    (lambda: eval_flip(DigitSeq((1,), 2), SYSTEM2, "2"), InvalidArgument),
    (lambda: flip_image((1,), SYSTEM2, "2"), InvalidArgument),
    (lambda: shift_digits(DigitSeq((1, 0), 2), "2"), InvalidArgument),
    (lambda: DigitSeq((1,), "2"), InvalidArgument),
    (lambda: DigitSeq((1,), 2.0), InvalidArgument),
    (lambda: FlipSet.finite([2.7, "3"]), FlipSpecError),
    (lambda: FlipSet.finite([2, "3"]), FlipSpecError),
    (lambda: ifs_graph_points(SYSTEM2, "2"), InvalidArgument),
    (lambda: ifs_graph_points(SYSTEM2, 2.0), InvalidArgument),
    (lambda: rectangle_diagonals_sq(SYSTEM2, 2.0), InvalidArgument),
    (lambda: rectangle_diagonals_sq(SYSTEM2, "2"), InvalidArgument),
    (lambda: entropy_sum(SYSTEM2, 1, 2.0), InvalidArgument),
    (lambda: entropy_sum(SYSTEM2, 1, "2"), InvalidArgument),
    (lambda: graph_dimension_estimate(PLAIN2, [1, 2.0]), InvalidArgument),
    (lambda: graph_dimension_estimate(PLAIN2, ["2"]), InvalidArgument),
    (lambda: graph_dimension_estimate(PLAIN2, 3), InvalidArgument),
    (lambda: covering_measure(MORAN4, 2.5), InvalidArgument),
    (lambda: moran_set_cylinders(MORAN4, 2.0), InvalidArgument),
    (lambda: sample_digits(PLAIN2.pv, 2.5, random.Random(0)), InvalidArgument),
    (lambda: sample_digits(PLAIN2.pv, "3", random.Random(0)), InvalidArgument),
    (lambda: DigitSeq((1, 0), 2).digit_at(0), InvalidArgument),
    (lambda: DigitSeq((1, 0), 2).digit_at(1.5), InvalidArgument),
    (lambda: SYSTEM2.flips.contains("a"), InvalidArgument),
    (lambda: SYSTEM2.flips.pattern_from(1.5), InvalidArgument),
], ids=["derivative-str-rank", "derivative-float-rank", "riemann-str-rank", "witness-str-rank",
        "p-rationals-str-count", "eval-flip-str-offset", "flip-image-str-offset", "shift-str-count",
        "digitseq-str-q", "digitseq-float-q", "finite-float-position", "finite-str-position",
        "graph-points-str-depth", "graph-points-float-depth", "diagonals-float-rank", "diagonals-str-rank",
        "entropy-float-rank", "entropy-str-rank", "dimension-float-rank", "dimension-str-rank",
        "dimension-int-ranks", "covering-float-rank", "moran-float-rank", "sample-float-length",
        "sample-str-length", "digit-at-zero", "digit-at-float", "contains-str-position",
        "pattern-from-float-start"])
def test_non_integer_argument_is_refused(call, error):
    with pytest.raises(error):
        call()


def test_digitseq_bad_tail_is_invalid_argument():
    for tail in ((), "sometimes", 5, None):
        with pytest.raises(InvalidArgument):
            DigitSeq((0,), 3, tail)


def test_positions_are_one_based_in_every_message():
    for k in (0, -1, 1.5, "a"):
        for call in (DigitSeq((1, 0), 2).digit_at, SYSTEM2.flips.contains, SYSTEM2.flips.pattern_from):
            with pytest.raises(InvalidArgument, match="positions are 1-based"):
                call(k)


def test_horner_sum_refuses_a_cycle_weight_product_not_below_one():
    half = Fraction(1, 2)
    # a product at or below -1 diverges as well: 1 - 2 + 4 - ... has no sum
    for cycle in ([(0, 1)], [(half, 2)], [(half, 2), (half, half)], [(1, 3), (0, half)], [(1, -2)], [(0, -1)]):
        with pytest.raises(InvalidArgument, match="not below 1"):
            horner_sum([], cycle)
    # a product just below 1 still closes: 1/2 / (1 - 3/4)
    assert horner_sum([], [(half, Fraction(3, 2)), (0, half)]) == 2
    # and so does a negative one above -1: 1 - 1/2 + 1/4 - ... = 1 / (1 + 1/2)
    assert horner_sum([], [(1, -half)]) == Fraction(2, 3)


def test_digitseq_tail_block_reduces_to_primitive():
    assert DigitSeq((1,), 3, (0, 2, 0, 2)).tail == (0, 2)
    assert DigitSeq((1,), 3, (2, 2)).tail_kind == "max"
    assert DigitSeq((), 2, (1, 1)) == DigitSeq((1,), 2, "max")
    assert repr(DigitSeq((1,), 3, (0, 2, 0, 2))) == "DigitSeq([1], q=3, tail=periodic(0, 2))"
    assert repr(DigitSeq((1,), 3, (2, 2))) == "DigitSeq([1], q=3, tail=max)"


PV4 = ProbVector.uniform(4)
#: one block digit (the block 1, 2): its base count stays 1 at every rank
MORAN_ONE_BLOCK = MoranSpec(make_prob_vector(["1/5", "3/10", "1/2"]), 1)

#: primitive periods of 1031 digits and 1033 flip bits, both prime lengths
LONG_TAIL = DigitSeq((), 2, (1,) + (0,) * 1030)
LONG_MASK = FlipSet.mask((), (True,) + (False,) * 1032)

#: (id, refused call, exception class, message): each argument rule's exact
#: refusal, for every site that applies it, and the order of the checks
#: when two arguments are bad
REFUSALS = [
    # integer bounds
    ("encode-depth", lambda: encode(Fraction(1, 3), PLAIN2.pv, -1), InvalidArgument, "depth must be >= 0, got -1"),
    ("shift-count", lambda: shift_digits(DigitSeq((1, 0), 2), -1), InvalidArgument,
     "shift count must be >= 0, got -1"),
    ("classify-max-depth", lambda: classify(Fraction(1, 3), PLAIN2.pv, -1), InvalidArgument,
     "max_depth must be >= 0, got -1"),
    ("sample-length", lambda: sample_digits(PLAIN2.pv, -1, random.Random(0)), InvalidArgument,
     "length must be >= 0, got -1"),
    ("eval-flip-offset", lambda: eval_flip(DigitSeq((1,), 2), SYSTEM2, -1), InvalidArgument,
     "offset must be >= 0, got -1"),
    ("flip-image-offset", lambda: flip_image((1,), SYSTEM2, -2), InvalidArgument, "offset must be >= 0, got -2"),
    ("jump-max-depth", lambda: jump_at(Fraction(1, 2), SYSTEM2, -1), InvalidArgument,
     "max_depth must be >= 0, got -1"),
    ("p-rationals-count", lambda: p_rationals(PLAIN2.pv, -3), InvalidArgument, "count must be >= 0, got -3"),
    ("witness-rank", lambda: monotone_witness(SYSTEM2, 0), InvalidArgument, "rank must be >= 1, got 0"),
    ("derivative-max-rank", lambda: derivative_estimate((0, 1), SYSTEM2, 0), InvalidArgument,
     "max_rank must be >= 1, got 0"),
    ("riemann-rank", lambda: integral_riemann(SYSTEM2, 0), InvalidArgument, "rank must be >= 1, got 0"),
    ("graph-points-depth", lambda: ifs_graph_points(SYSTEM2, -1), InvalidArgument, "depth must be >= 0, got -1"),
    ("diagonals-rank", lambda: rectangle_diagonals_sq(SYSTEM2, -1), InvalidArgument, "rank must be >= 0, got -1"),
    ("entropy-rank", lambda: entropy_sum(SYSTEM2, 1, 0), InvalidArgument, "rank must be >= 1, got 0"),
    ("moran-cylinders-rank", lambda: moran_set_cylinders(MORAN4, 0), InvalidArgument, "rank must be >= 1, got 0"),
    ("covering-rank", lambda: covering_measure(MORAN4, -5), InvalidArgument, "rank must be >= 1, got -5"),
    ("encode-float-depth", lambda: encode(Fraction(1, 3), PLAIN2.pv, 1.5), InvalidArgument,
     "depth must be an integer, got 1.5"),
    ("entropy-str-rank", lambda: entropy_sum(SYSTEM2, 1, "2"), InvalidArgument, "rank must be an integer, got '2'"),
    # budgets: no minimum here, a negative budget is refused as over it
    ("riemann-budget", lambda: integral_riemann(SYSTEM2, 3, "x"), InvalidArgument,
     "budget must be an integer, got 'x'"),
    ("graph-points-budget", lambda: ifs_graph_points(SYSTEM2, 3, 8.5), InvalidArgument,
     "budget must be an integer, got 8.5"),
    ("diagonals-budget", lambda: rectangle_diagonals_sq(SYSTEM2, 2, None), InvalidArgument,
     "budget must be an integer, got None"),
    ("entropy-budget", lambda: entropy_sum(SYSTEM2, 1, 2, "8"), InvalidArgument, "budget must be an integer, got '8'"),
    ("dimension-budget", lambda: graph_dimension_estimate(SYSTEM2, [1, 2], 1.0), InvalidArgument,
     "budget must be an integer, got 1.0"),
    ("moran-cylinders-budget", lambda: moran_set_cylinders(MORAN_EMPTY, 3, 2.5), InvalidArgument,
     "budget must be an integer, got 2.5"),
    ("covering-budget", lambda: covering_measure(MORAN_EMPTY, 3, None), InvalidArgument,
     "budget must be an integer, got None"),
    # bounds that keep their own form
    ("dimension-ranks", lambda: graph_dimension_estimate(PLAIN2, [0, 1]), InvalidArgument,
     "ranks must be >= 1, got [0, 1]"),
    ("digitseq-q", lambda: DigitSeq((0,), 1), BaseTooSmall, "alphabet size 1 < 2"),
    ("digit-at-position", lambda: DigitSeq((1, 0), 2).digit_at(0), InvalidArgument, "positions are 1-based, got 0"),
    ("finite-positions", lambda: FlipSet.finite([2, 0]), FlipSpecError, "flip positions must be >= 1, got (0, 2)"),
    # mask bits
    ("mask-str-bit", lambda: FlipSet.mask(["0"], ["0", "1"]), FlipSpecError,
     "mask preperiod column 0: '0' is not a bit"),
    ("mask-int-bit", lambda: FlipSet.mask((), (True, 2)), FlipSpecError, "mask period column 1: 2 is not a bit"),
    ("parse-mask-bit", lambda: FlipSet.parse("mask:0x;1"), FlipSpecError, "mask preperiod column 1: 'x' is not a bit"),
    # flip specs and bit lists of the wrong type
    ("parse-none", lambda: FlipSet.parse(None), FlipSpecError, "flip spec must be a string, got None"),
    ("parse-bytes", lambda: FlipSet.parse(b"none"), FlipSpecError, "flip spec must be a string, got b'none'"),
    ("finite-none", lambda: FlipSet.finite(None), FlipSpecError,
     "flip positions must be a sequence of integers, got None"),
    ("mask-none-preperiod", lambda: FlipSet.mask(None, (1,)), FlipSpecError,
     "mask preperiod must be a sequence of bits, got None"),
    ("flip-set-kind", lambda: FlipSet("mask", (), (True,)), FlipSpecError, "flip kind must be a FlipKind, got 'mask'"),
    ("parse-unknown-kind", lambda: FlipSet.parse("foo:1"), FlipSpecError, "unknown flip kind 'foo'"),
    # records and sequences of the wrong type
    ("flip-system-pv", lambda: FlipSystem(None, None), InvalidArgument, "pv must be a ProbVector, got None"),
    ("flip-system-flips", lambda: FlipSystem(PV4, "none"), InvalidArgument, "flips must be a FlipSet, got 'none'"),
    ("flip-system-replace-flips", lambda: SYSTEM2._replace(flips=None), InvalidArgument,
     "flips must be a FlipSet, got None"),
    ("moran-pv", lambda: MoranSpec(None, 1), InvalidArgument, "pv must be a ProbVector, got None"),
    ("make-prob-vector-none", lambda: make_prob_vector(None), InvalidArgument,
     "weights must be an iterable of rationals, got None"),
    ("prob-vector-int", lambda: ProbVector(5), InvalidArgument, "weights must be an iterable of rationals, got 5"),
    # a string of weights is refused by name, not character by character
    ("prob-vector-str", lambda: ProbVector("1/2,1/2"), InvalidArgument,
     "weights must be an iterable of rationals, got '1/2,1/2'"),
    ("make-prob-vector-str", lambda: make_prob_vector("1/2"), InvalidArgument,
     "weights must be an iterable of rationals, got '1/2'"),
    ("prob-vector-bytes", lambda: ProbVector(b"1/2,1/2"), InvalidArgument,
     "weights must be an iterable of rationals, got b'1/2,1/2'"),
    ("digitseq-none", lambda: DigitSeq(None, 2), InvalidArgument, "digits must be a sequence of integers, got None"),
    # entropy sums whose groups leave the float range
    ("entropy-multiplicity", lambda: entropy_sum(PLAIN2, 1, 1100), RankTooLarge,
     "rank 1100: a rectangle multiplicity exceeds the float range"),
    ("entropy-diagonal", lambda: entropy_sum(PLAIN2, 1, 540), RankTooLarge,
     "rank 540: a squared diagonal is below the float range"),
    ("dimension-diagonal", lambda: graph_dimension_estimate(PLAIN2, [540]), RankTooLarge,
     "rank 540: a squared diagonal is below the float range"),
    ("dimension-largest-rank-first", lambda: graph_dimension_estimate(PLAIN2, [512, 600, 1100]), RankTooLarge,
     "rank 1100: a rectangle multiplicity exceeds the float range"),
    # points
    ("encode-point", lambda: encode(2, PLAIN2.pv), OutOfUnitInterval, "2 not in [0, 1]"),
    ("encode-negative-point", lambda: encode("-1/2", PLAIN2.pv), OutOfUnitInterval, "-1/2 not in [0, 1]"),
    ("shift-value-point", lambda: shift_value(Fraction(3, 2), PLAIN2.pv), OutOfUnitInterval, "3/2 not in [0, 1]"),
    ("classify-point", lambda: classify(-1, PLAIN2.pv), OutOfUnitInterval, "-1 not in [0, 1]"),
    ("jump-point", lambda: jump_at(2, SYSTEM2), OutOfUnitInterval, "2 not in [0, 1]"),
    ("encode-unparsable", lambda: encode("z", PLAIN2.pv), InvalidArgument, "not a rational number: 'z'"),
    ("shift-value-unparsable", lambda: shift_value(None, PLAIN2.pv), InvalidArgument, "not a rational number: None"),
    ("jump-unparsable", lambda: jump_at("z", SYSTEM2), InvalidArgument, "not a rational number: 'z'"),
    ("jump-endpoint", lambda: jump_at(0, SYSTEM2), EndpointOneSided, "0 admits only a one-sided limit"),
    ("jump-one-expansion", lambda: jump_at(Fraction(1, 3), SYSTEM2, 5), NotPRational,
     "1/3 is p-irrational at depth 5"),
    # digits
    ("digitseq-digit", lambda: DigitSeq((0, 7), 3), DigitOutOfRange, "digit 7 not in [0, 2]"),
    ("digitseq-bool-digit", lambda: DigitSeq((0, True), 2), DigitOutOfRange, "digit True not in [0, 1]"),
    ("digitseq-float-digit", lambda: DigitSeq((1.0,), 2), DigitOutOfRange, "digit 1.0 not in [0, 1]"),
    ("digitseq-tail-digit", lambda: DigitSeq((0,), 3, (0, 9)), DigitOutOfRange, "tail digit 9 not in [0, 2]"),
    ("digitseq-negative-tail-digit", lambda: DigitSeq((), 3, (-1,)), DigitOutOfRange,
     "tail digit -1 not in [0, 2]"),
    ("cylinder-digit", lambda: cylinder_bounds((0, 2), PLAIN2.pv), DigitOutOfRange, "digit 2 not in [0, 1]"),
    ("cylinder-str-digit", lambda: cylinder_bounds(("1",), PLAIN2.pv), DigitOutOfRange, "digit '1' not in [0, 1]"),
    ("flip-image-digit", lambda: flip_image((0, 2), SYSTEM2), DigitOutOfRange, "digit 2 not in [0, 1]"),
    ("derivative-digit", lambda: derivative_estimate((0, 5), SYSTEM2, 1), DigitOutOfRange, "digit 5 not in [0, 1]"),
    ("derivative-short-prefix", lambda: derivative_estimate((0,), SYSTEM2, 2), PrefixTooShort,
     "prefix of length 1 cannot reach rank 2"),
    ("moran-marker", lambda: MoranSpec(PV4, 4), DigitOutOfRange, "digit 4 not in [0, 3]"),
    ("moran-replace-marker", lambda: MORAN4._replace(u=-1), DigitOutOfRange, "digit -1 not in [0, 3]"),
    ("system-digit", lambda: SYSTEM2.digit(1, 2), DigitOutOfRange, "digit 2 not in [0, 1]"),
    ("check-digit-none", lambda: PV4.check_digit(None), DigitOutOfRange, "digit None not in [0, 3]"),
    # probability vectors, made directly
    ("prob-vector-unparsable", lambda: ProbVector(("a", "b")), InvalidArgument, "not a rational number: 'a'"),
    ("prob-vector-short", lambda: ProbVector((1,)), BaseTooSmall, "need at least 2 weights, got 1"),
    ("prob-vector-nonpositive", lambda: ProbVector(("3/2", "-1/2")), NonPositiveWeight, "weight -1/2 is not positive"),
    ("prob-vector-sum", lambda: ProbVector(("1/2", "1/3")), SumNotOne, "weights sum to 5/6, not 1"),
    # alphabets
    ("eval-digits-alphabet", lambda: eval_digits(DigitSeq((1,), 3), PLAIN2.pv), DigitOutOfRange,
     "sequence alphabet 3 != vector alphabet 2"),
    ("eval-flip-alphabet", lambda: eval_flip(DigitSeq((1,), 3), SYSTEM2), DigitOutOfRange,
     "sequence alphabet 3 != vector alphabet 2"),
    ("eval-nega-alphabet", lambda: eval_nega(DigitSeq((3,), 4), PLAIN2.pv), DigitOutOfRange,
     "sequence alphabet 4 != vector alphabet 2"),
    # two bad arguments: the first check wins
    ("jump-unparsable-and-max-depth", lambda: jump_at("z", SYSTEM2, -1), InvalidArgument,
     "max_depth must be >= 0, got -1"),
    ("jump-point-and-max-depth", lambda: jump_at(2, SYSTEM2, -1), InvalidArgument, "max_depth must be >= 0, got -1"),
    ("encode-unparsable-and-depth", lambda: encode("z", PLAIN2.pv, -1), InvalidArgument,
     "depth must be >= 0, got -1"),
    ("classify-point-and-max-depth", lambda: classify(2, PLAIN2.pv, -1), InvalidArgument,
     "max_depth must be >= 0, got -1"),
    ("eval-flip-alphabet-and-offset", lambda: eval_flip(DigitSeq((1,), 3), SYSTEM2, -1), InvalidArgument,
     "offset must be >= 0, got -1"),
    ("flip-image-digit-and-offset", lambda: flip_image((0, 2), SYSTEM2, -1), DigitOutOfRange,
     "digit 2 not in [0, 1]"),
    ("derivative-digit-and-max-rank", lambda: derivative_estimate((0, 5), SYSTEM2, 0), InvalidArgument,
     "max_rank must be >= 1, got 0"),
    ("digitseq-q-and-digit", lambda: DigitSeq((7,), 1), BaseTooSmall, "alphabet size 1 < 2"),
    ("digitseq-digit-and-tail-digit", lambda: DigitSeq((7,), 3, (9,)), DigitOutOfRange, "digit 7 not in [0, 2]"),
    ("cylinder-two-digits", lambda: cylinder_bounds((5, "x"), PLAIN2.pv), DigitOutOfRange, "digit 5 not in [0, 1]"),
    ("shift-past-prefix", lambda: shift_digits(DigitSeq((1,), 2), 2), ShiftPastPrefix,
     "cannot drop 2 digits from a prefix of length 1"),
    # enclosures
    ("enclosure-empty", lambda: Enclosure(Fraction(1), Fraction(0)), InvalidArgument, "empty enclosure [1, 0]"),
    ("enclosure-replace-empty", lambda: Enclosure(Fraction(0), Fraction(1, 2))._replace(lo=Fraction(3, 4)),
     InvalidArgument, "empty enclosure [3/4, 1/2]"),
    ("enclosure-value-of-interval", lambda: Enclosure(Fraction(1, 4), Fraction(1, 2)).value, InvalidArgument,
     "enclosure [1/4, 1/2] is not a point"),
    # the ends are coerced before the order check: text does not compare as text
    ("enclosure-empty-text", lambda: Enclosure("1/2", "1/3"), InvalidArgument, "empty enclosure [1/2, 1/3]"),
    ("enclosure-unparsable", lambda: Enclosure("a", "b"), InvalidArgument, "not a rational number: 'a'"),
    ("enclosure-replace-unparsable", lambda: Enclosure(0, 1)._replace(hi=None), InvalidArgument,
     "not a rational number: None"),
    # cylinders made directly: the vector first, then the digits, then the ends
    ("cylinder-vector", lambda: Cylinder((5,), "x", "1", 0), InvalidArgument, "pv must be a ProbVector, got 'x'"),
    ("cylinder-made-digit", lambda: Cylinder((5,), PLAIN2.pv, "1", 0), DigitOutOfRange, "digit 5 not in [0, 1]"),
    ("cylinder-unparsable-end", lambda: Cylinder((1,), PLAIN2.pv, "a", 1), InvalidArgument,
     "not a rational number: 'a'"),
    ("cylinder-empty", lambda: Cylinder((1,), PLAIN2.pv, "1", 0), InvalidArgument, "empty cylinder [1, 0]"),
    ("cylinder-replace-empty", lambda: cylinder_bounds((0, 1), PLAIN2.pv)._replace(hi=0), InvalidArgument,
     "empty cylinder [1/4, 0]"),
    ("cylinder-replace-digit", lambda: cylinder_bounds((0, 1), PLAIN2.pv)._replace(base=(2,)), DigitOutOfRange,
     "digit 2 not in [0, 1]"),
    # series terms
    ("horner-sum-short-term", lambda: horner_sum([(1,)], []), InvalidArgument,
     "series terms must be iterables of (offset, weight) pairs"),
    ("horner-sum-not-iterable", lambda: horner_sum([], 5), InvalidArgument,
     "series terms must be iterables of (offset, weight) pairs"),
    ("horner-sum-unparsable-offset", lambda: horner_sum([("a", Fraction(1, 2))], []), InvalidArgument,
     "not a rational number: 'a'"),
    ("horner-sum-unparsable-weight", lambda: horner_sum([], [(0, "x")]), InvalidArgument,
     "not a rational number: 'x'"),
    # a number of more than 100 digits is quoted by its digit count: no int
    # to str conversion, which is slow and refused past 4300 digits
    ("prob-vector-huge-sum", lambda: make_prob_vector([Fraction(1, 10**5000), Fraction(1, 2)]), SumNotOne,
     "weights sum to <5000-digit integer>/<5001-digit integer>, not 1"),
    ("finite-huge-position", lambda: FlipSet.finite([10**5000]), BudgetExceeded,
     "flip position <5001-digit integer> exceeds budget 1048576"),
    ("integral-series-huge-tol", lambda: integral_series(SYSTEM2, Fraction(1, 10**400000)), BudgetExceeded,
     "about 1328771 series terms to reach tol 1/<400001-digit integer> exceed budget 1048576"),
    ("encode-huge-point", lambda: encode(Fraction(10**5000 + 1, 10**5000), PLAIN2.pv), OutOfUnitInterval,
     "<5001-digit integer>/<5001-digit integer> not in [0, 1]"),
    ("cylinder-huge-digit", lambda: cylinder_bounds((10**5000,), PLAIN2.pv), DigitOutOfRange,
     "digit <5001-digit integer> not in [0, 1]"),
    # a list or tuple of more than 8 entries is quoted by its first 8 and its length
    ("finite-long-list", lambda: FlipSet.finite(range(0, -200000, -1)), FlipSpecError,
     "flip positions must be >= 1, got (-199999, -199998, -199997, -199996, -199995, -199994, -199993, -199992, ...)"
     " (200000 entries)"),
    ("dimension-long-ranks", lambda: graph_dimension_estimate(PLAIN2, [0] * 100000), InvalidArgument,
     "ranks must be >= 1, got [0, 0, 0, 0, 0, 0, 0, 0, ...] (100000 entries)"),
    # a string of more than 40 characters is quoted by its first 40 and its length
    ("parse-long-finite-list", lambda: FlipSet.parse("finite:" + "1," * 100000 + "x"), FlipSpecError,
     "bad finite flip list '" + "1," * 20 + "'... (200001 characters): bad position 'x'"),
    ("parse-long-finite-token", lambda: FlipSet.parse("finite:" + "1" * 300 + "x"), FlipSpecError,
     "bad finite flip list '" + "1" * 40 + "'... (301 characters): bad position '" + "1" * 40
     + "'... (301 characters)"),
    ("parse-long-unknown-spec", lambda: FlipSet.parse("mask" + "0" * 100000), FlipSpecError,
     "unknown flip spec 'mask" + "0" * 36 + "'... (100004 characters) (expected none, all, finite:..., mask:...)"),
    ("parse-long-mask-spec", lambda: FlipSet.parse("mask:" + "0" * 100000), FlipSpecError,
     "mask spec '" + "0" * 40 + "'... (100000 characters) needs 'PRE;PERIOD'"),
    ("parse-long-unknown-kind", lambda: FlipSet.parse("x" * 100000 + ":1"), FlipSpecError,
     "unknown flip kind '" + "x" * 40 + "'... (100000 characters)"),
    # arguments that reached a bare Python exception
    ("entropy-huge-alpha", lambda: entropy_sum(FlipSystem(ProbVector(("9/10", "1/10")), FlipSet.none()), 1e6, 1),
     InvalidArgument, "alpha 1000000.0 takes the entropy sum past the float range"),
    ("dimension-budget-past-maxsize", lambda: graph_dimension_estimate(PLAIN2, [0], 2**70), InvalidArgument,
     "ranks must be >= 1, got [0]"),
    ("sample-digits-rng", lambda: sample_digits(PV4, 3, 5), InvalidArgument, "rng must have a randrange method, got 5"),
    # a record of the wrong type, before any attribute of it is read
    ("classify-record", lambda: classify(Fraction(1, 3), None), InvalidArgument, "pv must be a ProbVector, got None"),
    ("encode-record", lambda: encode(Fraction(1, 3), None), InvalidArgument, "pv must be a ProbVector, got None"),
    ("shift-value-record", lambda: shift_value(Fraction(1, 3), None), InvalidArgument,
     "pv must be a ProbVector, got None"),
    ("jump-record", lambda: jump_at(Fraction(1, 2), None), InvalidArgument, "system must be a FlipSystem, got None"),
    ("jump-record-vector", lambda: jump_at(Fraction(1, 2), SYSTEM2.pv), InvalidArgument,
     "system must be a FlipSystem, got ProbVector((1/2, 1/2))"),
    ("p-rationals-record", lambda: p_rationals(None, 3), InvalidArgument, "pv must be a ProbVector, got None"),
    ("continuity-record", lambda: continuity_class(None), InvalidArgument, "flips must be a FlipSet, got None"),
    ("witness-record", lambda: monotone_witness(None, 3), InvalidArgument, "system must be a FlipSystem, got None"),
    ("derivative-record", lambda: derivative_estimate((0,) * 8, None, 4), InvalidArgument,
     "system must be a FlipSystem, got None"),
    ("closed-form-record", lambda: integral_closed_form(None), InvalidArgument,
     "system must be a FlipSystem, got None"),
    ("integral-series-record", lambda: integral_series(None), InvalidArgument,
     "system must be a FlipSystem, got None"),
    ("riemann-record", lambda: integral_riemann(None, 3), InvalidArgument, "system must be a FlipSystem, got None"),
    ("cylinder-image-record", lambda: cylinder_image((0,), None), InvalidArgument,
     "system must be a FlipSystem, got None"),
    ("eval-digits-record", lambda: eval_digits(DigitSeq((1,), 2), None), InvalidArgument,
     "pv must be a ProbVector, got None"),
    ("cylinder-bounds-record", lambda: cylinder_bounds((0,), None), InvalidArgument,
     "pv must be a ProbVector, got None"),
    ("bernoulli-cdf-record", lambda: bernoulli_cdf(Fraction(1, 3), None), InvalidArgument,
     "pv must be a ProbVector, got None"),
    ("sample-digits-record", lambda: sample_digits(None, 3, random.Random(1)), InvalidArgument,
     "pv must be a ProbVector, got None"),
    ("shift-digits-record", lambda: shift_digits((1, 0), 1), InvalidArgument, "seq must be a DigitSeq, got (1, 0)"),
    ("flip-digits-record", lambda: flip_digits(DigitSeq((1,), 2), "mask:;01"), InvalidArgument,
     "flips must be a FlipSet, got 'mask:;01'"),
    ("nega-to-digits-record", lambda: nega_to_digits((1, 0)), InvalidArgument, "seq must be a DigitSeq, got (1, 0)"),
    ("eval-flip-record", lambda: eval_flip(DigitSeq((1,), 2), PLAIN2.pv), InvalidArgument,
     "system must be a FlipSystem, got ProbVector((1/2, 1/2))"),
    ("flip-image-record", lambda: flip_image((0,), None), InvalidArgument, "system must be a FlipSystem, got None"),
    ("eval-nega-record", lambda: eval_nega(DigitSeq((1,), 2), None), InvalidArgument,
     "pv must be a ProbVector, got None"),
    ("eval-nega-record-seq", lambda: eval_nega((1, 0), PLAIN2.pv), InvalidArgument,
     "seq must be a DigitSeq, got (1, 0)"),
    ("ifs-maps-record", lambda: ifs_maps(None), InvalidArgument, "system must be a FlipSystem, got None"),
    ("graph-points-record", lambda: ifs_graph_points(None, 2), InvalidArgument,
     "system must be a FlipSystem, got None"),
    ("diagonals-record", lambda: rectangle_diagonals_sq(None, 2), InvalidArgument,
     "system must be a FlipSystem, got None"),
    ("entropy-record", lambda: entropy_sum(None, 1, 2), InvalidArgument, "system must be a FlipSystem, got None"),
    ("dimension-record", lambda: graph_dimension_estimate(None, [1]), InvalidArgument,
     "system must be a FlipSystem, got None"),
    ("moran-dimension-record", lambda: moran_dimension(None), InvalidArgument, "spec must be a MoranSpec, got None"),
    ("moran-cylinders-record", lambda: moran_set_cylinders(PV4, 3), InvalidArgument,
     "spec must be a MoranSpec, got ProbVector((1/4, 1/4, 1/4, 1/4))"),
    ("covering-record", lambda: covering_measure(FlipSet.none(), 3), InvalidArgument,
     "spec must be a MoranSpec, got FlipSet(kind=<FlipKind.NONE: 'none'>, preperiod=(), period=(False,))"),
    # the record is checked after the other arguments
    ("entropy-record-and-alpha", lambda: entropy_sum(None, -1, 2), InvalidArgument,
     "alpha must be finite and >= 0, got -1.0"),
    ("covering-record-and-rank", lambda: covering_measure(None, 0), InvalidArgument, "rank must be >= 1, got 0"),
    # the p_rationals list holds `count` Fractions: its count is budgeted
    ("p-rationals-budget", lambda: p_rationals(PLAIN2.pv, DEFAULT_BUDGET + 1), BudgetExceeded,
     "1048577 points exceed budget 1048576"),
    # the sample tuple holds `length` digits: its length is budgeted before any is drawn
    ("sample-digits-budget", lambda: sample_digits(PLAIN2.pv, 10**30, random.Random(0)), BudgetExceeded,
     "1000000000000000000000000000000 digits exceed budget 1048576"),
    # one block digit: one base at every rank, so the rank is budgeted on its own
    ("moran-cylinders-rank-budget", lambda: moran_set_cylinders(MORAN_ONE_BLOCK, 10**30), BudgetExceeded,
     "rank 1000000000000000000000000000000 exceeds budget 1048576"),
    ("covering-rank-budget", lambda: covering_measure(MORAN_ONE_BLOCK, 10**30), BudgetExceeded,
     "rank 1000000000000000000000000000000 exceeds budget 1048576"),
    # a 1031-digit tail under a 1033-bit mask period: the flipped word repeats only after their product
    ("eval-flip-period-budget", lambda: eval_flip(LONG_TAIL, FlipSystem(PLAIN2.pv, LONG_MASK)), BudgetExceeded,
     "common period 1065023 of the tail and the flip bits exceeds budget 1048576"),
    ("flip-digits-period-budget", lambda: flip_digits(LONG_TAIL, LONG_MASK), BudgetExceeded,
     "common period 1065023 of the tail and the flip bits exceeds budget 1048576"),
]

#: Every refusal message above is one short line
REFUSAL_MESSAGE_MAX = 200


@pytest.mark.parametrize("call, error, message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_refusal_class_and_message(call, error, message):
    with pytest.raises(ProbDigitsError) as raised:
        call()
    assert (type(raised.value), str(raised.value)) == (error, message)
    assert len(message) <= REFUSAL_MESSAGE_MAX


@pytest.mark.parametrize("row", ["eval-flip-period-budget", "flip-digits-period-budget"])
def test_flip_word_budget_refuses_before_any_letter(row):
    # the word would hold 1 065 023 letters: refused from the two lengths alone
    call = dict((case[0], case[1]) for case in REFUSALS)[row]
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        call()
    assert time.perf_counter() - start < 0.1


def test_shown_quotes_up_to_8_entries_in_full():
    for kind in (list, tuple):
        assert core._shown(kind(range(8))) == kind(range(8))
        shown = core._shown(kind(range(9)))
        assert str(shown) == repr(shown) == str(kind(range(8)))[:-1] + ", ..." + str(kind(()))[-1] + " (9 entries)"
    assert str(core._shown([10**5000] * 9)) == "[" + "<5001-digit integer>, " * 8 + "...] (9 entries)"


def test_shown_quotes_up_to_40_characters_in_full():
    assert core._shown("x" * 40) == "x" * 40
    for text in ("1," * 100000, "'" * 41):
        shown = core._shown(text)
        assert str(shown) == repr(shown) == f"{text[:40]!r}... ({len(text)} characters)"
    assert str(core._shown("1," * 100000)) == "'" + "1," * 20 + "'... (200000 characters)"


@pytest.mark.parametrize("digits", [1, 2, 99, 100, 101, 102, 4301, 5001])
def test_shown_quotes_up_to_100_digits_in_full(digits):
    for n in (10 ** (digits - 1), 10**digits - 1, -(10**digits - 1)):
        shown = core._shown(n)
        if digits <= 100:
            assert shown is n
        else:
            sign = "-" if n < 0 else ""
            assert (str(shown), repr(shown)) == (f"{sign}<{digits}-digit integer>",) * 2
    assert core._shown(Fraction(1, 7)) == Fraction(1, 7)
    den = 10 ** (digits - 1) + 1
    assert str(core._shown(Fraction(1, den))) == (f"1/{den}" if digits <= 100 else f"1/<{digits}-digit integer>")
