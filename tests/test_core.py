import math
import random
from fractions import Fraction

import pytest

from probdigits import (
    BaseTooSmall,
    DigitOutOfRange,
    DigitSeq,
    InvalidArgument,
    NonPositiveWeight,
    OutOfUnitInterval,
    PointKind,
    ProbVector,
    ShiftPastPrefix,
    SumNotOne,
    bernoulli_cdf,
    classify,
    cylinder_bounds,
    encode,
    eval_digits,
    make_prob_vector,
    shift_digits,
    shift_value,
)
from conftest import ASYM_VECTORS, random_fraction, random_seq


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
                d = pv.digit_for(states[n - 1])
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


def test_classify_orbit_oracle(uniform2):
    # 1/3 cycles 1/3 -> 2/3 -> 1/3 under the uniform shift
    assert shift_value(Fraction(1, 3), uniform2) == Fraction(2, 3)
    assert shift_value(Fraction(2, 3), uniform2) == Fraction(1, 3)


def test_classify_undetermined():
    pv = make_prob_vector([Fraction(1, 3), Fraction(2, 3)])
    pc = classify(Fraction(1, 2), pv, 24)
    assert pc.kind is PointKind.UNDETERMINED
    assert pc.depth == 24


# ---------------------------------------------------------------------------
# digit sequences as values
# ---------------------------------------------------------------------------

def test_digitseq_stream_equality():
    assert DigitSeq((1, 2, 0), 3) == DigitSeq((1, 2), 3)
    assert DigitSeq((1, 0, 0, 2), 3, (0, 2)) == DigitSeq((1, 0), 3, (0, 2))
    assert DigitSeq((1, 2, 0), 3) != DigitSeq((1, 2), 3, "max")
    assert DigitSeq((), 2, "max") == DigitSeq((1,), 2, "max")  # the number 1


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


def test_bernoulli_cdf_monotone(asym2):
    xs = [Fraction(k, 17) for k in range(18)]
    vals = [bernoulli_cdf(x, asym2) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


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


def test_digitseq_tail_block_reduces_to_primitive():
    assert DigitSeq((1,), 3, (0, 2, 0, 2)).tail == (0, 2)
    assert DigitSeq((1,), 3, (2, 2)).tail_kind == "max"
    assert DigitSeq((), 2, (1, 1)) == DigitSeq((1,), 2, "max")
