import random
from fractions import Fraction

import pytest

from probdigits import (
    EVEN_POSITIONS,
    DigitSeq,
    FlipKind,
    FlipSet,
    FlipSpecError,
    FlipSystem,
    InvalidArgument,
    ProbVector,
    encode,
    eval_digits,
    eval_flip,
    eval_nega,
    flip_digits,
    flip_image,
    make_prob_vector,
    nega_to_digits,
    shift_digits,
)
from conftest import ASYM_VECTORS, random_seq

ALL_VARIANTS = [
    FlipSet.none(),
    FlipSet.all(),
    FlipSet.finite([2, 5]),
    FlipSet.mask((True, False), (False, True)),
]


# ---------------------------------------------------------------------------
# flip sets
# ---------------------------------------------------------------------------

def test_flipset_membership():
    fs = FlipSet.finite([5, 2])
    assert fs.positions == (2, 5)
    assert [k in fs for k in range(1, 7)] == [False, True, False, False, True, False]
    mask = FlipSet.mask((True,), (False, True))
    assert [mask.contains(k) for k in range(1, 8)] == [True, False, True, False, True, False, True]
    with pytest.raises(InvalidArgument):
        mask.contains(0)
    with pytest.raises(InvalidArgument):
        mask.pattern_from(0)


def test_flipset_normalization():
    assert FlipSet.finite([]) == FlipSet.none()
    assert FlipSet.mask((), (True,)) == FlipSet.all()
    assert FlipSet.mask((False,), (False,)) == FlipSet.none()
    assert FlipSet.mask((True, True), (True,)).kind is FlipKind.ALL


def test_flipset_parse_round_trip():
    for text in ("none", "all", "finite:2,5", "mask:10;01"):
        assert str(FlipSet.parse(text)) == text
    with pytest.raises(FlipSpecError):
        FlipSet.parse("finite:2,x")
    with pytest.raises(FlipSpecError):
        FlipSet.parse("mask:01")  # missing period separator
    with pytest.raises(FlipSpecError):
        FlipSet.parse("mask:;012")
    with pytest.raises(FlipSpecError):
        FlipSet.parse("sometimes")


def test_flipset_min_position():
    assert FlipSet.none().min_position() is None
    assert FlipSet.all().min_position() == 1
    assert FlipSet.finite([4, 9]).min_position() == 4
    assert FlipSet.mask((False, False), (False, True)).min_position() == 4
    assert EVEN_POSITIONS.min_position() == 2


# ---------------------------------------------------------------------------
# digit-level map
# ---------------------------------------------------------------------------

def test_flip_digits_examples():
    assert flip_digits(DigitSeq((0, 1), 2), FlipSet.all()) == DigitSeq((1, 0), 2, "max")
    seq = DigitSeq((1, 2, 0), 3)
    assert flip_digits(seq, FlipSet.none()) == seq
    assert flip_digits(seq, FlipSet.finite([2])) == DigitSeq((1, 0, 0), 3, "zero")


def test_flip_digits_positionwise_oracle():
    # compare the first 30 stream digits against a direct per-position map
    rng = random.Random(17)
    for fs in ALL_VARIANTS:
        for q in (2, 3, 4):
            for _ in range(10):
                seq = random_seq(rng, q)
                flipped = flip_digits(seq, fs)
                for k in range(1, 31):
                    d = seq.digit_at(k)
                    expect = q - 1 - d if fs.contains(k) else d
                    assert flipped.digit_at(k) == expect


def test_flip_involution():
    rng = random.Random(29)
    for fs in ALL_VARIANTS:
        for q in (2, 3):
            for _ in range(20):
                seq = random_seq(rng, q)
                assert flip_digits(flip_digits(seq, fs), fs) == seq


def test_flip_involution_periodic_tail_input():
    seq = DigitSeq((1,), 3, (0, 2))
    for fs in ALL_VARIANTS:
        assert flip_digits(flip_digits(seq, fs), fs) == seq


# ---------------------------------------------------------------------------
# value-level map
# ---------------------------------------------------------------------------

def test_eval_flip_identity_none(pv3):
    rng = random.Random(37)
    system = FlipSystem(pv3, FlipSet.none())
    for _ in range(30):
        seq = random_seq(rng, 3)
        enc = eval_flip(seq, system)
        assert enc.is_exact
        assert enc.value == eval_digits(seq, pv3)


def test_eval_flip_complement_binary(uniform2):
    system = FlipSystem(uniform2, FlipSet.all())
    assert eval_flip(encode(Fraction(1, 4), uniform2, 8), system).value == Fraction(3, 4)
    rng = random.Random(43)
    for _ in range(50):
        x = Fraction(rng.randint(0, 2**12), 2**12)
        seq = encode(x, uniform2, 16)
        assert eval_flip(seq, system).value == 1 - x


def test_eval_flip_finite_example(pv3):
    system = FlipSystem(pv3, FlipSet.finite([2]))
    seq = encode(Fraction(7, 20), pv3, 8)
    assert eval_flip(seq, system).value == Fraction(1, 5)


def test_eval_flip_equals_flipped_digits():
    # the two formulations of the map coincide on every input
    rng = random.Random(53)
    for fs in ALL_VARIANTS:
        for q in (2, 3):
            pv = ASYM_VECTORS[q]
            system = FlipSystem(pv, fs)
            for _ in range(25):
                seq = random_seq(rng, q)
                assert eval_flip(seq, system).value == eval_digits(flip_digits(seq, fs), pv)


def test_eval_flip_bounds():
    rng = random.Random(59)
    for fs in ALL_VARIANTS:
        system = FlipSystem(ASYM_VECTORS[3], fs)
        for _ in range(20):
            value = eval_flip(random_seq(rng, 3), system).value
            assert 0 <= value <= 1


# ---------------------------------------------------------------------------
# tail form (position offset)
# ---------------------------------------------------------------------------

def test_offset_zero_is_plain_eval():
    rng = random.Random(61)
    for fs in ALL_VARIANTS:
        system = FlipSystem(ASYM_VECTORS[2], fs)
        for _ in range(10):
            seq = random_seq(rng, 2)
            assert eval_flip(seq, system, offset=0) == eval_flip(seq, system)
        with pytest.raises(InvalidArgument):
            eval_flip(seq, system, offset=-1)


def test_offset_irrelevant_for_shift_invariant_flips():
    rng = random.Random(67)
    for fs in (FlipSet.none(), FlipSet.all()):
        system = FlipSystem(ASYM_VECTORS[3], fs)
        for _ in range(10):
            seq = random_seq(rng, 3)
            base = eval_flip(seq, system)
            assert all(eval_flip(seq, system, offset=n) == base for n in (1, 2, 5))


def test_offset_past_finite_flips_is_plain_eval(pv3):
    system = FlipSystem(pv3, FlipSet.finite([2]))
    rng = random.Random(71)
    for _ in range(10):
        seq = random_seq(rng, 3)
        assert eval_flip(seq, system, offset=2).value == eval_digits(seq, pv3)


def test_functional_equation_recursion():
    rng = random.Random(73)
    for fs in ALL_VARIANTS:
        for q in (2, 3):
            pv = ASYM_VECTORS[q]
            system = FlipSystem(pv, fs)
            for _ in range(10):
                digits = tuple(rng.randrange(q) for _ in range(10))
                seq = DigitSeq(digits, q, rng.choice(("zero", "max")))
                for n in range(1, 9):
                    lhs = eval_flip(shift_digits(seq, n - 1), system, offset=n - 1).value
                    d = seq.digit_at(n)
                    rhs = system.offset(n, d) + system.weight(n, d) * eval_flip(
                        shift_digits(seq, n), system, offset=n
                    ).value
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# image hull
# ---------------------------------------------------------------------------

def test_flip_image_contains_values(pv3):
    rng = random.Random(79)
    for fs in ALL_VARIANTS:
        system = FlipSystem(pv3, fs)
        for _ in range(15):
            base = tuple(rng.randrange(3) for _ in range(rng.randint(1, 6)))
            hull = flip_image(base, system)
            for tail in ("zero", "max"):
                assert hull.contains(eval_flip(DigitSeq(base, 3, tail), system).value)
            width = Fraction(1)
            for k, d in enumerate(base, start=1):
                width *= system.weight(k, d)
            assert hull.width == width


def test_cylinder_images_match_per_base_fractions():
    # the integer walk against per-base Fraction arithmetic, in lexicographic order
    from itertools import product

    from probdigits import cylinder_bounds
    from probdigits.flips import cylinder_images

    coprime = make_prob_vector(["2/7", "3/11", "34/77"])
    for pv in (ASYM_VECTORS[2], coprime):
        for fs in ALL_VARIANTS:
            system = FlipSystem(pv, fs)
            for rank in range(5):
                scale = pv.den ** rank
                walked = [tuple(Fraction(v, scale) for v in row) for row in cylinder_images(system, rank)]
                expected = []
                for base in product(range(pv.q), repeat=rank):
                    cyl = cylinder_bounds(base, pv)
                    hull = flip_image(base, system)
                    expected.append((cyl.lo, cyl.width, hull.lo, hull.width))
                assert walked == expected


# ---------------------------------------------------------------------------
# alternating expansion
# ---------------------------------------------------------------------------

def nega_reference(seq, pv, terms=120):
    """Literal truncation of the alternating series, with a crude tail bound."""
    q = pv.q
    first = pv.beta[seq.digit_at(1)]

    def weight(k, d):
        return pv.p[d] if k % 2 == 1 else pv.p[q - 1 - d]

    signed = Fraction(0)
    running = Fraction(1)
    for k in range(1, terms + 1):
        d = seq.digit_at(k)
        if k >= 2:
            if k % 2 == 0:
                delta = Fraction(1) if d == q - 1 else 1 - pv.beta[q - 1 - d]
                signed -= delta * running
            else:
                signed += pv.beta[d] * running
        running *= weight(k, d)
    correction = Fraction(0)
    running = Fraction(1)
    for k in range(1, terms + 1):
        running *= weight(k, seq.digit_at(k))
        if k % 2 == 1:
            correction += running
    bound = 3 * pv.max_p ** terms / (1 - pv.max_p)
    return first + signed + correction, bound


def test_eval_nega_all_zero_binary(uniform2):
    value = eval_nega(DigitSeq((0,), 2), uniform2).value
    assert value == Fraction(1, 3)
    assert value == eval_digits(DigitSeq((0, 1), 2, (0, 1)), uniform2)


def test_eval_nega_zero_leading_digit_drops_first_sum():
    pv = ASYM_VECTORS[3]
    seq = DigitSeq((0, 1, 2), 3)
    approx, bound = nega_reference(seq, pv)
    value = eval_nega(seq, pv).value
    assert abs(value - approx) <= bound
    assert pv.beta[0] == 0  # the leading offset vanishes for digit 0


def test_eval_nega_matches_reference():
    rng = random.Random(83)
    for q in (2, 3, 4):
        pv = ProbVector.uniform(q) if q == 4 else ASYM_VECTORS[q]
        for _ in range(15):
            seq = random_seq(rng, q)
            approx, bound = nega_reference(seq, pv)
            assert abs(eval_nega(seq, pv).value - approx) <= bound


def test_nega_to_digits_examples():
    flipped = nega_to_digits(DigitSeq((1, 1, 1), 2))
    assert [flipped.digit_at(k) for k in range(1, 4)] == [1, 0, 1]
    zeros = nega_to_digits(DigitSeq((0,), 3))
    assert [zeros.digit_at(k) for k in range(1, 7)] == [0, 2, 0, 2, 0, 2]


def test_nega_oracle_equivalence():
    rng = random.Random(89)
    for q in (2, 3, 4):
        pv = ProbVector.uniform(q) if q == 4 else ASYM_VECTORS[q]
        for _ in range(50):
            seq = random_seq(rng, q)
            assert eval_digits(nega_to_digits(seq), pv) == eval_nega(seq, pv).value


def test_nega_rational_duality_uniform3():
    # ...d [q-1] 0 [q-1] 0 ... == ...[d-1] 0 [q-1] 0 [q-1] ... at position 2
    pv = ProbVector.uniform(3)
    rng = random.Random(97)
    for _ in range(20):
        i1 = rng.randrange(3)
        i2 = rng.randint(1, 2)
        left = DigitSeq((i1, i2), 3, (2, 0))
        right = DigitSeq((i1, i2 - 1), 3, (0, 2))
        assert eval_nega(left, pv).value == eval_nega(right, pv).value
