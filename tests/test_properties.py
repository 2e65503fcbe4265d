"""Property checks over random rational vectors, flip sets and digit streams.

Each property compares the library against a direct per-position reading of
the same object: the flip set's membership test, the stream's digit_at, or
the per-position weights and offsets of FlipSystem.
"""

from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from probdigits import (
    DigitSeq,
    Enclosure,
    FlipSet,
    FlipSystem,
    derivative_estimate,
    encode,
    eval_digits,
    eval_flip,
    flip_digits,
    flip_image,
    make_prob_vector,
)

bits = st.lists(st.booleans(), max_size=5).map(tuple)


@st.composite
def prob_vectors(draw, q=None):
    q = q or draw(st.integers(2, 5))
    weights = draw(st.lists(st.integers(1, 9), min_size=q, max_size=q))
    return make_prob_vector([Fraction(w, sum(weights)) for w in weights])


@st.composite
def flip_sets(draw):
    kind = draw(st.sampled_from(("none", "all", "finite", "mask", "eventually-zero")))
    if kind == "none":
        return FlipSet.none()
    if kind == "all":
        return FlipSet.all()
    if kind == "finite":
        return FlipSet.finite(draw(st.lists(st.integers(1, 12), max_size=4)))
    if kind == "eventually-zero":
        return FlipSet.mask(draw(bits), (False,) * draw(st.integers(1, 3)))
    # repeating a block gives non-primitive periods
    block = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    return FlipSet.mask(draw(bits), tuple(block) * draw(st.integers(1, 3)))


@st.composite
def digit_seqs(draw, q):
    digit = st.integers(0, q - 1)
    digits = draw(st.lists(digit, max_size=10))
    tail = draw(st.one_of(st.sampled_from(("zero", "max")), st.lists(digit, min_size=1, max_size=4)))
    return DigitSeq(digits, q, tail)


@st.composite
def systems_and_seqs(draw):
    pv = draw(prob_vectors())
    return FlipSystem(pv, draw(flip_sets())), draw(digit_seqs(pv.q))


def horizon(seq: DigitSeq, flips: FlipSet) -> int:
    """Positions past both preperiods and through two common periods."""
    return (max(len(seq.digits), len(flips.preperiod))
            + 2 * lcm(len(seq.tail), len(flips.period)) + 3)


def bit_of(pattern, i: int) -> bool:
    pre, per = pattern
    return pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)]


# ---------------------------------------------------------------------------
# flip sets
# ---------------------------------------------------------------------------

@given(flip_sets())
def test_str_parse_round_trip(flips):
    text = str(flips)
    assert FlipSet.parse(text) == flips
    assert str(FlipSet.parse(text)) == text


@given(flip_sets(), st.integers(1, 20))
def test_pattern_from_agrees_with_contains(flips, start):
    pattern = flips.pattern_from(start)
    span = len(pattern[0]) + 2 * len(pattern[1])
    assert [bit_of(pattern, i) for i in range(span)] == [flips.contains(start + i) for i in range(span)]


@given(flip_sets())
def test_min_position_is_first_flipped(flips):
    # every bit of the stream appears among the first len(preperiod) + len(period) positions
    first = [k for k in range(1, len(flips.preperiod) + len(flips.period) + 1) if flips.contains(k)]
    assert flips.min_position() == (first[0] if first else None)


# ---------------------------------------------------------------------------
# digit-level map
# ---------------------------------------------------------------------------

@given(systems_and_seqs())
def test_flip_digits_is_an_involution(case):
    system, seq = case
    assert flip_digits(flip_digits(seq, system.flips), system.flips) == seq


@given(systems_and_seqs())
def test_flip_digits_complements_exactly_the_flipped_positions(case):
    system, seq = case
    flips, top = system.flips, seq.q - 1
    flipped = flip_digits(seq, flips)
    for k in range(1, horizon(seq, flips) + 1):
        d = seq.digit_at(k)
        assert flipped.digit_at(k) == (top - d if flips.contains(k) else d)


# ---------------------------------------------------------------------------
# value-level map
# ---------------------------------------------------------------------------

def image_by_positions(base, system, offset) -> Enclosure:
    """The per-position hull: offsets and weights read from FlipSystem."""
    total = Fraction(0)
    weight = Fraction(1)
    for k, d in enumerate(base, start=1):
        total += weight * system.offset(k + offset, d)
        weight *= system.weight(k + offset, d)
    return Enclosure(total, total + weight)


@given(systems_and_seqs(), st.integers(0, 6), st.integers(0, 4))
def test_flip_image_matches_positions_and_holds_extensions(case, offset, cut):
    system, seq = case
    base = seq.digits[:cut]
    hull = flip_image(base, system, offset)
    assert hull == image_by_positions(base, system, offset)
    extension = DigitSeq(base + seq.digits, seq.q, seq.tail)
    assert hull.contains(eval_flip(extension, system, offset).value)


@given(systems_and_seqs(), st.integers(1, 8))
def test_derivative_ratios_are_weight_products(case, rank):
    system, seq = case
    prefix = [seq.digit_at(k) for k in range(1, rank + 1)]
    p = system.pv.p
    expected = []
    ratio = Fraction(1)
    for t, d in enumerate(prefix, start=1):
        ratio *= system.weight(t, d) / p[d]
        expected.append(ratio)
    assert list(derivative_estimate(prefix, system, rank).ratios) == expected


# ---------------------------------------------------------------------------
# numeral kernel
# ---------------------------------------------------------------------------

@given(prob_vectors().flatmap(lambda pv: st.tuples(st.just(pv), digit_seqs(pv.q))))
def test_encode_round_trips_on_p_rationals(case):
    pv, seq = case
    terminating = DigitSeq(seq.digits, pv.q)
    x = eval_digits(terminating, pv)
    encoded = encode(x, pv, len(seq.digits))
    assert encoded == terminating
    assert eval_digits(encoded, pv) == x
