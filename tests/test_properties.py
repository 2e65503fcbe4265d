"""Property checks over random rational vectors, flip sets and digit streams.

Each property compares the library against a direct per-position reading of
the same object: the flip set's membership test, the stream's digit_at, or
the per-position weights and offsets of FlipSystem.  The integer Horner
kernel is compared with the Fraction forms kept in conftest as oracles.
"""

import math
import pickle
from fractions import Fraction
from itertools import islice, product
from math import lcm
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import probdigits.analysis as analysis
import probdigits.fractal as fractal
from probdigits import (
    BudgetExceeded,
    DigitSeq,
    EVEN_POSITIONS,
    Enclosure,
    FlipKind,
    FlipSet,
    FlipSpecError,
    FlipSystem,
    PointClass,
    PointKind,
    ProbDigitsError,
    ProbVector,
    bernoulli_cdf,
    classify,
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
    integral_closed_form,
    integral_riemann,
    integral_series,
    jump_at,
    make_prob_vector,
    monotone_witness,
    nega_to_digits,
    rectangle_diagonals_sq,
    shift_value,
)
from probdigits.core import _horner, _lowest_terms, _walk
from probdigits.flips import _letters
from conftest import (
    bernoulli_cdf_by_digits,
    block_table_by_levels,
    count_groups_by_words,
    cylinder_by_fractions,
    diagonal_multiset,
    diagonals_by_walk,
    dimension_by_bisection,
    eval_digits_by_horner,
    eval_flip_by_digits,
    eval_nega_by_fractions,
    expected_terms,
    flip_outcome,
    horner_sum,
    integral_by_horner_sum,
    integral_series_by_fractions,
    jump_at_by_two_walks,
    monotone_witness_by_search,
    orbit_by_fractions,
    riemann_by_walk,
    series_by_fractions,
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


@given(st.sampled_from(FlipKind), st.lists(st.booleans(), max_size=4), st.lists(st.booleans(), max_size=3))
def test_raw_flip_set_is_refused_or_round_trips(kind, preperiod, period):
    # the raw constructor checks as the named ones do: a record it builds
    # prints as a spec that parses back to it, and _replace rebuilds it
    try:
        flips = FlipSet(kind, preperiod, period)
    except FlipSpecError:
        return
    assert FlipSet.parse(str(flips)) == flips
    assert flips._replace() == flips


@given(flip_sets(), st.integers(1, 20))
def test_pattern_from_agrees_with_contains(flips, start):
    pattern = flips.pattern_from(start)
    span = len(pattern[0]) + 2 * len(pattern[1])
    assert [bit_of(pattern, i) for i in range(span)] == [flips.contains(start + i) for i in range(span)]


@given(flip_sets(), st.integers(0, 30))
def test_bits_stream_agrees_with_contains(flips, n):
    assert list(islice(flips.bits(), n)) == [flips.contains(k) for k in range(1, n + 1)]


@given(flip_sets())
def test_min_position_is_first_flipped(flips):
    # every bit of the stream appears among the first len(preperiod) + len(period) positions
    first = [k for k in range(1, len(flips.preperiod) + len(flips.period) + 1) if flips.contains(k)]
    assert flips.min_position() == (first[0] if first else None)


# ---------------------------------------------------------------------------
# the flip table and its letters
# ---------------------------------------------------------------------------

TABLE_VECTOR = make_prob_vector(["1/5", "3/10", "1/2"])


@given(prob_vectors(), flip_sets())
@example(TABLE_VECTOR, FlipSet.none())
@example(TABLE_VECTOR, FlipSet.all())
@example(TABLE_VECTOR, FlipSet.finite([2, 3]))
@example(TABLE_VECTOR, FlipSet.mask((True,), (False, True)))
def test_flip_table_letters_read_the_fraction_route(pv, flips):
    # over one preperiod and one period every bit of the stream occurs: at
    # position k, letter d + q * bit of the flip table, read over D, is the
    # offset and the weight of digit d that FlipSystem reads in Fractions
    system = FlipSystem(pv, flips)
    den, beta, p = pv._flip_table
    q = pv.q
    assert len(beta) == len(p) == 2 * q
    for k in range(1, len(flips.preperiod) + len(flips.period) + 1):
        for d in range(q):
            letter = d + q if flips.contains(k) else d
            assert (Fraction(beta[letter], den), Fraction(p[letter], den)) == (system.offset(k, d), system.weight(k, d))


@given(systems_and_seqs(), st.integers(0, 6))
def test_letters_spell_every_position(case, offset):
    # the prefix, then the cycle repeated: digit d at position k is letter d,
    # or q + d where the pattern's bit is set
    system, seq = case
    pattern = system.flips.pattern_from(offset + 1)
    prefix, cycle = _letters(seq, pattern)
    q = seq.q
    for i in range(horizon(seq, system.flips) + offset):
        letter = prefix[i] if i < len(prefix) else cycle[(i - len(prefix)) % len(cycle)]
        assert letter == seq.digit_at(i + 1) + (q if bit_of(pattern, i) else 0)


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


# ---------------------------------------------------------------------------
# integer Horner kernel against the Fraction oracles
# ---------------------------------------------------------------------------

@st.composite
def family_vectors(draw, dens=(16, 64, 256, 77, 91, 143, 1001), qs=None):
    """q in 2..5 (or drawn from qs) weights over one of dens: by default a
    dyadic denominator or a product of odd primes."""
    q = draw(st.sampled_from(qs)) if qs else draw(st.integers(2, 5))
    den = draw(st.sampled_from(dens))
    cuts = draw(st.lists(st.integers(1, den - 1), min_size=q - 1, max_size=q - 1, unique=True))
    edges = [0, *sorted(cuts), den]
    return make_prob_vector([Fraction(b - a, den) for a, b in zip(edges, edges[1:])])


@st.composite
def long_seqs(draw, q):
    digit = st.integers(0, q - 1)
    digits = draw(st.lists(digit, max_size=64))
    tail = draw(st.one_of(st.sampled_from(("zero", "max")), st.lists(digit, min_size=1, max_size=6)))
    return DigitSeq(digits, q, tail)


vectors_and_seqs = family_vectors().flatmap(lambda pv: st.tuples(st.just(pv), long_seqs(pv.q)))
# the series needs about log(1/tol) / (1 - w_max) terms, so a weight near 1
# (w_max near 1) would make the Fraction oracle run for minutes at tol 1e-30
series_vectors = family_vectors().filter(lambda pv: pv.max_p <= Fraction(3, 4))
tolerances = st.integers(1, 30).map(lambda e: Fraction(1, 10**e))


@given(vectors_and_seqs)
def test_kernel_eval_digits_matches_horner_sum(case):
    pv, seq = case
    assert eval_digits(seq, pv) == eval_digits_by_horner(seq, pv)


@given(vectors_and_seqs)
def test_kernel_cylinder_matches_reversed_horner(case):
    pv, seq = case
    cyl = cylinder_bounds(seq.digits, pv)
    assert cyl.base == seq.digits
    assert (cyl.lo, cyl.hi) == cylinder_by_fractions(seq.digits, pv)


@given(family_vectors(), st.integers(1, 3000), st.integers(-1, 3001))
def test_kernel_bernoulli_cdf_matches_long_division(pv, den, num):
    x = Fraction(num, den)
    assert bernoulli_cdf(x, pv) == bernoulli_cdf_by_digits(x, pv)


@st.composite
def orbit_points(draw, pv):
    """0, 1, the value of an address (a p-rational for a zero or max tail, a
    repeating orbit for a non-constant one), or num/den with den = D**e * m,
    D = pv.den: m = 1 keeps x in Z[1/D], m = 2, 7, 11, 13 share a prime with
    some family denominators, m = 3, 5, 17 with none."""
    kind = draw(st.sampled_from(("other", "address", "zero", "one")))
    if kind == "zero":
        return Fraction(0)
    if kind == "one":
        return Fraction(1)
    if kind == "address":
        return eval_digits(draw(digit_seqs(pv.q)), pv)
    den = pv.den ** draw(st.integers(0, 3)) * draw(st.sampled_from((1, 2, 3, 5, 7, 11, 13, 17)))
    return Fraction(draw(st.integers(0, den)), den)


ORBIT_DEPTH = 64
# uniform vectors (D = q) add repeating orbits of num/den points, as 1/3 in base 2
orbit_vectors = st.one_of(family_vectors(), st.integers(2, 5).map(ProbVector.uniform))


# q >= 17: no block holds two digits, so encode walks one digit per step
large_alphabets = st.one_of(family_vectors((1001,), (17, 20)), st.just(ProbVector.uniform(300)))
V17 = make_prob_vector([Fraction(c + 1, 153) for c in range(17)])
V300 = make_prob_vector([Fraction(1, 600)] * 150 + [Fraction(1, 200)] * 150)
# classify's certificate past step N: digit 2 of V932 (weight 16/32) cannot grow
# the part of a state's denominator prime to D, and no digit of V244 can
V932 = make_prob_vector(["9/32", "7/32", "1/2"])
V244 = make_prob_vector(["1/2", "1/4", "1/4"])
V14 = make_prob_vector(["1/4", "3/4"])
V252 = make_prob_vector(["2/5", "1/5", "2/5"])


@given(st.one_of(orbit_vectors, large_alphabets).flatmap(lambda pv: st.tuples(st.just(pv), orbit_points(pv))))
@example((V17, Fraction(1, 3)))
@example((V17, eval_digits(DigitSeq((16, 0, 5, 1), 17), V17)))
@example((ProbVector.uniform(20), Fraction(7, 400)))
@example((ProbVector.uniform(20), Fraction(1, 1)))
@example((V300, Fraction(2, 7)))
@example((V300, Fraction(449, 600)))
@example((V932, Fraction(1, 3)))
@example((V932, eval_digits(DigitSeq((2, 1) * 31 + (0,), 3, (2, 0)), V932)))
@example((V244, Fraction(1, 3)))
@example((V244, Fraction(1, 5)))
# eventually periodic addresses whose first repeat is at step 63, 64 and 65
@example((V14, eval_digits(DigitSeq((1,) * 60 + (0,), 2, (0, 1)), V14)))
@example((V14, eval_digits(DigitSeq((1,) * 61 + (0,), 2, (0, 1)), V14)))
@example((V14, eval_digits(DigitSeq((1,) * 62 + (0,), 2, (0, 1)), V14)))
# the fixed point 1/2 of digit 1, reached at step 61 and 63: the first repeat,
# at step N = 62 or 64, starts at step N - 1, the latest step it can start at,
# and digit 0 (weight 2/5) grows the prime-to-5 part of the state to the 2 of
# 1/2; for N = 62 the 5-digit block end N - 2 comes before that step
@example((V252, eval_digits(DigitSeq((2,) * 60 + (0,), 3, (1,)), V252)))
@example((V252, eval_digits(DigitSeq((2,) * 62 + (0,), 3, (1,)), V252)))
# orbits that reach 0 at step 60 and 65, inside a 5-digit block that for some
# depths N ends past N: P_RATIONAL only where that step is at most N
@example((V252, eval_digits(DigitSeq((1,) * 59 + (2,), 3), V252)))
@example((V252, eval_digits(DigitSeq((1,) * 64 + (2,), 3), V252)))
def test_kernel_orbit_matches_the_fraction_orbit(case):
    pv, x = case
    digits, states = orbit_by_fractions(x, pv, ORBIT_DEPTH)
    assert shift_value(x, pv) == states[1]
    if x == 1:
        # 1 is written with the max tail and has two expansions
        assert encode(x, pv, ORBIT_DEPTH) == DigitSeq((pv.q - 1,), pv.q, "max")
        for max_depth in range(ORBIT_DEPTH + 1):
            assert classify(x, pv, max_depth) == PointClass(PointKind.P_RATIONAL)
        return
    # encode: the digits until the orbit reaches 0
    stop = states.index(0) if 0 in states else ORBIT_DEPTH
    # classify: decided at the first state that is 0 or repeats an earlier one
    decided = next(((k, PointKind.P_RATIONAL if s == 0 else PointKind.P_IRRATIONAL)
                    for k, s in enumerate(states) if s == 0 or s in states[:k]), (ORBIT_DEPTH + 1, None))
    for depth in range(ORBIT_DEPTH + 1):
        encoded = encode(x, pv, depth)
        assert encoded.digits == tuple(digits[:min(stop, depth)]) and encoded.tail == (0,)
        expected = PointClass(decided[1]) if decided[0] <= depth else PointClass(PointKind.UNDETERMINED, depth)
        assert classify(x, pv, depth) == expected


WALK_DEPTH = 200


@st.composite
def walk_points(draw, pv):
    """k / (D**j * m) in [0, 1) with D = pv.den: m = 1 stays in Z[1/D], and
    the other m share some or none of D's primes."""
    den = pv.den ** draw(st.integers(0, 3)) * draw(st.sampled_from((1, 2, 3, 4, 7, 9, 11, 25, 49)))
    return Fraction(draw(st.integers(0, den - 1)), den)


# denominators with a repeated prime, such as 2**5 * 3**3, 3**4 or 10**3;
# uniform vectors over 2**2, 2**3 and 3**2 add repeating orbits
walk_vectors = st.one_of(family_vectors((16, 72, 81, 864, 1000, 2**3 * 7**2, 11**2 * 13)),
                         st.sampled_from((4, 8, 9)).map(ProbVector.uniform))


@given(walk_vectors.flatmap(lambda pv: st.tuples(st.just(pv), walk_points(pv))))
def test_walk_states_are_the_reduced_fraction_orbit(case):
    pv, x = case
    table = pv.int_table
    digits, states = orbit_by_fractions(x, pv, WALK_DEPTH)
    # one step at a time: each pair is the reduced state, until state 0
    a, b = x.numerator, x.denominator
    for k in range(WALK_DEPTH):
        if a == 0:
            break
        step, _, a, b = _walk(a, b, table, 1)
        assert step == [digits[k]]
        state = states[k + 1]
        assert a == 0 if state == 0 else (a, b) == (state.numerator, state.denominator)
    # the whole walk reads the same digits and ends on the same pair
    walked, end, *last = _walk(x.numerator, x.denominator, table, WALK_DEPTH)
    assert walked == digits[:len(walked)] and last == [a, b]
    assert end is (PointKind.P_RATIONAL if a == 0 else PointKind.UNDETERMINED)
    # watching for repeats, it ends at the first state that is 0 or repeats
    first = {}
    for k, s in enumerate(states):
        if s == 0 or s in first:
            expected = (k, PointKind.P_RATIONAL if s == 0 else PointKind.P_IRRATIONAL)
            break
        first[s] = k
    else:
        expected = (WALK_DEPTH, PointKind.UNDETERMINED)
    walked, end, _, _ = _walk(x.numerator, x.denominator, table, WALK_DEPTH, watch=True)
    assert (len(walked), end) == expected


# the bench's alphabets, over dyadic denominators and products of two odd primes
block_vectors = family_vectors((16, 32, 64, 128, 256, 77, 91, 143), (2, 3, 5, 10))


@st.composite
def block_walks(draw):
    """A vector, a point and a depth in 0 .. 4k - 1 for the block walk (k
    digits per block): a walk_points point, or the value of a terminating
    address of j digits, whose orbit reaches 0 after exactly j steps, with j
    inside a block or at a block boundary."""
    pv = draw(block_vectors)
    k = pv._block_table().k
    kind = draw(st.sampled_from(("other", "inside", "boundary")))
    if kind == "other":
        x = draw(walk_points(pv))
    else:
        whole = draw(st.integers(0, 3))
        j = k * (whole + 1) if kind == "boundary" else k * whole + draw(st.integers(1, k - 1))
        digit = st.integers(0, pv.q - 1)
        digits = draw(st.lists(digit, min_size=j - 1, max_size=j - 1)) + [draw(st.integers(1, pv.q - 1))]
        x = eval_digits(DigitSeq(digits, pv.q), pv)
    return pv, x, draw(st.integers(0, 4 * k - 1))


@given(block_walks())
def test_block_walk_matches_single_steps_and_the_fraction_orbit(case):
    pv, x, depth = case
    table = pv.int_table
    k, block_table, words = pv._block_table()
    assert pv.q ** k <= 256 < pv.q ** (k + 1)
    # repeated one-step walks, until state 0 or the depth
    a, b = x.numerator, x.denominator
    stepped, pairs = [], [(a, b)]
    while len(stepped) < depth and a != 0:
        step, _, a, b = _walk(a, b, table, 1)
        stepped += step
        pairs.append((a, b))
    # a block step is k single steps: j of them read the first j*k digits and
    # reach the same reduced pair, for each j*k before state 0
    for j in range(depth // k + 1):
        n = j * k
        if n >= len(pairs) or pairs[n][0] == 0:
            break
        cells, _, *pair = _walk(x.numerator, x.denominator, block_table, j)
        assert b"".join([words[i * k:i * k + k] for i in cells]) == bytes(stepped[:n])
        assert tuple(pair) == pairs[n]
    assert encode(x, pv, depth).digits == tuple(stepped)
    # the Fraction orbit reads the same digits and reaches the same state
    digits, states = orbit_by_fractions(x, pv, depth)
    assert stepped == digits[:len(stepped)]
    state = states[len(stepped)]
    assert a == 0 if state == 0 else (a, b) == (state.numerator, state.denominator)


@given(family_vectors(qs=tuple(range(2, 17))))
def test_block_table_folds_each_word_as_the_levels_do(pv):
    # q 2..16 over dyadic denominators and products of odd primes
    assert pv._block_table() == block_table_by_levels(pv.int_table)


@given(systems_and_seqs(), st.integers(-1, 5), st.booleans())
def test_kernel_eval_flip_matches_the_flip_digits_route(case, offset, mismatch):
    system, seq = case
    if mismatch:
        seq = DigitSeq(seq.digits, seq.q + 1, seq.tail)
    assert flip_outcome(eval_flip, seq, system, offset) == flip_outcome(eval_flip_by_digits, seq, system, offset)


# drawn letters are taken mod q, so one strategy serves every alphabet
nega_letters = st.integers(0, 299)


@pytest.mark.parametrize("tail", ["zero", "max", "odd", "even"])
@pytest.mark.parametrize("prefix", ["empty", "digits"])
@given(pv=st.one_of(family_vectors(), large_alphabets), digits=st.lists(nega_letters, min_size=1, max_size=24),
       block=st.lists(nega_letters, min_size=1, max_size=6))
# an odd- and an even-length prefix under a tail of period 3: the series
# closes over a cycle of 6 positions, which starts at an even and at an odd one
@example(pv=V17, digits=[3, 16, 0], block=[5, 1, 9])
@example(pv=V300, digits=[299, 0], block=[7, 150, 2])
def test_kernel_eval_nega_matches_the_fraction_pieces(prefix, tail, pv, digits, block):
    digits = () if prefix == "empty" else tuple([d % pv.q for d in digits])
    if tail in ("zero", "max"):
        seq = DigitSeq(digits, pv.q, tail)
    else:
        seq = DigitSeq(digits, pv.q, [d % pv.q for d in block])
        # a block that repeats a shorter one reduces to it
        assume(len(seq.tail) == len(block) and len(block) % 2 == (tail == "odd"))
    value = eval_nega(seq, pv)
    assert (value.lo == value.hi == eval_nega_by_fractions(seq, pv) == eval_digits(nega_to_digits(seq), pv)
            == eval_flip(seq, FlipSystem(pv, EVEN_POSITIONS)).value)


@given(prob_vectors())
def test_vector_tables_match_the_fraction_entries(pv):
    # the expectation table over D**2: letter b is the flip bit, read per digit from FlipSystem
    den, offsets, weights = pv._expected_table
    assert den == pv.den ** 2
    for bit, flips in enumerate((FlipSet.none(), FlipSet.all())):
        [(v, w)] = expected_terms(FlipSystem(pv, flips), 1)
        assert (Fraction(offsets[bit], den), Fraction(weights[bit], den)) == (v, w)
    # the flip table over D, which eval_flip and eval_nega read: letter d is
    # digit d at an unflipped position, letter q + d at a flipped one, read
    # per digit from FlipSystem at position 1
    den, offsets, weights = pv._flip_table
    assert den == pv.den and len(offsets) == len(weights) == 2 * pv.q
    for letter, flips in ((0, FlipSet.none()), (pv.q, FlipSet.all())):
        system = FlipSystem(pv, flips)
        for d in range(pv.q):
            assert Fraction(offsets[letter + d], den) == system.offset(1, d)
            assert Fraction(weights[letter + d], den) == system.weight(1, d)


def jump_outcome(jump, x, system, max_depth):
    """The report, or the type and message of the ProbDigitsError raised."""
    try:
        return jump(x, system, max_depth)
    except ProbDigitsError as exc:
        return type(exc), str(exc)


@st.composite
def jump_points(draw, pv):
    """A two-expansion point (a terminating address whose last digit is
    nonzero), an orbit_points point, or a rational in [-1, 2]."""
    kind = draw(st.sampled_from(("two-expansion", "orbit", "any")))
    if kind == "two-expansion":
        digits = draw(st.lists(st.integers(0, pv.q - 1), max_size=16)) + [draw(st.integers(1, pv.q - 1))]
        return eval_digits(DigitSeq(digits, pv.q), pv)
    if kind == "orbit":
        return draw(orbit_points(pv))
    return draw(st.fractions(-1, 2, max_denominator=60))


V10 = make_prob_vector([Fraction(c + 1, 55) for c in range(10)])
# a rank-64 point of V14: the walk reaches 0 at step 64
V14_RANK64 = eval_digits(DigitSeq((1, 0) * 31 + (1, 1), 2), V14)


@settings(max_examples=300)
@given(orbit_vectors.flatmap(lambda pv: st.tuples(st.just(pv), jump_points(pv))),
       flip_sets(), st.integers(0, ORBIT_DEPTH))
# the last digit at a flipped position: rank 2 under the paper's map
@example((V14, eval_digits(DigitSeq((0, 1), 2), V14)), FlipSet.parse("mask:;01"), ORBIT_DEPTH)
# a finite set that flips past the point's rank 3
@example((V14, eval_digits(DigitSeq((1, 0, 1), 2), V14)), FlipSet.parse("finite:9"), ORBIT_DEPTH)
# a preperiod of 3 bits past a rank-2 address: the tails start inside it
@example((V14, eval_digits(DigitSeq((1, 1), 2), V14)), FlipSet.parse("mask:110;0101"), ORBIT_DEPTH)
@example((V10, eval_digits(DigitSeq((3, 7, 2), 10), V10)), FlipSet.parse("mask:;01"), ORBIT_DEPTH)
# 0 reached at step max_depth, then one step past it (undetermined)
@example((V14, V14_RANK64), FlipSet.parse("mask:;01"), 64)
@example((V14, V14_RANK64), FlipSet.parse("mask:;01"), 63)
# the refusals: 1/13 repeats (p-irrational), 1/7 is not decided by step 64
@example((V14, Fraction(1, 13)), FlipSet.parse("mask:;01"), ORBIT_DEPTH)
@example((V14, Fraction(1, 7)), FlipSet.parse("mask:;01"), ORBIT_DEPTH)
def test_one_walk_jump_at_matches_the_two_walk_oracle(case, flips, max_depth):
    pv, x = case
    system = FlipSystem(pv, flips)
    assert jump_outcome(jump_at, x, system, max_depth) == jump_outcome(jump_at_by_two_walks, x, system, max_depth)


@given(series_vectors, flip_sets(), tolerances)
def test_kernel_integral_series_matches_fraction_loop(pv, flips, tol):
    system = FlipSystem(pv, flips)
    enc = integral_series(system, tol)
    assert (enc.lo, enc.hi) == integral_series_by_fractions(system, tol)


@given(series_vectors, flip_sets(), tolerances)
def test_integral_series_budget_counts_the_terms_summed(pv, flips, tol):
    # the term count is found in floating point before summing: within one of the Fraction loop's
    system = FlipSystem(pv, flips)
    terms = series_by_fractions(system, tol)[2]
    with patch.object(analysis, "DEFAULT_BUDGET", terms + 1):
        integral_series(system, tol)
    if terms > 2:
        with patch.object(analysis, "DEFAULT_BUDGET", terms - 2), pytest.raises(BudgetExceeded):
            integral_series(system, tol)


@st.composite
def block_flip_sets(draw):
    """Eventually periodic flip sets with periods of length 1 up to 7."""
    pre = draw(st.lists(st.booleans(), max_size=6))
    period = draw(st.lists(st.booleans(), min_size=1, max_size=7))
    return FlipSet.mask(pre, period)


@given(family_vectors(), st.one_of(flip_sets(), block_flip_sets()))
def test_partial_sum_by_period_blocks_matches_the_term_by_term_sum(pv, flips):
    # every k through the preperiod, on and just past period boundaries, over three periods
    system = FlipSystem(pv, flips)
    total = Fraction(0)
    weight = Fraction(1)
    for k in range(1, len(flips.preperiod) + 3 * len(flips.period) + 3):
        # expected offset and weight at position k, read per digit from FlipSystem
        total += weight * sum(p * system.offset(k, d) for d, p in enumerate(pv.p))
        weight *= sum(p * system.weight(k, d) for d, p in enumerate(pv.p))
        num, w, scale = analysis._partial_sum(system, k)
        assert scale == pv.den ** (2 * k)
        assert (Fraction(num, scale), Fraction(w, scale)) == (total, weight)


@given(series_vectors, flip_sets(), st.sampled_from((Fraction(1), Fraction(3), Fraction(10**6))))
def test_integral_series_at_tol_one_or_more(pv, flips, tol):
    # every tail bound is at most v_max * w_max / (1 - w_max) <= 3 when max_p <= 3/4
    system = FlipSystem(pv, flips)
    lo, hi, terms = series_by_fractions(system, tol)
    enc = integral_series(system, tol)
    assert (enc.lo, enc.hi) == (lo, hi)
    if tol >= 3:
        assert terms == 1


@given(series_vectors, flip_sets(), st.integers(1, 40))
def test_integral_series_at_a_tol_equal_to_a_tail_bound(pv, flips, k):
    # the stop test holds with equality at term k, and so k is the first term it holds at
    system = FlipSystem(pv, flips)
    top = pv.q - 1
    v_max = max(sum(p * pv.beta[d] for d, p in enumerate(pv.p)), sum(p * pv.beta[top - d] for d, p in enumerate(pv.p)))
    w_max = max(sum(p * p for p in pv.p), sum(p * pv.p[top - d] for d, p in enumerate(pv.p)))
    weight = Fraction(1)
    for j in range(1, k + 1):
        weight *= sum(p * system.weight(j, d) for d, p in enumerate(pv.p))
    tol = v_max * weight / (1 - w_max)
    lo, hi, terms = series_by_fractions(system, tol)
    assert terms == k
    enc = integral_series(system, tol)
    assert (enc.lo, enc.hi) == (lo, hi)


@given(series_vectors, flip_sets(), tolerances, st.integers(-6, 6))
def test_integral_series_steps_to_the_first_term_from_a_wrong_estimate(pv, flips, tol, miss):
    system = FlipSystem(pv, flips)
    lo, hi, terms = series_by_fractions(system, tol)
    with patch.object(analysis, "_series_length", lambda *_: max(1, terms + miss)):
        enc = integral_series(system, tol)
    assert (enc.lo, enc.hi) == (lo, hi)


@given(prob_vectors(), st.one_of(flip_sets(), block_flip_sets()), st.integers(1, 5))
def test_integral_riemann_matches_the_walk(pv, flips, rank):
    system = FlipSystem(pv, flips)
    enc = integral_riemann(system, rank)
    assert (enc.lo, enc.hi) == riemann_by_walk(system, rank)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

@given(series_vectors, flip_sets(), st.integers(1, 8), tolerances)
def test_riemann_and_series_enclosures_intersect(pv, flips, rank, tol):
    system = FlipSystem(pv, flips)
    series = integral_series(system, tol)
    riemann = integral_riemann(system, rank)
    assert series.intersects(riemann)
    if system.shift_invariant:
        exact = integral_closed_form(system)
        assert series.contains(exact) and riemann.contains(exact)


#: none, all, finite, or a mask of up to 7 + 7 bits
integral_flip_sets = st.one_of(flip_sets(), st.builds(
    FlipSet.mask, st.lists(st.booleans(), max_size=7), st.lists(st.booleans(), min_size=1, max_size=7)))


@given(st.one_of(prob_vectors(), series_vectors), integral_flip_sets)
def test_period_block_limit_is_the_exact_integral(pv, flips):
    # the flip bits of the preperiod and the period, as letters of the expectation table
    system = FlipSystem(pv, flips)
    exact = _horner(pv._expected_table, flips.preperiod, flips.period)
    assert exact == integral_by_horner_sum(system)
    for tol in (Fraction(1, 10**12), Fraction(1, 10**30)):
        assert integral_series(system, tol).contains(exact)
    for rank in range(1, 9):
        assert integral_riemann(system, rank).contains(exact)
    if system.shift_invariant:
        assert exact == integral_closed_form(system)


@given(st.integers(2, 6).flatmap(prob_vectors), flip_sets(), st.integers(1, 8))
def test_monotone_witness_is_the_first_pair_of_the_search(pv, flips, rank):
    system = FlipSystem(pv, flips)
    assert monotone_witness(system, rank) == monotone_witness_by_search(system, rank)


@given(prob_vectors().flatmap(lambda pv: st.tuples(st.just(pv), digit_seqs(pv.q))),
       flip_sets(), st.integers(0, 4), st.integers(1, 4))
def test_jump_limits_lie_in_the_flip_images_of_both_addresses(case, flips, k, last):
    pv, seq = case
    # a two-expansion point: a terminating address with a nonzero last digit
    digits = seq.digits + (min(last, pv.q - 1),)
    system = FlipSystem(pv, flips)
    report = jump_at(eval_digits(DigitSeq(digits, pv.q), pv), system)
    max_base = digits[:-1] + (digits[-1] - 1,)
    assert flip_image(digits + (0,) * k, system).contains(report.right_limit)
    assert flip_image(max_base + (pv.q - 1,) * k, system).contains(report.left_limit)


# ---------------------------------------------------------------------------
# q**rank enumerations against the cylinder walk
# ---------------------------------------------------------------------------

ranks = st.integers(0, 6)


@given(prob_vectors(), flip_sets(), ranks)
def test_grouped_diagonals_match_the_cylinder_walk(pv, flips, rank):
    system = FlipSystem(pv, flips)
    pairs = rectangle_diagonals_sq(system, rank)
    assert diagonal_multiset(pairs) == diagonal_multiset(diagonals_by_walk(system, rank))
    flipped = sum(flips.contains(k) for k in range(1, rank + 1))
    q = pv.q
    assert len(pairs) == math.comb(flipped + q - 1, q - 1) * math.comb(rank - flipped + q - 1, q - 1)


@given(st.integers(2, 12), st.integers(0, 7), st.data())
def test_count_groups_match_the_words(q, total, data):
    # the same groups in the same order as counting every word; py may be px
    # itself, whose power tables the builder shares
    assume(q ** total <= 20000)
    weights = st.lists(st.integers(1, 1000), min_size=q, max_size=q)
    px = data.draw(weights)
    py = px if data.draw(st.booleans()) else data.draw(weights)
    assert fractal._count_groups(total, px, py) == count_groups_by_words(total, px, py)


@given(flip_sets(), st.integers(0, 40))
def test_group_count_reads_the_flip_bits(flips, rank):
    # past the preperiod too: q = 2 builds (a + 1) * (b + 1) groups
    pairs = rectangle_diagonals_sq(FlipSystem(make_prob_vector(["1/3", "2/3"]), flips), rank)
    flipped = sum(flips.contains(k) for k in range(1, rank + 1))
    assert len(pairs) == (flipped + 1) * (rank - flipped + 1)


@given(prob_vectors(), flip_sets(), st.integers(1, 6), st.floats(0, 3))
def test_entropy_sum_matches_the_cylinder_walk(pv, flips, rank, alpha):
    system = FlipSystem(pv, flips)
    expected = math.fsum(float(d2) ** (alpha / 2) for _, d2 in diagonals_by_walk(system, rank))
    assert entropy_sum(system, alpha, rank) == pytest.approx(expected, rel=1e-12)


@st.composite
def dimension_vectors(draw):
    """Weights over q in {2, 3, 5} with a dyadic or a coprime denominator."""
    q = draw(st.sampled_from((2, 3, 5)))
    den = draw(st.sampled_from((8, 64, 1024, 77, 91, 143, 1001)))
    cuts = sorted(draw(st.lists(st.integers(1, den - 1), min_size=q - 1, max_size=q - 1, unique=True)))
    return make_prob_vector([Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])])


@settings(max_examples=60, deadline=None)
@given(dimension_vectors(), st.sampled_from((FlipSet.none(), FlipSet.all())),
       st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True).map(sorted),
       st.one_of(st.just(math.sqrt(2.0)), st.floats(0.1, 10.0)))
def test_dimension_equals_the_bisection_of_every_step(pv, flips, ranks, threshold):
    # the steps a checked bracket decides come out as evaluating every step would
    system = FlipSystem(pv, flips)
    with patch.object(fractal, "ENTROPY_THRESHOLD", threshold):
        estimates = graph_dimension_estimate(system, ranks)
    assert estimates == {rank: dimension_by_bisection(system, rank, threshold) for rank in ranks}


@given(dimension_vectors(), flip_sets(), st.integers(1, 6), st.floats(0, 3))
def test_entropy_sum_is_the_generator_sum(pv, flips, rank, alpha):
    # bit for bit: the same terms in the same order, each mult * d2**(alpha/2)
    system = FlipSystem(pv, flips)
    expected = math.fsum(mult * float(d2) ** (alpha / 2.0) for mult, d2 in rectangle_diagonals_sq(system, rank))
    assert entropy_sum(system, alpha, rank) == expected


@given(st.integers(-(1 << 200), 1 << 200), st.integers(1, 1 << 200), st.integers(0, 1 << 100))
def test_lowest_terms_is_the_reduced_fraction(num, den, common):
    # a common factor makes the reduction do work; multi-limb values on both sides
    num, den = num * (common or 1), den * (common or 1)
    built, expected = _lowest_terms(num, den), Fraction(num, den)
    assert type(built) is Fraction
    assert (built.numerator, built.denominator) == (expected.numerator, expected.denominator)
    assert hash(built) == hash(expected) and repr(built) == repr(expected)
    assert pickle.dumps(built) == pickle.dumps(expected) and pickle.loads(pickle.dumps(built)) == expected


@st.composite
def repeated_prime_vectors(draw):
    """Weights over q in 2..5 with a denominator D that has a repeated prime,
    so a value over D**n can share any power of that prime with it."""
    den = draw(st.sampled_from((4, 8, 12, 18, 36, 64, 72)))
    q = draw(st.integers(2, min(5, den)))
    cuts = sorted(draw(st.lists(st.integers(1, den - 1), min_size=q - 1, max_size=q - 1, unique=True)))
    # the numerators' partial sums are the cuts: with no prime in common with den, D == den
    assume(math.gcd(den, *cuts) == 1)
    pv = make_prob_vector([Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])])
    assert pv.den == den
    return pv


@settings(max_examples=60, deadline=None)
@given(repeated_prime_vectors(), st.one_of(flip_sets(), bits.map(lambda pre: FlipSet.mask(pre, (False, True)))),
       st.integers(0, 5))
# the tail past 4 is 7/15, and the weight 3/8 puts its prime 3 into y numerators
@example(make_prob_vector(["1/2", "3/8", "1/8"]), FlipSet.parse("mask:00;01"), 4)
def test_graph_points_and_diagonals_are_in_lowest_terms(pv, flips, n):
    # both are built by core._lowest_terms_over, without the Fraction constructor;
    # an alternating period makes the zero tail past n worth neither 0 nor 1,
    # so the y values are a list of their own, over a scale that is no power of D
    system = FlipSystem(pv, flips)
    values = [value for point in ifs_graph_points(system, n) for value in point]
    values += [d2 for _, d2 in rectangle_diagonals_sq(system, n)]
    for value in values:
        num, den = value.numerator, value.denominator
        assert type(value) is Fraction and den > 0 and math.gcd(num, den) == 1
        assert value == Fraction(num, den)


def zero_tail_image(system: FlipSystem, depth: int) -> Fraction:
    """Value of the flipped zero tail from position depth + 1: digit q-1 at
    the flipped positions and 0 elsewhere, summed per position."""
    pv = system.pv
    top = pv.q - 1
    pre, per = system.flips.pattern_from(depth + 1)

    def terms(pattern):
        return [(pv.beta[top], pv.p[top]) if bit else (pv.beta[0], pv.p[0]) for bit in pattern]
    return horner_sum(terms(pre), terms(per))


@given(prob_vectors(), flip_sets(), st.integers(0, 4))
def test_graph_points_match_per_base_fractions(pv, flips, depth):
    # per point: the cylinder's lower end, and the image hull's lower end plus
    # its width times the flipped zero tail, all in Fractions
    system = FlipSystem(pv, flips)
    tail = zero_tail_image(system, depth)
    expected = []
    for base in product(range(pv.q), repeat=depth):
        cyl, image = cylinder_image(base, system)
        expected.append((cyl.lo, image.lo + image.width * tail))
    assert ifs_graph_points(system, depth) == expected


@st.composite
def integral_tail_systems(draw):
    """A vector, a depth and a flip set of each of the four kinds whose
    flipped zero tail past the depth is worth 0 or 1: a finite set ends by the
    depth, and a mask is constant after it."""
    pv = draw(prob_vectors())
    depth = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(("none", "all", "finite", "mask")))
    if kind == "none":
        flips = FlipSet.none()
    elif kind == "all":
        flips = FlipSet.all()
    elif kind == "finite":
        flips = FlipSet.finite(draw(st.lists(st.integers(1, max(depth, 1)), max_size=4)) if depth else ())
    else:
        pre = draw(st.lists(st.booleans(), max_size=depth))
        flips = FlipSet.mask(pre, (draw(st.booleans()),))
    return FlipSystem(pv, flips), depth


@given(integral_tail_systems())
def test_graph_points_share_each_value_when_the_tail_is_integral(case):
    system, depth = case
    assert zero_tail_image(system, depth) in (0, 1)
    points = ifs_graph_points(system, depth)
    values = [value for point in points for value in point]
    assert len({id(value) for value in values}) == len(set(values))
    if system.flips == FlipSet.none():
        assert all(y is x for x, y in points)
