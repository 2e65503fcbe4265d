import random
from fractions import Fraction

import pytest

from probdigits import (
    DigitSeq,
    EndpointOneSided,
    FlipSet,
    FlipSystem,
    InvalidArgument,
    NotPRational,
    NotShiftInvariant,
    PrefixTooShort,
    RankTooLarge,
    continuity_class,
    derivative_estimate,
    encode,
    eval_digits,
    eval_flip,
    integral_closed_form,
    integral_riemann,
    integral_series,
    jump_at,
    make_prob_vector,
    monotone_witness,
    p_rationals,
)
from conftest import ASYM_VECTORS


# ---------------------------------------------------------------------------
# jumps
# ---------------------------------------------------------------------------

def test_jump_flip_first_position(uniform2):
    system = FlipSystem(uniform2, FlipSet.finite([1]))
    rep = jump_at(Fraction(1, 2), system)
    assert rep.left_limit == 1
    assert rep.right_limit == 0
    assert rep.jump == -1


def test_jump_zero_for_invariant_flips(uniform2):
    for fs in (FlipSet.none(), FlipSet.all()):
        rep = jump_at(Fraction(1, 2), FlipSystem(uniform2, fs))
        assert rep.jump == 0
        assert rep.left_limit == rep.right_limit == Fraction(1, 2)


def test_jump_rejections(uniform2):
    system = FlipSystem(uniform2, FlipSet.finite([1]))
    with pytest.raises(NotPRational):
        jump_at(Fraction(1, 3), system)
    with pytest.raises(EndpointOneSided):
        jump_at(0, system)
    with pytest.raises(EndpointOneSided):
        jump_at(1, system)


def test_jump_limits_match_dual_representations(pv3):
    system = FlipSystem(pv3, FlipSet.finite([2]))
    for x0 in p_rationals(pv3, 20):
        rep = jump_at(x0, system)
        zero_rep = encode(x0, pv3, 64)
        digits = zero_rep.digits
        max_rep = DigitSeq(digits[:-1] + (digits[-1] - 1,), 3, "max")
        assert rep.right_limit == eval_flip(zero_rep, system).value
        assert rep.left_limit == eval_flip(max_rep, system).value


def test_jump_consistency_with_approaching_points(uniform2):
    # values along points converging one-sidedly approach the reported limits
    system = FlipSystem(uniform2, FlipSet.finite([1]))
    x0 = Fraction(1, 2)
    rep = jump_at(x0, system)
    for j in range(1, 10):
        right_probe = DigitSeq((1,) + (0,) * j + (1,), 2)
        left_probe = DigitSeq((0,) + (1,) * j + (0,), 2, "max")
        right_gap = abs(eval_flip(right_probe, system).value - rep.right_limit)
        left_gap = abs(eval_flip(left_probe, system).value - rep.left_limit)
        assert right_gap <= Fraction(1, 2**j)
        assert left_gap <= Fraction(1, 2**j)


def test_jump_zero_beyond_flip_horizon(uniform2):
    # two-expansion points whose rank exceeds max(flips) are continuity points
    system = FlipSystem(uniform2, FlipSet.finite([2]))
    for x0 in p_rationals(uniform2, 50):
        rank = len(encode(x0, uniform2, 64).digits)
        if rank > 2:
            assert jump_at(x0, system).jump == 0


def test_continuity_class():
    assert continuity_class(FlipSet.none()).continuous_everywhere
    assert continuity_class(FlipSet.all()).continuous_everywhere
    finite = continuity_class(FlipSet.finite([3]))
    assert not finite.continuous_everywhere and finite.jump_count == "finite"
    mask = continuity_class(FlipSet.mask((), (False, True)))
    assert not mask.continuous_everywhere and mask.jump_count == "countable"


def test_p_rationals_enumeration(uniform2):
    first = p_rationals(uniform2, 7)
    assert first == [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
                     Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8)]
    assert len(set(first)) == 7


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

def test_witness_none_is_monotone(uniform2):
    assert monotone_witness(FlipSystem(uniform2, FlipSet.none()), 6) is None


def test_witness_examples(uniform2):
    w = monotone_witness(FlipSystem(uniform2, FlipSet.finite([2])), 3)
    assert w is not None
    assert w.x1 < w.x2
    assert w.g1.lo > w.g2.hi
    w2 = monotone_witness(FlipSystem(uniform2, FlipSet.all()), 2)
    assert w2 is not None and w2.g1.lo > w2.g2.hi


def test_witness_out_of_rank(uniform2):
    assert monotone_witness(FlipSystem(uniform2, FlipSet.finite([5])), 4) is None
    assert monotone_witness(FlipSystem(uniform2, FlipSet.finite([5])), 5) is not None
    with pytest.raises(InvalidArgument):
        monotone_witness(FlipSystem(uniform2, FlipSet.finite([5])), 0)


def test_witness_all_variants_and_vectors():
    variants = [FlipSet.all(), FlipSet.finite([1]), FlipSet.finite([2, 5]),
                FlipSet.mask((False,), (True, False))]
    for q, pv in ASYM_VECTORS.items():
        for fs in variants:
            w = monotone_witness(FlipSystem(pv, fs), 8)
            assert w is not None
            assert w.x1 < w.x2 and w.g1.lo > w.g2.hi


def test_order_preserved_beyond_finite_flips(pv3):
    # cylinders of rank > max(flips): the map preserves endpoint order inside
    system = FlipSystem(pv3, FlipSet.finite([2]))
    rng = random.Random(101)
    for _ in range(20):
        base = tuple(rng.randrange(3) for _ in range(3))
        points = [DigitSeq(base + (c,), 3) for c in range(3)]
        values = [eval_flip(s, system).value for s in points]
        assert all(a < b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# derivative scan
# ---------------------------------------------------------------------------

def test_derivative_closed_form(asym2):
    system = FlipSystem(asym2, FlipSet.all())
    trace = derivative_estimate((1,) * 8, system, 8)
    assert trace.ratios == tuple(Fraction(1, 3**m) for m in range(1, 9))
    assert trace.ratios[-1] == Fraction(1, 6561)


def test_derivative_identity_and_symmetric(uniform2, asym2):
    none_trace = derivative_estimate((0, 1, 1, 0), FlipSystem(asym2, FlipSet.none()), 4)
    assert set(none_trace.ratios) == {Fraction(1)}
    sym_trace = derivative_estimate((0, 1, 1, 0), FlipSystem(uniform2, FlipSet.all()), 4)
    assert set(sym_trace.ratios) == {Fraction(1)}


def test_derivative_prefix_too_short(asym2):
    with pytest.raises(PrefixTooShort):
        derivative_estimate((1, 0), FlipSystem(asym2, FlipSet.all()), 3)


def test_derivative_matches_image_over_cylinder_width(pv3):
    from probdigits import cylinder_image

    system = FlipSystem(pv3, FlipSet.mask((), (False, True)))
    prefix = (2, 0, 1, 2, 1)
    trace = derivative_estimate(prefix, system, 5)
    for m in range(1, 6):
        cyl, image = cylinder_image(prefix[:m], system)
        assert trace.ratios[m - 1] == image.width / cyl.width


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------

def test_integral_closed_form_values(uniform2, asym2):
    assert integral_closed_form(FlipSystem(uniform2, FlipSet.none())) == Fraction(1, 2)
    assert integral_closed_form(FlipSystem(uniform2, FlipSet.all())) == Fraction(1, 2)
    assert integral_closed_form(FlipSystem(asym2, FlipSet.all())) == Fraction(1, 10)
    with pytest.raises(NotShiftInvariant):
        integral_closed_form(FlipSystem(uniform2, FlipSet.finite([1])))


def test_integral_series_examples(uniform2, asym2, pv3):
    enc = integral_series(FlipSystem(asym2, FlipSet.all()))
    assert enc.contains(Fraction(1, 10)) and enc.width <= Fraction(1, 10**12)
    for pv in (uniform2, asym2, pv3):
        assert integral_series(FlipSystem(pv, FlipSet.none())).contains(Fraction(1, 2))
    # hand geometric sum for a single flipped position
    enc = integral_series(FlipSystem(uniform2, FlipSet.finite([1])))
    assert enc.contains(Fraction(1, 2))


def test_integral_riemann_examples(uniform2, asym2):
    enc = integral_riemann(FlipSystem(uniform2, FlipSet.none()), 10)
    assert enc.contains(Fraction(1, 2)) and enc.width <= Fraction(1, 2**10)
    enc = integral_riemann(FlipSystem(asym2, FlipSet.all()), 12)
    assert enc.contains(Fraction(1, 10))
    with pytest.raises(RankTooLarge):
        integral_riemann(FlipSystem(uniform2, FlipSet.none()), 21)
    with pytest.raises(InvalidArgument):
        integral_riemann(FlipSystem(uniform2, FlipSet.none()), 0)


def test_integral_triple_agreement(pv3, asym2, uniform2):
    systems = [
        FlipSystem(asym2, FlipSet.all()),
        FlipSystem(uniform2, FlipSet.finite([1])),
        FlipSystem(pv3, FlipSet.mask((), (False, True))),
        FlipSystem(pv3, FlipSet.none()),
    ]
    for system in systems:
        series = integral_series(system)
        riemann = integral_riemann(system, 8)
        assert series.intersects(riemann)
        if system.shift_invariant:
            exact = integral_closed_form(system)
            assert series.contains(exact)
            assert riemann.contains(exact)


def test_integral_riemann_oracle_against_direct_sum(asym2):
    # independent route: sum cylinder width * image endpoints over explicit bases
    from itertools import product

    from probdigits import cylinder_image

    coprime = make_prob_vector(["2/7", "3/11", "34/77"])
    for system, rank in (
        (FlipSystem(asym2, FlipSet.all()), 6),
        (FlipSystem(asym2, FlipSet.finite([2])), 6),
        (FlipSystem(asym2, FlipSet.mask((True,), (False, True))), 6),
        (FlipSystem(coprime, FlipSet.mask((True,), (False, True))), 4),
    ):
        lower = Fraction(0)
        upper = Fraction(0)
        for base in product(range(system.pv.q), repeat=rank):
            cyl, image = cylinder_image(base, system)
            lower += cyl.width * image.lo
            upper += cyl.width * image.hi
        enc = integral_riemann(system, rank)
        assert (enc.lo, enc.hi) == (lower, upper)


def test_integral_series_respects_tolerance(asym2):
    for tol in (Fraction(1, 10**3), Fraction(1, 10**9)):
        enc = integral_series(FlipSystem(asym2, FlipSet.all()), tol)
        assert enc.width <= tol
    for tol in (0, Fraction(-1, 10)):
        with pytest.raises(InvalidArgument):
            integral_series(FlipSystem(asym2, FlipSet.all()), tol)
