import random
import time
from fractions import Fraction
from itertools import product

import pytest

import probdigits.analysis as analysis
from probdigits import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DigitSeq,
    EVEN_POSITIONS,
    EndpointOneSided,
    FlipSet,
    FlipSystem,
    InvalidArgument,
    NotPRational,
    NotShiftInvariant,
    PrefixTooShort,
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
from probdigits.core import _horner
from conftest import (
    ASYM_VECTORS, expected_terms, integral_by_horner_sum, integral_series_by_fractions, jump_at_by_two_walks,
    series_by_fractions,
)


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
    with pytest.raises(InvalidArgument):
        jump_at(Fraction(1, 2), system, max_depth=-3)


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


def rank_jump_mass(jump, system, rank):
    """The sum of |jump| over the rank-`rank` two-expansion points: the
    addresses of that length whose last digit is nonzero."""
    pv = system.pv
    return sum(abs(jump(eval_digits(DigitSeq(head + (last,), pv.q), pv), system).jump)
               for head in product(range(pv.q), repeat=rank - 1) for last in range(1, pv.q))


@pytest.mark.parametrize("flips, masses", [
    # the paper's map: the same mass at every rank, so the total is infinite
    ("mask:;01", [Fraction(6, 13)] * 7),
    # a finite set: no jump past its last position
    ("finite:2,5", [Fraction(105, 256), Fraction(87, 128), Fraction(3, 16), Fraction(3, 8), 1, 0, 0]),
])
def test_jump_mass_per_rank(flips, masses):
    system = FlipSystem(make_prob_vector(["1/4", "3/4"]), FlipSet.parse(flips))
    for jump in (jump_at, jump_at_by_two_walks):
        assert [rank_jump_mass(jump, system, rank) for rank in range(1, 8)] == masses


def test_continuity_class():
    assert continuity_class(FlipSet.none()).continuous_everywhere
    assert continuity_class(FlipSet.all()).continuous_everywhere
    finite = continuity_class(FlipSet.finite([3]))
    assert not finite.continuous_everywhere and finite.jump_count == "finite"
    mask = continuity_class(FlipSet.mask((), (False, True)))
    assert not mask.continuous_everywhere and mask.jump_count == "countable"
    # an eventually-zero mask flips finitely many positions
    assert continuity_class(FlipSet.mask((True,), (False,))).jump_count == "finite"


def test_p_rationals_enumeration(uniform2):
    first = p_rationals(uniform2, 7)
    assert first == [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
                     Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8)]
    assert len(set(first)) == 7
    assert p_rationals(uniform2, 0) == []
    with pytest.raises(InvalidArgument):
        p_rationals(uniform2, -3)


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
    for max_rank in (0, -2):
        with pytest.raises(InvalidArgument):
            derivative_estimate((), FlipSystem(asym2, FlipSet.all()), max_rank)


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


@pytest.mark.parametrize("weights, spec, value", [
    ("1/4,3/4", "mask:;01", Fraction(29, 98)),  # the paper's map
    ("1/4,3/4", "all", Fraction(1, 10)),
    ("1/5,3/10,1/2", "mask:1;011", Fraction(133766, 484021)),
])
def test_period_block_limit_values(weights, spec, value):
    pv = make_prob_vector(weights.split(","))
    flips = FlipSet.parse(spec)
    assert _horner(pv._expected_table, flips.preperiod, flips.period) == value
    assert integral_by_horner_sum(FlipSystem(pv, flips)) == value


def test_integral_series_examples(uniform2, asym2, pv3):
    enc = integral_series(FlipSystem(asym2, FlipSet.all()))
    assert enc.contains(Fraction(1, 10)) and enc.width <= Fraction(1, 10**12)
    for pv in (uniform2, asym2, pv3):
        assert integral_series(FlipSystem(pv, FlipSet.none())).contains(Fraction(1, 2))
    # hand geometric sum for a single flipped position
    enc = integral_series(FlipSystem(uniform2, FlipSet.finite([1])))
    assert enc.contains(Fraction(1, 2))


def test_integral_series_budget_refuses_before_summing(monkeypatch):
    # w_max = 1000001/1002001: about 34 000 terms to reach 1e-30, refused without summing
    system = FlipSystem(make_prob_vector(["1/1001", "1000/1001"]), FlipSet.none())
    monkeypatch.setattr(analysis, "DEFAULT_BUDGET", 10**4)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        integral_series(system, Fraction(1, 10**30))
    assert time.perf_counter() - start < 0.2
    # for flips none the bound is the count summed: 58 terms reach 1e-12 on 1/4,3/4
    asym = FlipSystem(make_prob_vector(["1/4", "3/4"]), FlipSet.none())
    monkeypatch.setattr(analysis, "DEFAULT_BUDGET", 58)
    assert integral_series(asym) == integral_series_by_fractions(asym, Fraction(1, 10**12))
    monkeypatch.setattr(analysis, "DEFAULT_BUDGET", 57)
    with pytest.raises(BudgetExceeded):
        integral_series(asym)
    # the unflipped preperiod is counted term by term: 10**4 slow terms, then fast flipped ones
    skewed = make_prob_vector(["1/1000000", "999999/1000000"])
    late = FlipSystem(skewed, FlipSet.mask((False,) * 10**4, (True,)))
    monkeypatch.setattr(analysis, "DEFAULT_BUDGET", 10**4)
    with pytest.raises(BudgetExceeded):
        integral_series(late)


@pytest.mark.parametrize("flips", [FlipSet.all(), FlipSet.mask((), (False, True)), FlipSet.finite(range(1, 40))])
def test_integral_series_budget_reads_the_flipped_weights(flips):
    # on 1e-6, 1-1e-6 the plain weight is 1 - 2e-6 but the flipped one about
    # 2e-6: a few flipped positions reach the default tol, so nothing is refused
    system = FlipSystem(make_prob_vector(["1/1000000", "999999/1000000"]), flips)
    start = time.perf_counter()
    enc = integral_series(system)
    assert time.perf_counter() - start < 0.2
    assert (enc.lo, enc.hi) == integral_series_by_fractions(system, Fraction(1, 10**12))


def test_integral_series_of_the_paper_map_at_a_tiny_tol():
    # about 9 500 terms, which the period-block sum reaches in a few steps
    system = FlipSystem(make_prob_vector(["1/4", "3/4"]), EVEN_POSITIONS)
    tol = Fraction(1, 10**3000)
    enc = integral_series(system, tol)
    assert enc.contains(Fraction(29, 98)) and enc.width <= tol


def test_integral_riemann_examples(uniform2, asym2):
    enc = integral_riemann(FlipSystem(uniform2, FlipSet.none()), 10)
    assert enc.contains(Fraction(1, 2)) and enc.width <= Fraction(1, 2**10)
    enc = integral_riemann(FlipSystem(asym2, FlipSet.all()), 12)
    assert enc.contains(Fraction(1, 10))
    # the budget counts the rank terms, not the 2**21 cylinders: rank 21 is
    # the rank-21 partial sums of the Fraction terms, around the integral
    system = FlipSystem(asym2, EVEN_POSITIONS)
    lower, weight = Fraction(0), Fraction(1)
    for v, w in expected_terms(system, 21):
        lower += weight * v
        weight *= w
    enc = integral_riemann(system, 21)
    assert (enc.lo, enc.hi) == (lower, lower + weight)
    assert enc.contains(integral_by_horner_sum(system))
    with pytest.raises(BudgetExceeded, match="^11 series terms exceed budget 10$"):
        integral_riemann(system, 11, budget=10)
    with pytest.raises(BudgetExceeded, match=f"^{DEFAULT_BUDGET + 1} series terms exceed budget {DEFAULT_BUDGET}$"):
        integral_riemann(system, DEFAULT_BUDGET + 1)
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


def test_integral_riemann_oracle_against_direct_sum(asym2, pv3):
    # independent route: sum cylinder width * image endpoints over explicit bases
    from itertools import product

    from probdigits import cylinder_image

    coprime = make_prob_vector(["2/7", "3/11", "34/77"])
    for system, rank in (
        (FlipSystem(asym2, FlipSet.all()), 6),
        (FlipSystem(asym2, FlipSet.finite([2])), 6),
        (FlipSystem(asym2, FlipSet.mask((True,), (False, True))), 6),
        (FlipSystem(pv3, FlipSet.none()), 5),
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


@pytest.mark.parametrize("miss", [-3, 3])
@pytest.mark.parametrize("spec", ["none", "all", "finite:2,5", "mask:;01", "mask:1;011"])
def test_integral_series_confirms_its_stop_from_a_wrong_estimate(monkeypatch, spec, miss):
    # an estimate 3 terms short runs the upward loop, 3 terms long the
    # downward confirmation; both must end on the Fraction loop's sum
    system = FlipSystem(make_prob_vector(["2/7", "3/11", "34/77"]), FlipSet.parse(spec))
    tol = Fraction(1, 10**12)
    lo, hi, terms = series_by_fractions(system, tol)
    assert terms > 3
    estimates = []

    def wrong_length(*args):
        estimates.append(terms + miss)
        return terms + miss

    monkeypatch.setattr(analysis, "_series_length", wrong_length)
    enc = integral_series(system, tol)
    assert estimates == [terms + miss]
    assert (enc.lo, enc.hi) == (lo, hi)
