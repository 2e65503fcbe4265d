import gc
import math
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

import probdigits.fractal as fractal
from probdigits import (
    BudgetExceeded,
    DigitSeq,
    EmptyAlphabet,
    FlipSet,
    FlipSystem,
    InvalidArgument,
    MoranSpec,
    NotShiftInvariant,
    ProbVector,
    covering_measure,
    cylinder_bounds,
    cylinder_image,
    entropy_sum,
    eval_flip,
    flip_image,
    graph_dimension_estimate,
    ifs_graph_points,
    ifs_maps,
    make_prob_vector,
    moran_dimension,
    moran_set_cylinders,
    rectangle_diagonals_sq,
)
from conftest import ASYM_VECTORS, count_groups_by_words, cylinder_images, diagonal_multiset, dimension_by_bisection, moran_bases_by_walk


# ---------------------------------------------------------------------------
# affine system
# ---------------------------------------------------------------------------

def test_ifs_maps_identity(uniform2):
    maps = ifs_maps(FlipSystem(uniform2, FlipSet.none()))
    assert [(m.x_scale, m.x_offset) for m in maps] == [(Fraction(1, 2), 0), (Fraction(1, 2), Fraction(1, 2))]
    assert all((m.x_scale, m.x_offset) == (m.y_scale, m.y_offset) for m in maps)


def test_ifs_maps_complement(uniform2):
    maps = ifs_maps(FlipSystem(uniform2, FlipSet.all()))
    assert (maps[0].y_scale, maps[0].y_offset) == (Fraction(1, 2), Fraction(1, 2))
    assert (maps[1].y_scale, maps[1].y_offset) == (Fraction(1, 2), 0)


def test_ifs_maps_flipped_ternary(pv3):
    maps = ifs_maps(FlipSystem(pv3, FlipSet.all()))
    digit0 = maps[0]
    assert (digit0.x_scale, digit0.x_offset) == (Fraction(1, 5), 0)
    assert (digit0.y_scale, digit0.y_offset) == (Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("weights", [("1/4", "3/4"), ("1/5", "3/10", "1/2"), ("2/7", "3/11", "34/77")])
@pytest.mark.parametrize("spec", ["none", "all"])
def test_ifs_maps_carry_the_graph_points_one_rank_down(weights, spec):
    # the graph is the attractor: the maps send the depth d-1 points, in
    # base order, onto the depth d points
    system = FlipSystem(make_prob_vector(weights), FlipSet.parse(spec))
    for depth in range(1, 6):
        below = ifs_graph_points(system, depth - 1)
        assert ifs_graph_points(system, depth) == [m.apply(pt) for m in ifs_maps(system) for pt in below]


def test_ifs_maps_need_invariant_flips(uniform2):
    with pytest.raises(NotShiftInvariant):
        ifs_maps(FlipSystem(uniform2, FlipSet.finite([1])))


def test_graph_points_identity_and_complement(uniform2, pv3):
    for pv in (uniform2, pv3):
        pts = ifs_graph_points(FlipSystem(pv, FlipSet.none()), 3)
        assert all(y == x for x, y in pts)
    pts = ifs_graph_points(FlipSystem(uniform2, FlipSet.all()), 5)
    assert len(pts) == 32
    assert all(y == 1 - x for x, y in pts)


#: flip sets whose bits agree over positions 1..depth although they are not
#: shift-invariant, with that depth: (spec, depth, the flipped tail on pv3)
AGREEING_BITS = [
    ("finite:1,2,3", 3, Fraction(0)),  # every bit 1
    ("mask:00;1", 2, Fraction(1)),  # every bit 0
    ("finite:5", 3, Fraction(1, 10)),  # every bit 0
    ("mask:111;01", 3, Fraction(1, 9)),  # every bit 1
]


def test_graph_points_membership_and_completeness(asym2, pv3):
    agreeing = [(FlipSystem(pv3, FlipSet.parse(spec)), depth) for spec, depth, _ in AGREEING_BITS]
    # each agreeing set is what AGREEING_BITS says: no shift invariance, one bit, that tail
    for (system, depth), (_, _, tail) in zip(agreeing, AGREEING_BITS):
        assert not system.shift_invariant
        assert len({system.flips.contains(k) for k in range(1, depth + 1)}) == 1
        assert eval_flip(DigitSeq((), 3), system, offset=depth).value == tail
    for system, depth in [
        (FlipSystem(asym2, FlipSet.all()), 8),
        (FlipSystem(asym2, FlipSet.mask((), (False, True))), 8),
        (FlipSystem(pv3, FlipSet.finite([2, 5])), 4),
    ] + agreeing:
        q = system.pv.q
        pts = ifs_graph_points(system, depth)
        floats = fractal._graph_points(system, depth, fractal.DEFAULT_BUDGET, fractal._divided)
        words = list(product(range(q), repeat=depth))
        assert len(pts) == len(floats) == len(words)
        for word, (x, y), (fx, fy) in zip(words, pts, floats):
            assert x == cylinder_bounds(word, system.pv).lo
            assert y == eval_flip(DigitSeq(word, q), system).value
            assert (type(x), type(y), fx, fy) == (Fraction, Fraction, float(x), float(y))


def test_graph_points_build_each_value_once(pv3):
    # y is x for flips none; for flips all every y is another point's x or 1
    pts = ifs_graph_points(FlipSystem(pv3, FlipSet.none()), 4)
    assert all(y is x for x, y in pts)
    pts = ifs_graph_points(FlipSystem(pv3, FlipSet.all()), 4)
    assert len({id(value) for point in pts for value in point}) == 3**4 + 1


@pytest.mark.parametrize("flips, depth, tail_is_0_or_1", [
    (FlipSet.none(), 4, True), (FlipSet.all(), 4, True), (FlipSet.finite([2]), 4, True),
    (FlipSet.finite([2]), 1, False), (FlipSet.mask((), (False, True)), 4, False),
    (FlipSet.mask((True,), (False, True, True)), 3, False),
] + [(FlipSet.parse(spec), depth, tail in (0, 1)) for spec, depth, tail in AGREEING_BITS])
def test_graph_points_make_each_coordinate_once(pv3, flips, depth, tail_is_0_or_1):
    # one batch of the 3**depth + 1 cylinder ends over D**depth, plus one of
    # the 3**depth y values when the tail is worth neither 0 nor 1, for
    # exact and for float coordinates
    system = FlipSystem(pv3, flips)
    exact = ifs_graph_points(system, depth)
    for kind in (Fraction, float):
        calls = []

        def coords(nums, scale):
            calls.append((len(nums), scale))
            return [kind(Fraction(num, scale)) for num in nums]

        points = fractal._graph_points(system, depth, fractal.DEFAULT_BUDGET, coords)
        assert points == [(kind(x), kind(y)) for x, y in exact]
        assert all(type(value) is kind for point in points for value in point)
        x_scale = pv3.den ** depth
        assert calls[0] == (3**depth + 1, x_scale)
        assert [n for n, _ in calls[1:]] == ([] if tail_is_0_or_1 else [3**depth])
        assert all(scale % x_scale == 0 for _, scale in calls[1:])


@pytest.mark.parametrize("spec", ["all", "none"])
def test_graph_points_peak_near_their_result(spec):
    # the coordinates share one int per distinct denominator, and the
    # cylinder ends and the flip permutation are gone before the points are
    # paired: the call's traced peak stays within 1.25 times what its
    # result retains (1.5 when every coordinate held its own denominator)
    system = FlipSystem(make_prob_vector(["1/4", "3/4"]), FlipSet.parse(spec))
    ifs_graph_points(system, 2)  # any first-use state is built outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        points = ifs_graph_points(system, 14)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.25 * (retained - before)
    dens = [value.denominator for point in points for value in point]
    assert len({id(den) for den in dens}) == len(set(dens))


def test_cylinder_images_match_per_base_fractions():
    # the integer walk kept as the test oracle against per-base Fraction
    # arithmetic, in lexicographic order
    coprime = make_prob_vector(["2/7", "3/11", "34/77"])
    variants = (FlipSet.none(), FlipSet.all(), FlipSet.finite([2, 5]), FlipSet.mask((True, False), (False, True)))
    for pv in (ASYM_VECTORS[2], coprime):
        for fs in variants:
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


def test_graph_points_budget(uniform2):
    with pytest.raises(BudgetExceeded):
        ifs_graph_points(FlipSystem(uniform2, FlipSet.none()), 8, budget=100)
    with pytest.raises(BudgetExceeded):
        ifs_graph_points(FlipSystem(uniform2, FlipSet.finite([2])), 8, budget=100)
    with pytest.raises(InvalidArgument):
        ifs_graph_points(FlipSystem(uniform2, FlipSet.none()), -1)


def test_graph_points_budget_builds_no_power_of_a_huge_depth(uniform2, pv3):
    # depth >= budget.bit_length() is refused without building q**depth
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"^2\*\*1000000000000 points exceed budget 1048576$"):
        ifs_graph_points(FlipSystem(uniform2, FlipSet.none()), 10**12)
    assert time.perf_counter() - start < 0.1
    # on both sides of that switch the refusal is still q**depth > budget
    for pv in (uniform2, pv3):
        system = FlipSystem(pv, FlipSet.none())
        for depth in range(1, 6):
            size = pv.q ** depth
            assert len(ifs_graph_points(system, depth, budget=size)) == size
            with pytest.raises(BudgetExceeded):
                ifs_graph_points(system, depth, budget=size - 1)


# ---------------------------------------------------------------------------
# the builders that pause the cyclic collector
# ---------------------------------------------------------------------------

PAUSED_GRAPH = FlipSystem(make_prob_vector(["1/4", "3/4"]), FlipSet.parse("mask:;01"))
PAUSED_DIAGONALS = FlipSystem(ProbVector.uniform(3), FlipSet.all())
PAUSED_MORAN = MoranSpec(ProbVector.uniform(4), 1)
#: each builder that runs with the collector paused, called with a budget:
#: the default gives a result, 3 a BudgetExceeded
PAUSED_BUILDERS = {
    "graph-points": lambda budget: ifs_graph_points(PAUSED_GRAPH, 6, budget),
    "diagonals": lambda budget: rectangle_diagonals_sq(PAUSED_DIAGONALS, 6, budget),
    "moran": lambda budget: moran_set_cylinders(PAUSED_MORAN, 8, budget),
}


@pytest.mark.parametrize("refused", [False, True], ids=["result", "refusal"])
@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("build", PAUSED_BUILDERS.values(), ids=PAUSED_BUILDERS.keys())
def test_paused_builders_restore_the_collector_state(build, enabled, refused):
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if refused:
            with pytest.raises(BudgetExceeded):
                build(3)
        else:
            assert build(fractal.DEFAULT_BUDGET)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()


def test_paused_restores_the_collector_when_the_build_raises():
    def build(seen):
        seen.append(gc.isenabled())
        raise ZeroDivisionError

    seen = []
    with pytest.raises(ZeroDivisionError):
        fractal._paused(build, seen)
    assert seen == [False] and gc.isenabled()
    gc.disable()
    try:
        with pytest.raises(ZeroDivisionError):
            fractal._paused(build, seen)
        assert seen == [False, False] and not gc.isenabled()
    finally:
        gc.enable()


def test_graph_points_make_their_coordinates_with_the_collector_paused():
    system = FlipSystem(make_prob_vector(["1/4", "3/4"]), FlipSet.finite([2]))
    seen = []

    def coords(nums, scale):
        seen.append(gc.isenabled())
        return fractal._lowest_terms_over(nums, scale)

    assert fractal._graph_points(system, 1, fractal.DEFAULT_BUDGET, coords) == ifs_graph_points(system, 1)
    assert seen == [False, False] and gc.isenabled()


@pytest.mark.parametrize("build", PAUSED_BUILDERS.values(), ids=PAUSED_BUILDERS.keys())
def test_paused_builders_leave_no_cycle_to_collect(build):
    # the premise of the pause: a built and dropped result is freed by
    # reference counting alone, so a collection finds nothing
    build(fractal.DEFAULT_BUDGET)  # any first-use state is built before the count
    gc.collect()
    build(fractal.DEFAULT_BUDGET)
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# entropy sums
# ---------------------------------------------------------------------------

def test_entropy_uniform_sqrt2(uniform2):
    for fs in (FlipSet.none(), FlipSet.all()):
        system = FlipSystem(uniform2, fs)
        for rank in (1, 4, 9, 16):
            assert entropy_sum(system, 1, rank) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_entropy_alpha_zero_counts(pv3):
    system = FlipSystem(pv3, FlipSet.all())
    for rank in (1, 3, 6):
        assert entropy_sum(system, 0, rank) == 3**rank
    for alpha in (-1, float("nan"), float("inf")):
        with pytest.raises(InvalidArgument):
            entropy_sum(system, alpha, 3)
    with pytest.raises(InvalidArgument):
        entropy_sum(system, 0, 0)


def test_entropy_alpha_past_the_float_range_is_refused():
    # a rectangle diagonal above 1 (0.9 * sqrt(2)) to the power 1e6 is past the float range
    system = FlipSystem(make_prob_vector(["9/10", "1/10"]), FlipSet.none())
    assert entropy_sum(system, 2000, 1) > 1e200
    with pytest.raises(InvalidArgument, match="alpha 1000000.0"):
        entropy_sum(system, 1e6, 1)


def test_entropy_identity_telescopes(asym2):
    # monotone graph: diagonals are sqrt(2) * cylinder widths, which sum to 1
    system = FlipSystem(asym2, FlipSet.none())
    assert entropy_sum(system, 1, 10) == pytest.approx(math.sqrt(2), rel=1e-12)


def test_entropy_decreasing_in_alpha(asym2):
    system = FlipSystem(asym2, FlipSet.all())
    values = [entropy_sum(system, a, 6) for a in (0, Fraction(1, 2), 1, 2, 3)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_entropy_grouped_matches_enumeration(asym2, pv3):
    # the multiset grouping must agree with direct q**rank enumeration
    coprime = make_prob_vector(["2/7", "3/11", "34/77"])
    for pv, flips, rank in (
        (asym2, FlipSet.all(), 6),
        (asym2, FlipSet.none(), 6),
        (pv3, FlipSet.all(), 5),
        (coprime, FlipSet.none(), 4),
    ):
        system = FlipSystem(pv, flips)
        grouped: dict = {}
        for mult, d2 in rectangle_diagonals_sq(system, rank):
            grouped[d2] = grouped.get(d2, 0) + mult
        direct: dict = {}
        for word in product(range(pv.q), repeat=rank):
            wx = Fraction(1)
            wy = Fraction(1)
            for d in word:
                wx *= pv.p[d]
                wy *= pv.p[pv.q - 1 - d] if flips.contains(1) else pv.p[d]
            key = wx * wx + wy * wy
            direct[key] = direct.get(key, 0) + 1
        assert grouped == direct


def test_entropy_positional_flips_use_positions(pv3):
    # mask flips give position-dependent vertical sides; rank-2 hand check
    system = FlipSystem(pv3, FlipSet.mask((), (False, True)))
    total = 0.0
    for c1, c2 in product(range(3), repeat=2):
        wx = pv3.p[c1] * pv3.p[c2]
        wy = pv3.p[c1] * pv3.p[2 - c2]
        total += math.sqrt(float(wx * wx + wy * wy))
    assert entropy_sum(system, 1, 2) == pytest.approx(total, rel=1e-12)


def test_rectangle_diagonals_positional_match_cylinder_images(pv3):
    # independent route: per-base Fraction widths of each cylinder and its image
    system = FlipSystem(pv3, FlipSet.mask((True,), (False, True)))
    rank = 4
    expected = []
    for base in product(range(3), repeat=rank):
        cyl, image = cylinder_image(base, system)
        expected.append((1, cyl.width ** 2 + image.width ** 2))
    pairs = rectangle_diagonals_sq(system, rank)
    assert diagonal_multiset(pairs) == diagonal_multiset(expected)
    # positions 1 and 3 flipped, 2 and 4 not: C(2+2, 2) * C(2+2, 2) digit-count groups
    assert len(pairs) == 36
    with pytest.raises(InvalidArgument):
        rectangle_diagonals_sq(system, -1)


def test_rectangle_diagonals_budget_counts_what_is_built(uniform2, pv3):
    # flips none or all build one pair per digit-count vector, not q**rank rectangles
    pairs = rectangle_diagonals_sq(FlipSystem(uniform2, FlipSet.all()), 40)
    assert len(pairs) == 41
    assert sum(mult for mult, _ in pairs) == 2**40
    with pytest.raises(BudgetExceeded):
        rectangle_diagonals_sq(FlipSystem(uniform2, FlipSet.all()), 40, budget=40)
    assert len(rectangle_diagonals_sq(FlipSystem(pv3, FlipSet.none()), 4, budget=15)) == 15
    # a positional set builds C(a+2, 2) * C(b+2, 2) groups: a = 1 flipped and
    # b = 3 unflipped positions give 3 * 10
    finite = FlipSystem(pv3, FlipSet.finite([1]))
    with pytest.raises(BudgetExceeded):
        rectangle_diagonals_sq(finite, 4, budget=29)
    pairs = rectangle_diagonals_sq(finite, 4, budget=30)
    assert len(pairs) == 30
    assert sum(mult for mult, _ in pairs) == 3**4


@pytest.mark.parametrize("flips", [FlipSet.none(), FlipSet.all(), FlipSet.finite([3, 7]),
                                   FlipSet.mask((True,), (False, True, True))])
def test_rectangle_groups_refuse_a_huge_rank_at_once(uniform2, flips):
    # the flipped positions up to the rank are counted from the flip bits, not position by position
    system = FlipSystem(uniform2, flips)
    start = time.perf_counter()
    for call in (lambda: rectangle_diagonals_sq(system, 10**9), lambda: entropy_sum(system, 1, 10**9)):
        with pytest.raises(BudgetExceeded):
            call()
    assert time.perf_counter() - start < 0.2


def test_count_groups_on_a_large_alphabet():
    # q = 1500 digits deep, past the default recursion limit: one group per digit
    q = 1500
    px, py = list(range(1, q + 1)), list(range(q, 0, -1))
    groups = fractal._count_groups(1, px, py)
    assert groups == count_groups_by_words(1, px, py)
    assert groups == [(1, px[c], py[c]) for c in range(q - 1, -1, -1)]


def test_entropy_sandwich_bounds(asym2):
    a, b = min(asym2.p), max(asym2.p)
    for fs in (FlipSet.none(), FlipSet.all()):
        system = FlipSystem(asym2, fs)
        for rank in (4, 8, 12):
            for mult, d2 in rectangle_diagonals_sq(system, rank):
                assert 2 * a ** (2 * rank) <= d2 <= 2 * b ** (2 * rank)
            value = entropy_sum(system, 1, rank)
            lo = math.sqrt(2) * float((2 * a) ** rank)
            hi = math.sqrt(2) * float((2 * b) ** rank)
            assert lo * (1 - 1e-9) <= value <= hi * (1 + 1e-9)


def test_dimension_estimates(uniform2, asym2):
    assert graph_dimension_estimate(FlipSystem(uniform2, FlipSet.all()), [4, 8])[8] == pytest.approx(1.0, abs=1e-6)
    assert graph_dimension_estimate(FlipSystem(asym2, FlipSet.none()), [10])[10] == pytest.approx(1.0, abs=1e-6)
    est = graph_dimension_estimate(FlipSystem(asym2, FlipSet.all()), [6, 10, 14])
    assert est[6] > est[10] > est[14] > 1.0  # trend toward 1 from above
    assert est[14] < 1.05
    for ranks in ([0, 2], [4, 2]):
        with pytest.raises(InvalidArgument):
            graph_dimension_estimate(FlipSystem(uniform2, FlipSet.all()), ranks)


def test_dimension_budget_caps_the_groups_of_all_ranks(uniform2):
    # flips all on two digits build rank + 1 groups: 3 + 5 + 7 = 15 over the
    # three ranks, each rank alone under the budget of 10
    system = FlipSystem(uniform2, FlipSet.all())
    with pytest.raises(BudgetExceeded, match="^15 rectangle groups over 3 ranks exceed budget 10$"):
        graph_dimension_estimate(system, [2, 4, 6], budget=10)
    assert graph_dimension_estimate(system, [2, 4, 6], budget=15) == graph_dimension_estimate(system, [2, 4, 6])
    # half a million ranks are counted and refused before any bisection
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        graph_dimension_estimate(FlipSystem(uniform2, FlipSet.none()), range(2, 10**6 + 1, 2))
    assert time.perf_counter() - start < 2.0


def test_dimension_reads_no_more_ranks_than_the_budget(uniform2):
    # every rank has a group, so budget + 1 ranks are refused without reading the rest
    system = FlipSystem(uniform2, FlipSet.all())
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="^more than 1048576 ranks, each with at least one rectangle group, "
                                             "exceed budget 1048576$"):
        graph_dimension_estimate(system, range(2, 10**12, 2))
    assert time.perf_counter() - start < 2.0
    with pytest.raises(BudgetExceeded, match="^more than 3 ranks"):
        graph_dimension_estimate(system, range(1, 10**12), budget=3)
    # a bad rank among those read is still named as such
    with pytest.raises(InvalidArgument, match="strictly increasing"):
        graph_dimension_estimate(system, [3, 2, 4, 5], budget=3)
    # a negative budget reads one rank, and refuses it
    with pytest.raises(BudgetExceeded):
        graph_dimension_estimate(system, range(1, 10**12), budget=-1)
    # a budget past sys.maxsize reads at most sys.maxsize ranks, and answers as the default budget does
    assert graph_dimension_estimate(system, [1, 2], budget=2**70) == graph_dimension_estimate(system, [1, 2])


@pytest.mark.parametrize("threshold", [fractal.ENTROPY_THRESHOLD, 1e-300, 1e300])
def test_dimension_bisection_equals_64_halvings(monkeypatch, uniform2, asym2, pv3, threshold):
    # the bisection stops at its fixed point; the estimate is the 64-halving
    # one bit for bit, also with the upper end capped at 64 (threshold
    # 1e-300) and with a crossing too close to 0 for 64 halvings (1e300)
    monkeypatch.setattr(fractal, "ENTROPY_THRESHOLD", threshold)
    coprime = make_prob_vector(["2/7", "3/11", "34/77"])
    ranks = [1, 2, 5, 8]
    for pv in (uniform2, asym2, pv3, coprime):
        for fs in (FlipSet.none(), FlipSet.all()):
            system = FlipSystem(pv, fs)
            expected = {rank: dimension_by_bisection(system, rank, threshold) for rank in ranks}
            assert graph_dimension_estimate(system, ranks) == expected
            if threshold != math.sqrt(2.0):
                # far from 1 a float step of alpha can move ln E by more than
                # eta, and ln 1e300 is spaced wider than Newton's stop at eta
                continue
            # the estimates are the same with no bracket at all, so check that
            # both ends were kept wherever the sum falls in alpha
            for rank in ranks:
                mults, d2s = fractal._float_groups(system, rank, fractal.DEFAULT_BUDGET)
                if max(d2s) < 1.0:
                    below, above = fractal._bracket(mults, d2s, threshold)
                    assert -math.inf < below < expected[rank] < above < math.inf


def test_dimension_checks_the_newton_guess(monkeypatch):
    # a guess far off the crossing keeps at most the end that truly holds,
    # and the estimate is the 64-halving one whatever the guess
    threshold = fractal.ENTROPY_THRESHOLD
    system = FlipSystem(make_prob_vector(["1/5", "3/10", "1/2"]), FlipSet.all())
    expected = {6: dimension_by_bisection(system, 6, threshold)}
    mults, d2s = fractal._float_groups(system, 6, fractal.DEFAULT_BUDGET)
    below, above = fractal._bracket(mults, d2s, threshold)
    assert below < expected[6] < above
    alpha, slope = fractal._newton(mults, d2s, threshold)
    for guess, kept in [((alpha + 0.25, slope), (False, True)), ((alpha - 0.25, slope), (True, False)),
                        ((alpha, slope * 2.0 ** 30), (False, False)), ((-900.0, slope), (False, False)),
                        (None, (False, False))]:
        monkeypatch.setattr(fractal, "_newton", lambda *args, guess=guess: guess)
        below, above = fractal._bracket(mults, d2s, threshold)
        assert (below > -math.inf, above < math.inf) == kept
        assert graph_dimension_estimate(system, [6]) == expected


def test_dimension_evaluates_every_step_without_a_bracket(monkeypatch):
    # 1/4,3/4 with flips none at rank 1 has d2 = 9/8 >= 1, so the sum need
    # not fall in alpha: every doubling test and every halving reads it
    threshold = fractal.ENTROPY_THRESHOLD
    system = FlipSystem(make_prob_vector(["1/4", "3/4"]), FlipSet.none())
    mults, d2s = fractal._float_groups(system, 1, fractal.DEFAULT_BUDGET)
    assert max(d2s) == 9 / 8
    assert fractal._bracket(mults, d2s, threshold) == (-math.inf, math.inf)
    entropy, seen = fractal._entropy, []
    monkeypatch.setattr(fractal, "_entropy", lambda m, d, alpha: seen.append(alpha) or entropy(m, d, alpha))
    estimate = graph_dimension_estimate(system, [1])[1]
    steps, lo, hi = [], 0.0, 1.0
    while hi < 64.0:
        steps.append(hi)
        if not entropy(mults, d2s, hi) > threshold:
            break
        hi *= 2.0
    while (lo + hi) / 2.0 not in (lo, hi):
        mid = (lo + hi) / 2.0
        steps.append(mid)
        lo, hi = (mid, hi) if entropy(mults, d2s, mid) > threshold else (lo, mid)
    assert seen == steps
    assert estimate == (lo + hi) / 2.0 == dimension_by_bisection(system, 1, threshold)


def test_dimension_evaluations_per_rank(monkeypatch):
    # every step would read the sum about 55 times per rank; the checked
    # bracket, 8 * eta / |d ln E / d alpha| wide with eta = 2**-46, leaves the
    # two checks and the few steps inside it (8 calls here)
    system = FlipSystem(make_prob_vector(["1/5", "3/10", "1/2"]), FlipSet.all())
    entropy, calls = fractal._entropy, []
    monkeypatch.setattr(fractal, "_entropy", lambda *args: calls.append(args[2]) or entropy(*args))
    graph_dimension_estimate(system, [10])
    assert len(calls) <= 10


def test_entropy_sum_in_float_range(uniform2):
    # the last ranks whose groups are normal floats still give sqrt(2) and 1
    system = FlipSystem(uniform2, FlipSet.none())
    assert entropy_sum(system, 1, 511) == pytest.approx(math.sqrt(2), rel=1e-12)
    assert graph_dimension_estimate(system, [511]) == {511: 1.0}


def test_dimension_needs_invariant_flips(uniform2):
    with pytest.raises(NotShiftInvariant):
        graph_dimension_estimate(FlipSystem(uniform2, FlipSet.finite([2])), [4])


# ---------------------------------------------------------------------------
# block fractals
# ---------------------------------------------------------------------------

def test_moran_uniform4_cubic_oracle():
    spec = MoranSpec(ProbVector.uniform(4), 1)
    alpha = moran_dimension(spec, 1e-13)
    # independent root: y**3 + y**2 = 1 with y = 4**(-alpha)
    lo, hi = 0.5, 1.0
    for _ in range(100):
        y = (lo + hi) / 2
        if y**3 + y**2 < 1:
            lo = y
        else:
            hi = y
    expected = -math.log((lo + hi) / 2) / math.log(4)
    assert alpha == pytest.approx(expected, abs=1e-8)
    assert alpha == pytest.approx(0.2028, abs=5e-4)


def test_moran_degenerate_cases():
    assert moran_dimension(MoranSpec(ProbVector.uniform(3), 1)) == 0.0
    assert moran_dimension(MoranSpec(ProbVector.uniform(2), 0)) == 0.0
    with pytest.raises(EmptyAlphabet):
        moran_dimension(MoranSpec(ProbVector.uniform(2), 1))
    for tol in (0.0, float("nan")):
        with pytest.raises(InvalidArgument):
            moran_dimension(MoranSpec(ProbVector.uniform(4), 1), tol)


def test_moran_asymmetric_residual():
    from probdigits import make_prob_vector

    pv = make_prob_vector([Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)])
    spec = MoranSpec(pv, 2)
    weights = spec.block_weights()
    assert weights == {1: Fraction(1, 5), 3: Fraction(9, 250)}
    alpha = moran_dimension(spec, 1e-12)
    residual = sum(float(w) ** alpha for w in weights.values()) - 1.0
    assert abs(residual) <= 1e-12


def test_moran_blocks_match_weights():
    spec = MoranSpec(ProbVector.uniform(4), 1)
    for i in spec.alphabet:
        block = spec.block(i)
        assert block == (1,) * (i - 1) + (i,)
        width = Fraction(1)
        for d in block:
            width *= spec.pv.p[d]
        assert width == spec.block_weights()[i]


def test_moran_set_cylinders_rank2():
    spec = MoranSpec(ProbVector.uniform(4), 1)
    assert moran_set_cylinders(spec, 2) == [(1, 1), (1, 2)]
    with pytest.raises(InvalidArgument):
        moran_set_cylinders(spec, 0)


def test_moran_set_cylinders_empty_alphabet():
    assert moran_set_cylinders(MoranSpec(ProbVector.uniform(2), 1), 3) == []


def test_moran_set_bases_parse_as_blocks():
    # independent check: every base must be a prefix of a block concatenation
    spec = MoranSpec(ProbVector.uniform(5), 2)
    alphabet = set(spec.alphabet)

    def consistent(base):
        run = 0
        for d in base:
            if d == spec.u and run + 2 <= max(alphabet):
                run += 1
            elif d == run + 1 and d in alphabet:
                run = 0
            else:
                return False
        return True

    bases = moran_set_cylinders(spec, 5)
    assert bases and all(consistent(b) for b in bases)
    # and nothing consistent is missing
    expected = [b for b in product(range(5), repeat=5) if consistent(b)]
    assert bases == expected


def test_covering_measure_decreases():
    spec = MoranSpec(ProbVector.uniform(4), 1)
    values = [covering_measure(spec, r) for r in range(1, 9)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < Fraction(1, 1000)


def test_moran_budget():
    spec = MoranSpec(ProbVector.uniform(4), 1)
    with pytest.raises(BudgetExceeded):
        moran_set_cylinders(spec, 10, budget=3)


def outcome(call):
    """A call's return value, or the type and message of the error it raised."""
    try:
        return call()
    except BudgetExceeded as exc:
        return type(exc), str(exc)


def test_moran_bases_match_the_walk():
    # every alphabet size and marker, at the budget and one under it
    for q in range(2, 11):
        for u in range(q):
            spec = MoranSpec(ProbVector.uniform(q), u)
            for rank in range(1, 11):
                count = len(moran_bases_by_walk(spec, rank, fractal.DEFAULT_BUDGET))
                for budget in (count - 1, count):
                    assert outcome(lambda: moran_set_cylinders(spec, rank, budget)) == \
                        outcome(lambda: moran_bases_by_walk(spec, rank, budget))


def test_moran_one_block_digit_costs_linear_time_in_the_rank():
    # one block (1, 2): one base at every rank, built by halving its length
    # rather than one digit at a time, which took about 10 s at rank 10**5
    spec = MoranSpec(make_prob_vector(["1/3"] * 3), 1)
    start = time.perf_counter()
    assert moran_set_cylinders(spec, 10**5) == [(1, 2) * 50000]
    assert moran_set_cylinders(spec, 10**5 + 1) == [(1, 2) * 50000 + (1,)]
    assert time.perf_counter() - start < 2.0


def test_moran_refuses_before_building():
    # the bases are counted before any is built: at rank 60 the walk's 2**12
    # bases alone would take about 2 MiB
    spec = MoranSpec(ProbVector.uniform(4), 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            moran_set_cylinders(spec, 60, budget=1 << 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_covering_measure_matches_cylinder_widths():
    # independent route: sum the exact widths of the enumerated consistent bases
    specs = [
        MoranSpec(ProbVector.uniform(4), 1),
        MoranSpec(ASYM_VECTORS[5], 2),
        MoranSpec(make_prob_vector(["2/7", "3/11", "34/77"]), 0),
    ]
    for spec in specs:
        for rank in range(1, 9):
            widths = [cylinder_bounds(base, spec.pv).width for base in moran_set_cylinders(spec, rank)]
            assert covering_measure(spec, rank) == sum(widths, Fraction(0))
    with pytest.raises(BudgetExceeded):
        covering_measure(specs[0], 10, budget=3)
    with pytest.raises(InvalidArgument):
        covering_measure(specs[0], 0)
    assert covering_measure(MoranSpec(ProbVector.uniform(2), 1), 4) == 0
