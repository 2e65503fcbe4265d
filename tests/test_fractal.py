import math
from fractions import Fraction
from itertools import product

import pytest

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
    graph_dimension_estimate,
    ifs_graph_points,
    ifs_maps,
    moran_dimension,
    moran_set_cylinders,
    rectangle_diagonals_sq,
)


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


def test_graph_points_membership_and_completeness(asym2, pv3):
    for system, depth in (
        (FlipSystem(asym2, FlipSet.all()), 8),
        (FlipSystem(asym2, FlipSet.mask((), (False, True))), 8),
        (FlipSystem(pv3, FlipSet.finite([2, 5])), 4),
    ):
        q = system.pv.q
        pts = ifs_graph_points(system, depth)
        words = list(product(range(q), repeat=depth))
        assert len(pts) == len(words)
        for word, (x, y) in zip(words, pts):
            assert x == cylinder_bounds(word, system.pv).lo
            assert y == eval_flip(DigitSeq(word, q), system).value


def test_graph_points_budget(uniform2):
    with pytest.raises(BudgetExceeded):
        ifs_graph_points(FlipSystem(uniform2, FlipSet.none()), 8, budget=100)
    with pytest.raises(BudgetExceeded):
        ifs_graph_points(FlipSystem(uniform2, FlipSet.finite([2])), 8, budget=100)
    with pytest.raises(InvalidArgument):
        ifs_graph_points(FlipSystem(uniform2, FlipSet.none()), -1)


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
    with pytest.raises(InvalidArgument):
        entropy_sum(system, -1, 3)
    with pytest.raises(InvalidArgument):
        entropy_sum(system, 0, 0)


def test_entropy_identity_telescopes(asym2):
    # monotone graph: diagonals are sqrt(2) * cylinder widths, which sum to 1
    system = FlipSystem(asym2, FlipSet.none())
    assert entropy_sum(system, 1, 10) == pytest.approx(math.sqrt(2), rel=1e-12)


def test_entropy_decreasing_in_alpha(asym2):
    system = FlipSystem(asym2, FlipSet.all())
    values = [entropy_sum(system, a, 6) for a in (0, Fraction(1, 2), 1, 2, 3)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_entropy_grouped_matches_enumeration(asym2):
    # the multiset grouping must agree with direct q**rank enumeration
    system = FlipSystem(asym2, FlipSet.all())
    rank = 6
    grouped: dict = {}
    for mult, d2 in rectangle_diagonals_sq(system, rank):
        grouped[d2] = grouped.get(d2, 0) + mult
    direct: dict = {}
    for word in product(range(2), repeat=rank):
        wx = Fraction(1)
        wy = Fraction(1)
        for d in word:
            wx *= asym2.p[d]
            wy *= asym2.p[1 - d]
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
    assert rectangle_diagonals_sq(system, rank) == expected
    with pytest.raises(InvalidArgument):
        rectangle_diagonals_sq(system, -1)


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
    with pytest.raises(InvalidArgument):
        moran_dimension(MoranSpec(ProbVector.uniform(4), 1), 0.0)


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
