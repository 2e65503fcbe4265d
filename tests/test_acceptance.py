"""Acceptance suite: one test per release criterion, each at its pinned
tolerance, printing one PASS/FAIL line per criterion (run with -s to see
them live)."""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from probdigits import (
    DigitSeq,
    FlipSet,
    FlipSystem,
    MoranSpec,
    ProbVector,
    cylinder_bounds,
    derivative_estimate,
    encode,
    eval_digits,
    eval_flip,
    eval_nega,
    ifs_graph_points,
    integral_closed_form,
    integral_riemann,
    integral_series,
    jump_at,
    make_prob_vector,
    monotone_witness,
    moran_dimension,
    nega_to_digits,
    p_rationals,
    rectangle_diagonals_sq,
    sample_digits,
    shift_digits,
)
from conftest import ASYM_VECTORS, random_seq, riemann_by_walk

UNIFORM2 = ProbVector.uniform(2)
ASYM2 = ASYM_VECTORS[2]        # (1/4, 3/4)
PV3 = ASYM_VECTORS[3]          # (1/5, 3/10, 1/2)

FOUR_VARIANTS = [
    FlipSet.none(),
    FlipSet.all(),
    FlipSet.finite([2, 5]),
    FlipSet.mask((True, False), (False, True)),
]


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {description}")
        raise
    print(f"criterion {num:2d} PASS  {description}")


# ---------------------------------------------------------------------------

def test_criterion_1_cylinder_axioms():
    with criterion(1, "cylinder axioms 1-9 exact, 200 random bases per system, <5s"):
        start = time.monotonic()
        rng = random.Random(1001)
        for q, pv in ASYM_VECTORS.items():
            for _ in range(200):
                base = tuple(rng.randrange(q) for _ in range(rng.randint(1, 10)))
                cyl = cylinder_bounds(base, pv)
                # 1: a closed interval with positive length
                assert cyl.lo < cyl.hi
                # 2: endpoint formulas via the two constant tails
                assert cyl.lo == eval_digits(DigitSeq(base, q, "zero"), pv)
                assert cyl.hi == eval_digits(DigitSeq(base, q, "max"), pv)
                # 3: exact width product
                width = Fraction(1)
                for d in base:
                    width *= pv.p[d]
                assert cyl.width == width
                # 6: geometric shrinking bound
                assert cyl.width <= pv.max_p ** len(base)
                children = [cyl.child(c) for c in range(q)]
                for c, child in enumerate(children):
                    # 4: nesting
                    assert cyl.lo <= child.lo and child.hi <= cyl.hi
                    # 7: exact width ratio
                    assert child.width / cyl.width == pv.p[c]
                    # 8: adjacency of consecutive children
                    if c + 1 < q:
                        assert child.hi == children[c + 1].lo
                # 5: the children tile the parent exactly
                assert children[0].lo == cyl.lo and children[-1].hi == cyl.hi
                assert sum(ch.width for ch in children) == cyl.width
            # 9: the nested chain pins down its point
            for _ in range(5):
                x = Fraction(rng.randint(0, 2**20), 2**20)
                prev = cylinder_bounds((), pv)
                for depth in range(1, 11):
                    cyl = cylinder_bounds(encode(x, pv, depth).digits, pv)
                    assert cyl.contains(x)
                    assert prev.lo <= cyl.lo and cyl.hi <= prev.hi
                    prev = cyl
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_identity_and_complement():
    with criterion(2, "flips none == identity (500 pts); uniform all == 1-x (500 dyadics), exact"):
        rng = random.Random(1002)
        identity = FlipSystem(PV3, FlipSet.none())
        for _ in range(500):
            seq = random_seq(rng, 3)
            x = eval_digits(seq, PV3)
            assert eval_flip(seq, identity).value == x
        complement = FlipSystem(UNIFORM2, FlipSet.all())
        for _ in range(500):
            x = Fraction(rng.randint(0, 2**14), 2**14)
            seq = encode(x, UNIFORM2, 16)
            assert eval_digits(seq, UNIFORM2) == x
            assert eval_flip(seq, complement).value == 1 - x


def test_criterion_3_functional_equation():
    with criterion(3, "tail recursion value(n-1) == offset + weight*value(n), n<=8, exact"):
        rng = random.Random(1003)
        for pv, q, count in ((PV3, 3, 50), (ASYM2, 2, 50)):
            for _ in range(count):
                digits = tuple(rng.randrange(q) for _ in range(rng.randint(8, 12)))
                seq = DigitSeq(digits, q, rng.choice(("zero", "max")))
                for fs in FOUR_VARIANTS:
                    system = FlipSystem(pv, fs)
                    for n in range(1, 9):
                        lhs = eval_flip(shift_digits(seq, n - 1), system, offset=n - 1).value
                        d = seq.digit_at(n)
                        rhs = system.offset(n, d) + system.weight(n, d) * eval_flip(
                            shift_digits(seq, n), system, offset=n
                        ).value
                        assert lhs == rhs


def test_criterion_4_nega_oracle_equivalence():
    with criterion(4, "eval(nega_to_digits(d)) == eval_nega(d), 100 strings per q in {2,3,4}"):
        rng = random.Random(1004)
        tolerance = Fraction(1, 10**12)
        for q in (2, 3, 4):
            pv = ProbVector.uniform(4) if q == 4 else ASYM_VECTORS[q]
            for _ in range(100):
                seq = random_seq(rng, q)
                via_digits = eval_digits(nega_to_digits(seq), pv)
                direct = eval_nega(seq, pv)
                assert direct.width <= tolerance
                assert abs(via_digits - direct.value) <= tolerance
                assert via_digits == direct.value  # exact in fact


def test_criterion_5_integral_triple_agreement():
    with criterion(5, "integral: closed 1/10 exact; series width<=1e-12; riemann rank 14; <30s"):
        start = time.monotonic()
        tol = Fraction(1, 10**12)
        flipped = FlipSystem(ASYM2, FlipSet.all())
        assert integral_closed_form(flipped) == Fraction(1, 10)
        series = integral_series(flipped, tol)
        assert series.width <= tol and series.contains(Fraction(1, 10))
        riemann = integral_riemann(flipped, 14)
        assert riemann.contains(Fraction(1, 10))
        assert (riemann.lo, riemann.hi) == riemann_by_walk(flipped, 14)

        one_flip = FlipSystem(UNIFORM2, FlipSet.finite([1]))
        series1 = integral_series(one_flip, tol)
        riemann1 = integral_riemann(one_flip, 14)
        assert (riemann1.lo, riemann1.hi) == riemann_by_walk(one_flip, 14)
        half = Fraction(1, 2)
        assert series1.contains(half) and riemann1.contains(half)
        assert series1.intersects(riemann1)
        assert abs(series1.midpoint() - half) <= Fraction(1, 10**9)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_6_jump_suite():
    with criterion(6, "no jumps for none/all (50 pts); finite{1} jumps -1 at 1/2; dual-rep limits"):
        for fs in (FlipSet.none(), FlipSet.all()):
            system = FlipSystem(UNIFORM2, fs)
            for x0 in p_rationals(UNIFORM2, 50):
                assert jump_at(x0, system).jump == 0
        system = FlipSystem(UNIFORM2, FlipSet.finite([1]))
        report = jump_at(Fraction(1, 2), system)
        assert report.left_limit == 1 and report.right_limit == 0
        for x0 in p_rationals(UNIFORM2, 20):
            rep = jump_at(x0, system)
            zero_rep = encode(x0, UNIFORM2, 64)
            digits = zero_rep.digits
            max_rep = DigitSeq(digits[:-1] + (digits[-1] - 1,), 2, "max")
            assert rep.right_limit == eval_flip(zero_rep, system).value
            assert rep.left_limit == eval_flip(max_rep, system).value


def test_criterion_7_monotonicity():
    with criterion(7, "reversal witnesses for every nonempty flip set; none over 10^4 pairs"):
        nonempty = [
            FlipSet.all(),
            FlipSet.finite([1]),
            FlipSet.finite([2]),
            FlipSet.finite([2, 5]),
            FlipSet.mask((), (False, True)),
            FlipSet.mask((True,), (False, True)),
        ]
        for pv in (UNIFORM2, ASYM2, PV3):
            for fs in nonempty:
                w = monotone_witness(FlipSystem(pv, fs), 8)
                assert w is not None
                assert w.x1 < w.x2 and w.g1.lo > w.g2.hi
        rng = random.Random(1007)
        identity = FlipSystem(PV3, FlipSet.none())
        for _ in range(10**4):
            s1 = random_seq(rng, 3, max_len=8)
            s2 = random_seq(rng, 3, max_len=8)
            x1, x2 = eval_digits(s1, PV3), eval_digits(s2, PV3)
            g1 = eval_flip(s1, identity).value
            g2 = eval_flip(s2, identity).value
            if x1 < x2:
                assert g1 <= g2
            elif x2 < x1:
                assert g2 <= g1
            else:
                assert g1 == g2


def test_criterion_8_singularity_scan():
    with criterion(8, "flip-ratio at 100 seeded rank-64 prefixes all <= 1e-3, <10s"):
        start = time.monotonic()
        system = FlipSystem(ASYM2, FlipSet.all())
        rng = random.Random(0)
        bound = Fraction(1, 1000)
        for _ in range(100):
            prefix = sample_digits(ASYM2, 64, rng)
            trace = derivative_estimate(prefix, system, 64)
            final = trace.ratios[-1]
            # closed-form cross-check: flips swap the two weights, so the
            # ratio is 3**(#zeros - #ones)
            zeros = prefix.count(0)
            assert final == Fraction(3) ** (zeros - (64 - zeros))
            assert final <= bound
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_9_entropy_and_dimension():
    with criterion(9, "entropy sqrt(2)+-1e-9 (ranks<=16); exact sandwich (ranks<=12); est in [0.95,1.05]"):
        from probdigits import entropy_sum, graph_dimension_estimate

        root2 = math.sqrt(2.0)
        for fs in (FlipSet.none(), FlipSet.all()):
            system = FlipSystem(UNIFORM2, fs)
            for rank in range(1, 17):
                assert abs(entropy_sum(system, 1, rank) - root2) <= 1e-9
        a, b = min(ASYM2.p), max(ASYM2.p)
        for fs in (FlipSet.none(), FlipSet.all()):
            system = FlipSystem(ASYM2, fs)
            for rank in (4, 8, 12):
                for _, diag_sq in rectangle_diagonals_sq(system, rank):
                    assert 2 * a ** (2 * rank) <= diag_sq <= 2 * b ** (2 * rank)
                value = entropy_sum(system, 1, rank)
                assert root2 * float((2 * a) ** rank) * (1 - 1e-9) <= value
                assert value <= root2 * float((2 * b) ** rank) * (1 + 1e-9)
            estimates = graph_dimension_estimate(system, [6, 10, 14])
            assert 0.95 <= estimates[14] <= 1.05


def test_criterion_10_moran_solver():
    with criterion(10, "Moran root vs cubic oracle (1e-6); degenerate -> 0; residual <= 1e-12"):
        spec = MoranSpec(ProbVector.uniform(4), 1)
        alpha = moran_dimension(spec, 1e-13)
        lo, hi = 0.5, 1.0
        for _ in range(120):
            y = (lo + hi) / 2
            if y**3 + y**2 < 1:
                lo = y
            else:
                hi = y
        oracle = -math.log((lo + hi) / 2) / math.log(4)
        assert abs(alpha - oracle) <= 1e-6
        residual = sum(float(w) ** alpha for w in spec.block_weights().values()) - 1.0
        assert abs(residual) <= 1e-12
        assert moran_dimension(MoranSpec(ProbVector.uniform(3), 1)) == 0.0
        assert moran_dimension(MoranSpec(ProbVector.uniform(2), 0)) == 0.0
        asym = make_prob_vector(["1/10", "2/10", "3/10", "4/10"])
        alpha2 = moran_dimension(MoranSpec(asym, 2), 1e-12)
        weights = MoranSpec(asym, 2).block_weights()
        assert abs(sum(float(w) ** alpha2 for w in weights.values()) - 1.0) <= 1e-12


def test_criterion_11_ifs_graph_membership():
    with criterion(11, "all q^8 generated graph points inside their map enclosures, exact"):
        for pv in (UNIFORM2, ASYM2):
            for fs in (FlipSet.none(), FlipSet.all()):
                system = FlipSystem(pv, fs)
                points = ifs_graph_points(system, 8)
                words = list(product(range(2), repeat=8))
                assert len(points) == 256
                for word, (x, y) in zip(words, points):
                    assert x == cylinder_bounds(word, pv).lo
                    assert eval_flip(DigitSeq(word, 2), system).contains(y)
