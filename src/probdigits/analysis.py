"""Pointwise behaviour of the flip map and its Lebesgue integral.

Jumps are located at the countably many points with two expansions, where
the map takes different limits along the zero-tail and max-tail addresses.
Monotonicity witnesses certify order reversal inside a cylinder whose rank
hits the flip set.  The derivative scan tracks the ratio of flipped to
plain cylinder widths, whose decay is the almost-everywhere-zero-derivative
mechanism.  The integral is computed three independent ways: the stationary
closed form, the positional-expectation series, and Riemann sums over the
rank-r cylinder partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .core import (
    DEFAULT_BUDGET,
    Cylinder,
    DigitSeq,
    Enclosure,
    PointKind,
    as_fraction,
    classify,
    cylinder_bounds,
    encode,
    eval_digits,
)
from .errors import (
    EndpointOneSided,
    InvalidArgument,
    NotPRational,
    NotShiftInvariant,
    PrefixTooShort,
    RankTooLarge,
)
from .flips import FlipKind, FlipSet, FlipSystem, cylinder_images, eval_flip, flip_image


# ---------------------------------------------------------------------------
# Jumps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpReport:
    point: Fraction
    left_limit: Fraction
    right_limit: Fraction
    jump: Fraction  # right_limit - left_limit; 0 iff continuous here


def jump_at(x0, system: FlipSystem, max_depth: int = 128) -> JumpReport:
    """One-sided limits of the flip map at a point with two expansions.

    The right limit is the flipped value of the zero-tail address, the left
    limit that of the max-tail address; both close in rational arithmetic.
    """
    x0 = as_fraction(x0)
    pc = classify(x0, system.pv, max_depth)
    if pc.kind is not PointKind.P_RATIONAL:
        raise NotPRational(f"{x0} is {pc.kind.value} at depth {max_depth}")
    if x0 == 0 or x0 == 1:
        raise EndpointOneSided(f"{x0} admits only a one-sided limit")
    zero_rep = encode(x0, system.pv, max_depth)
    digits = zero_rep.digits
    max_rep = DigitSeq(digits[:-1] + (digits[-1] - 1,), system.pv.q, "max")
    right = eval_flip(zero_rep, system).value
    left = eval_flip(max_rep, system).value
    return JumpReport(point=x0, left_limit=left, right_limit=right, jump=right - left)


@dataclass(frozen=True)
class ContinuityClass:
    continuous_everywhere: bool
    jump_count: str | None = None  # "finite" | "countable" when jumps exist


def continuity_class(flips: FlipSet) -> ContinuityClass:
    """Continuous everywhere for the empty and the full flip set; otherwise
    jumps at two-expansion points, finitely many iff the flip set is finite."""
    if flips.shift_invariant:
        return ContinuityClass(continuous_everywhere=True)
    if flips.kind is FlipKind.FINITE:
        return ContinuityClass(continuous_everywhere=False, jump_count="finite")
    return ContinuityClass(continuous_everywhere=False, jump_count="countable")


def p_rationals(pv, count: int) -> list[Fraction]:
    """The first `count` interior two-expansion points, rank-major then lexicographic.

    Each such point has a unique terminating address whose last digit is
    nonzero; enumerating (rank, head, last digit) therefore never repeats."""
    out: list[Fraction] = []
    rank = 1
    while len(out) < count:
        for head in product(range(pv.q), repeat=rank - 1):
            for last in range(1, pv.q):
                out.append(eval_digits(DigitSeq(head + (last,), pv.q), pv))
                if len(out) == count:
                    return out
        rank += 1
    return out


# ---------------------------------------------------------------------------
# Monotonicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneWitness:
    x1: Fraction
    x2: Fraction
    g1: Enclosure
    g2: Enclosure  # x1 < x2 with g1 entirely above g2


def monotone_witness(system: FlipSystem, rank: int) -> MonotoneWitness | None:
    """A certified order reversal, if some position <= rank is flipped.

    The pair agrees on the first m-1 digits and differs at the first flipped
    position m; returns None when no position up to rank is flipped."""
    if rank < 1:
        raise InvalidArgument(f"rank must be >= 1, got {rank}")
    m = system.flips.min_position()
    if m is None or m > rank:
        return None
    q = system.pv.q
    head = (0,) * (m - 1)
    seqs = [DigitSeq(head + (c,), q) for c in range(q)]
    xs = [eval_digits(s, system.pv) for s in seqs]
    gs = [eval_flip(s, system) for s in seqs]
    for c1 in range(q):
        for c2 in range(c1 + 1, q):
            if xs[c1] < xs[c2] and gs[c1].lo > gs[c2].hi:
                return MonotoneWitness(x1=xs[c1], x2=xs[c2], g1=gs[c1], g2=gs[c2])
    return None


# ---------------------------------------------------------------------------
# Derivative scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeTrace:
    digits: tuple[int, ...]
    ratios: tuple[Fraction, ...]  # image width / cylinder width at ranks 1..M


def derivative_estimate(prefix: Sequence[int], system: FlipSystem, max_rank: int) -> DerivativeTrace:
    """Ratio of the flip-image width to the cylinder width along a digit prefix.

    The rank-m ratio is the product over t <= m of weight(t, c_t)/p[c_t]; its
    decay along Lebesgue-typical prefixes is the singularity diagnostic."""
    digits = tuple(system.pv.check_digit(d) for d in prefix)
    if len(digits) < max_rank:
        raise PrefixTooShort(f"prefix of length {len(digits)} cannot reach rank {max_rank}")
    ratios = []
    ratio = Fraction(1)
    for t, d in enumerate(digits[:max_rank], start=1):
        ratio *= system.weight(t, d) / system.pv.p[d]
        ratios.append(ratio)
    return DerivativeTrace(digits=digits, ratios=tuple(ratios))


# ---------------------------------------------------------------------------
# Integrals
# ---------------------------------------------------------------------------

def integral_closed_form(system: FlipSystem) -> Fraction:
    """Stationary value U/(1-W) with U = sum offset(t)p_t and W = sum weight(t)p_t.

    Valid only when the flip schedule is position-independent, since the
    derivation replaces the integral of the shifted tail by the integral
    itself."""
    if not system.shift_invariant:
        raise NotShiftInvariant("closed form needs flips none or all; use integral_series")
    pv = system.pv
    u = sum(system.offset(1, t) * pv.p[t] for t in range(pv.q))
    w = sum(system.weight(1, t) * pv.p[t] for t in range(pv.q))
    return u / (1 - w)


def integral_series(system: FlipSystem, tol=Fraction(1, 10**12)) -> Enclosure:
    """Positional-expectation series: under Lebesgue measure the digits are
    independent with law p, so the integral is sum_k v_k prod_{j<k} w_j with
    v_k, w_k the expected offset/weight at position k.  The returned
    enclosure adds the geometric tail bound and has width <= tol."""
    tol = as_fraction(tol)
    if tol <= 0:
        raise InvalidArgument(f"tol must be positive, got {tol}")
    pv = system.pv
    q = pv.q
    v_plain = sum(pv.beta[c] * pv.p[c] for c in range(q))
    v_flip = sum(pv.beta[q - 1 - c] * pv.p[c] for c in range(q))
    w_plain = sum(pv.p[c] * pv.p[c] for c in range(q))
    w_flip = sum(pv.p[q - 1 - c] * pv.p[c] for c in range(q))
    v_max = max(v_plain, v_flip)
    w_max = max(w_plain, w_flip)
    total = Fraction(0)
    weight = Fraction(1)
    k = 1
    while True:
        if system.flips.contains(k):
            total += weight * v_flip
            weight *= w_flip
        else:
            total += weight * v_plain
            weight *= w_plain
        tail = v_max * weight / (1 - w_max)
        if tail <= tol:
            return Enclosure(total, total + tail)
        k += 1


def integral_riemann(system: FlipSystem, rank: int, budget: int = DEFAULT_BUDGET) -> Enclosure:
    """Exact lower/upper Riemann sums over the rank-r cylinder partition.

    Each cylinder contributes its width times the endpoints of the flip-image
    hull, so the enclosure always contains the true integral and its width is
    the measure-weighted sum of image widths."""
    if rank < 1:
        raise InvalidArgument(f"rank must be >= 1, got {rank}")
    pv = system.pv
    if pv.q ** rank > budget:
        raise RankTooLarge(f"{pv.q}**{rank} exceeds budget {budget}")
    lower = 0
    upper = 0
    for _, x_w, y_lo, y_w in cylinder_images(system, rank):
        lower += x_w * y_lo
        upper += x_w * (y_lo + y_w)
    scale = pv.den ** (2 * rank)
    return Enclosure(Fraction(lower, scale), Fraction(upper, scale))


def cylinder_image(base: Sequence[int], system: FlipSystem) -> tuple[Cylinder, Enclosure]:
    """A cylinder paired with the interval hull of its image under the flip map."""
    return cylinder_bounds(base, system.pv), flip_image(base, system)
