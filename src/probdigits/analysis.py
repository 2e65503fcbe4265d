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

from fractions import Fraction
from itertools import cycle, product
from math import ceil, log
from typing import NamedTuple, Sequence

from .core import (
    DEFAULT_BUDGET,
    Cylinder,
    DigitSeq,
    Enclosure,
    PointKind,
    ProbVector,
    _as_int,
    _as_point,
    _as_record,
    _check_digits,
    _closure,
    _forward,
    _lowest_terms,
    _shown,
    _walk,
    as_fraction,
    cylinder_bounds,
    eval_digits,
)
from .errors import (
    BudgetExceeded,
    EndpointOneSided,
    InvalidArgument,
    NotPRational,
    NotShiftInvariant,
    PrefixTooShort,
)
from .flips import FlipSet, FlipSystem, _letters, eval_flip, flip_image


# ---------------------------------------------------------------------------
# Jumps
# ---------------------------------------------------------------------------

class JumpReport(NamedTuple):
    point: Fraction
    left_limit: Fraction
    right_limit: Fraction
    jump: Fraction  # right_limit - left_limit; 0 iff continuous here


def jump_at(x0, system: FlipSystem, max_depth: int = 128) -> JumpReport:
    """One-sided limits of the flip map at a point with two expansions.

    The right limit is the flipped value of the zero-tail address, the left
    limit that of the max-tail address; both close in rational arithmetic.

    One walk of the integer shift orbit reads the zero-tail digits and
    decides the point as classify does: two expansions once the orbit
    reaches 0, one once a state repeats, and undetermined after max_depth
    steps.

    The two addresses share their first n - 1 digits, n the rank of the
    last zero-tail digit d; there the max-tail address has d - 1, and q - 1
    where the zero tail has 0.  In flip-table letters (digit + q * bit) the
    max-tail letters are the zero-tail ones minus 1 at position n and plus
    q - 1 past it, so the zero-tail address is spelled once.  Its letters
    1..n-1 fold once to (T, W) over D**(n-1), and each tail past position n
    closes to a pair z/Z and m/M.  Over D**n the limits are then
    (T*D + beta[l]*W)/D**n + W*p[l]/D**n * z/Z at the letter l of position
    n and its like at l - 1 with m/M, and in the jump the head term T*D
    cancels: jump = W(prefix) * J_n(d) with W(prefix) = W / D**(n-1) and
    J_n(d) = (beta[l] - beta[l-1] + p[l]*z/Z - p[l-1]*m/M) / D, one
    integer over D**n * Z * M, reduced once like each limit.
    """
    max_depth = _as_int(max_depth, "max_depth", 0)
    x0 = _as_point(x0)
    system = _as_record(system, FlipSystem, "system")
    a, b = x0.numerator, x0.denominator
    if a == 0 or a == b:
        raise EndpointOneSided(f"{_shown(x0)} admits only a one-sided limit")
    pv = system.pv
    digits, end, _, _ = _walk(a, b, pv.int_table, max_depth, watch=True)
    if end is not PointKind.P_RATIONAL:
        raise NotPRational(f"{_shown(x0)} is {end.value} at depth {_shown(max_depth)}")
    q, n = pv.q, len(digits)
    table = pv._flip_table
    den, beta, p = table
    prefix, period = _letters(DigitSeq._trusted(tuple(digits), q, (0,)), system.flips.pattern_from(1))
    head, weight = _forward(table, prefix[:n - 1])
    last, tail = prefix[n - 1], prefix[n:]
    z_num, z_den = _closure(table, tail, period)
    shift = q - 1  # from a zero-tail letter to the max-tail letter past position n
    m_num, m_den = _closure(table, [c + shift for c in tail], [c + shift for c in period])
    head *= den  # T*D, the head over D**n
    scale = den ** n
    right = _lowest_terms((head + beta[last] * weight) * z_den + weight * p[last] * z_num, scale * z_den)
    left = _lowest_terms((head + beta[last - 1] * weight) * m_den + weight * p[last - 1] * m_num, scale * m_den)
    cross = z_den * m_den
    jump = weight * ((beta[last] - beta[last - 1]) * cross + p[last] * z_num * m_den - p[last - 1] * m_num * z_den)
    return JumpReport(point=x0, left_limit=left, right_limit=right, jump=_lowest_terms(jump, scale * cross))


class ContinuityClass(NamedTuple):
    continuous_everywhere: bool
    jump_count: str | None = None  # "finite" | "countable" when jumps exist


def continuity_class(flips: FlipSet) -> ContinuityClass:
    """Continuous everywhere for the empty and the full flip set; otherwise
    jumps at two-expansion points, finitely many iff the flip set is finite."""
    flips = _as_record(flips, FlipSet, "flips")
    if flips.shift_invariant:
        return ContinuityClass(continuous_everywhere=True)
    if not any(flips.period):
        return ContinuityClass(continuous_everywhere=False, jump_count="finite")
    return ContinuityClass(continuous_everywhere=False, jump_count="countable")


def p_rationals(pv, count: int) -> list[Fraction]:
    """The first `count` interior two-expansion points, rank-major then lexicographic.

    Each such point has a unique terminating address whose last digit is
    nonzero; enumerating (rank, head, last digit) therefore never repeats.
    The list holds `count` Fractions, so a count above DEFAULT_BUDGET is
    BudgetExceeded before any point is built."""
    count = _as_int(count, "count", 0)
    pv = _as_record(pv, ProbVector, "pv")
    if count > DEFAULT_BUDGET:
        raise BudgetExceeded(f"{_shown(count)} points exceed budget {DEFAULT_BUDGET}")
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

class MonotoneWitness(NamedTuple):
    x1: Fraction
    x2: Fraction
    g1: Enclosure
    g2: Enclosure  # x1 < x2 with g1 entirely above g2


def monotone_witness(system: FlipSystem, rank: int) -> MonotoneWitness | None:
    """A certified order reversal, if some position <= rank is flipped.

    With m the first flipped position and head the m-1 zero digits before
    it, none of them flipped, the pair is head+(0,) and head+(1,) with zero
    tails; returns None when no position up to rank is flipped.  x grows
    with the digit.  Both points share the flipped zero tail T in [0, 1]
    after position m, so g(head+(0,)) - g(head+(1,)) =
    p[0]**(m-1) * (p[q-2]*(1-T) + p[q-1]*T) > 0: the pair always reverses
    the order, and no other pair needs to be tried."""
    rank = _as_int(rank, "rank", 1)
    system = _as_record(system, FlipSystem, "system")
    m = system.flips.min_position()
    if m is None or m > rank:
        return None
    q = system.pv.q
    head = (0,) * (m - 1)
    s1, s2 = DigitSeq(head + (0,), q), DigitSeq(head + (1,), q)
    return MonotoneWitness(x1=eval_digits(s1, system.pv), x2=eval_digits(s2, system.pv),
                           g1=eval_flip(s1, system), g2=eval_flip(s2, system))


# ---------------------------------------------------------------------------
# Derivative scan
# ---------------------------------------------------------------------------

class DerivativeTrace(NamedTuple):
    digits: tuple[int, ...]
    ratios: tuple[Fraction, ...]  # image width / cylinder width at ranks 1..M


def derivative_estimate(prefix: Sequence[int], system: FlipSystem, max_rank: int) -> DerivativeTrace:
    """Ratio of the flip-image width to the cylinder width along a digit prefix.

    The rank-m ratio is the product over t <= m of p[f_t]/p[c_t], with p[f_t]
    the weight of the flip-table letter of the digit c_t at position t; its
    decay along Lebesgue-typical prefixes is the singularity diagnostic.

    The denominators D of the weights cancel in the ratio, so it is kept as
    two integer products of the numerators in pv's flip table, over the
    letters and over the plain digits, with one Fraction per rank, built
    from the reduced pair.  Where a letter's weight is the digit's own the
    ratio does not change, and its Fraction is reused."""
    max_rank = _as_int(max_rank, "max_rank", 1)
    pv = _as_record(system, FlipSystem, "system").pv
    q = pv.q
    digits = _check_digits(prefix, q)
    if len(digits) < max_rank:
        raise PrefixTooShort(f"prefix of length {len(digits)} cannot reach rank {_shown(max_rank)}")
    p = pv._flip_table.p
    ratios = []
    image = plain = 1
    ratio = _lowest_terms(1, 1)
    for d, flipped in zip(digits[:max_rank], system.flips.bits()):
        if flipped and p[q + d] != p[d]:
            image *= p[q + d]
            plain *= p[d]
            ratio = _lowest_terms(image, plain)
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
    if not _as_record(system, FlipSystem, "system").shift_invariant:
        raise NotShiftInvariant("closed form needs flips none or all; use integral_series")
    pv = system.pv
    u = sum(system.offset(1, t) * pv.p[t] for t in range(pv.q))
    w = sum(system.weight(1, t) * pv.p[t] for t in range(pv.q))
    return u / (1 - w)


def _partial_sum(system: FlipSystem, k: int) -> tuple[int, int, int]:
    """Partial sum k of the positional-expectation series, in integers.

    Returns (total, weight, scale) with scale = D**(2k):
    sum_{j<=k} v_j prod_{i<j} w_i = total / scale and prod_{j<=k} w_j =
    weight / scale, where position j reads the letter of its flip bit in
    the vector's expectation table (see core._letter_tables).

    Positions 1..k split as preperiod[:k], then n whole periods, then r more
    positions.  The preperiod and the r positions are folded through
    core._forward, the r positions continuing from the sums (T, W) so far.
    One period, folded from (0, 1), has its own sums (B, P) over X =
    D2**L with D2 = D**2, and n whole periods take (T, W) to
    (T*X**n + B*W*G, W*P**n) with G = (X**n - P**n) / (X - P), the
    geometric sum of X**(n-1-i) * P**i, which divides exactly: O(m + L)
    steps for a preperiod of m and a period of L, plus a few integer
    powers."""
    terms, flips = system.pv._expected_table, system.flips
    pre, period = flips.preperiod[:k], flips.period
    n, r = divmod(k - len(pre), len(period))
    total, weight = _forward(terms, pre)
    if n:
        block, block_weight = _forward(terms, period)
        x = terms.den ** len(period)
        x_n, p_n = x ** n, block_weight ** n
        total = total * x_n + block * weight * ((x_n - p_n) // (x - block_weight))
        weight *= p_n
    total, weight = _forward(terms, period[:r], total, weight)
    return total, weight, terms.den ** k


def _series_length(system: FlipSystem, need: float) -> int:
    """Smallest k >= 1 with sum_{j<=k} log(D**2 / w_j) >= need, with w_j the
    weight numerator _partial_sum uses at position j, found in floating
    point in O(len(preperiod) + len(period)) steps from the flip bits."""
    terms = system.pv._expected_table
    decay = [log(terms.den) - log(w) for w in terms.p]
    flips = system.flips
    k = 0
    for bit in flips.preperiod:
        if need <= 0:
            return max(k, 1)
        need -= decay[bit]
        k += 1
    period = [decay[bit] for bit in flips.period]
    whole = sum(period)
    # skip the whole periods that still leave need > 0, then walk the last one
    skip = max(0, ceil(need / whole) - 1)
    need -= skip * whole
    k += skip * len(period)
    for step in cycle(period):
        if need <= 0:
            return max(k, 1)
        need -= step
        k += 1


def integral_series(system: FlipSystem, tol=Fraction(1, 10**12)) -> Enclosure:
    """Positional-expectation series: under Lebesgue measure the digits are
    independent with law p, so the integral is sum_k v_k prod_{j<k} w_j with
    v_k, w_k the expected offset/weight at position k.  The returned
    enclosure adds the geometric tail bound and has width <= tol.

    The sum stops at the first k with v_max * prod_{j<=k} w_j / (1 - w_max)
    <= tol.  That k is estimated with floating-point logs from the flip bits;
    when the estimate exceeds DEFAULT_BUDGET, the call refuses before
    summing.  The tail bound falls strictly with k, so the estimate is then
    confirmed exactly: the test holds at k and fails at k - 1 (or k = 1).
    The test reads only the weight product and the scale, so at k - 1 it
    reads weight // w_k and scale // D**2 from the sum at k.  While the test
    fails at k, the sum is read again at k + 1; while it holds at k - 1, at
    k - 1."""
    tol = as_fraction(tol)
    if tol <= 0:
        raise InvalidArgument(f"tol must be positive, got {_shown(tol)}")
    terms = _as_record(system, FlipSystem, "system").pv._expected_table
    v_max = max(terms.beta)
    # (1 - w_max) * D**2, positive: every weight sum of squares is below 1
    closure = terms.den - max(terms.p)
    # the stop test below in logs: v_max / (closure * tol) <= prod_{j<=k} D**2 / w_j
    need = log(v_max) - log(closure) - log(tol.numerator) + log(tol.denominator)
    k = _series_length(system, need)
    if k > DEFAULT_BUDGET:
        raise BudgetExceeded(f"about {k} series terms to reach tol {_shown(tol)} exceed budget {DEFAULT_BUDGET}")

    def stops(weight: int, scale: int) -> bool:
        # the tail bound v_max * W / (1 - w_max) is v_max * weight / (scale * closure)
        return v_max * weight * tol.denominator <= tol.numerator * scale * closure

    while True:
        total, weight, scale = _partial_sum(system, k)
        if not stops(weight, scale):
            k += 1
        elif k > 1 and stops(weight // terms.p[system.flips.contains(k)], scale // terms.den):
            k -= 1
        else:
            break
    tail = v_max * weight
    return Enclosure._ordered(_lowest_terms(total, scale), _lowest_terms(total * closure + tail, scale * closure))


def integral_riemann(system: FlipSystem, rank: int, budget: int = DEFAULT_BUDGET) -> Enclosure:
    """Exact lower/upper Riemann sums over the rank-r cylinder partition.

    Each cylinder contributes its width times the endpoints of the flip-image
    hull, so the enclosure always contains the true integral and its width is
    the measure-weighted sum of image widths.  The digits are independent
    with law p, so the sums are the rank-r partial sums of the series:
    lower = sum_{k<=r} v_k prod_{j<k} w_j, upper = lower + prod_{k<=r} w_k.
    The budget counts those rank terms, as integral_series counts its own:
    a rank above it is BudgetExceeded."""
    rank = _as_int(rank, "rank", 1)
    budget = _as_int(budget, "budget")
    system = _as_record(system, FlipSystem, "system")
    if rank > budget:
        raise BudgetExceeded(f"{_shown(rank)} series terms exceed budget {_shown(budget)}")
    lower, weight, scale = _partial_sum(system, rank)
    return Enclosure._ordered(_lowest_terms(lower, scale), _lowest_terms(lower + weight, scale))


def cylinder_image(base: Sequence[int], system: FlipSystem) -> tuple[Cylinder, Enclosure]:
    """A cylinder paired with the interval hull of its image under the flip map."""
    return cylinder_bounds(base, _as_record(system, FlipSystem, "system").pv), flip_image(base, system)
