"""Graph generation, entropy-sum dimension diagnostics, and the Moran solver.

For a position-independent flip schedule the graph of the flip map is the
attractor of q planar affine contractions (plain weights horizontally,
flipped weights vertically).  Covering the graph with the rank-r digit
rectangles gives the entropy sum: the total alpha-power of the rectangle
diagonals, whose critical exponent estimates the graph dimension.  The
block fractal built from runs of a marker digit u has Hausdorff dimension
given by the root of a Moran equation over the block weights.
"""

from __future__ import annotations

import gc
import math
import sys
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import mul
from typing import NamedTuple

from .core import DEFAULT_BUDGET, DigitSeq, ProbVector, _as_int, _as_record, _Checked, _lowest_terms
from .core import _lowest_terms_over, _shown
from .errors import BudgetExceeded, EmptyAlphabet, InvalidArgument, NotShiftInvariant, RankTooLarge
from .flips import FlipSystem, eval_flip

#: Fixed crossing level for the dimension bisection.  At alpha = 1 the
#: entropy sum is exactly sqrt(2) whenever the horizontal and vertical
#: side products coincide (monotone graph, or symmetric weights), and
#: sum sqrt(x^2+y^2) >= (sum x + sum y)/sqrt(2) = sqrt(2) in general, so the
#: crossing sits at or just above 1 and the sandwich drives it to 1.
ENTROPY_THRESHOLD = math.sqrt(2.0)

#: Relative margin eta of the checked bracket of graph_dimension_estimate:
#: its proof needs eta > 4 * 2**-50, and 2**-46 leaves a factor of 4
_ETA = 2.0 ** -46


# ---------------------------------------------------------------------------
# Iterated affine maps
# ---------------------------------------------------------------------------

class AffineMap2D(NamedTuple):
    x_scale: Fraction
    x_offset: Fraction
    y_scale: Fraction
    y_offset: Fraction

    def apply(self, point: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
        x, y = point
        return (self.x_scale * x + self.x_offset, self.y_scale * y + self.y_offset)


def ifs_maps(system: FlipSystem) -> list[AffineMap2D]:
    """The q affine contractions whose attractor is the graph of the flip map."""
    if not _as_record(system, FlipSystem, "system").shift_invariant:
        raise NotShiftInvariant("the affine system needs flips none or all")
    pv = system.pv
    return [
        AffineMap2D(
            x_scale=pv.p[c],
            x_offset=pv.beta[c],
            y_scale=system.weight(1, c),
            y_offset=system.offset(1, c),
        )
        for c in range(pv.q)
    ]


def _divided(nums: list[int], scale: int) -> list[float]:
    """The floats nums[i] / scale.  int / int true division is correctly
    rounded, so each equals float of the exact value, with no Fraction
    built."""
    return [num / scale for num in nums]


def _paused(build, *args):
    """build(*args) with the cyclic garbage collector paused, for a builder
    whose result and scratch hold no reference cycle: each Fraction,
    tuple and list it allocates would otherwise count towards a collection
    that can free nothing.  The collector is switched back on afterwards if
    it was on before, also when build raises.  The switch is process-wide,
    so a gc.disable() made by another thread during the build is undone
    when it ends.  The one young-generation pass over the batch then runs
    at the caller's next allocation."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return build(*args)
    finally:
        if enabled:
            gc.enable()


def _graph_points(system: FlipSystem, depth: int, budget: int, coords) -> list[tuple]:
    """The q**depth graph points over the rank-depth cylinder left endpoints,
    in lexicographic base order, the coordinates made one list at a time by
    coords(nums, scale), the values nums[i] / scale.  The arguments and the
    budget are checked first; the points are built by _pair_points with the
    collector paused (see _paused).

    The budget is decided without building q**depth at a depth of
    budget.bit_length() or more: there q**depth >= 2**depth > budget."""
    depth = _as_int(depth, "depth", 0)
    budget = _as_int(budget, "budget")
    q = _as_record(system, FlipSystem, "system").pv.q
    if depth >= budget.bit_length() or q ** depth > budget:
        raise BudgetExceeded(f"{q}**{_shown(depth)} points exceed budget {_shown(budget)}")
    return _paused(_pair_points, system, depth, coords)


def _pair_points(system: FlipSystem, depth: int, coords) -> list[tuple]:
    """The points of _graph_points.

    ends, the q**depth + 1 cylinder ends over scale = D**depth, follow the
    suffix recurrence lo(d1...dn) = beta[d1] * D**(n-1) + p[d1] * lo(d2...dn),
    one position at a time from the last.  A point's y is base j's lower end
    plus its width times t = t_num / t_den, the flipped zero tail past the
    depth, j the index of base i's flipped base.  The cylinders are adjacent,
    so that is ends[j] * (t_den - t_num) + ends[j+1] * t_num over
    scale * t_den, or, when t is 0 or 1, the x of ends[j + t]: then the one
    call over ends makes each distinct value once, and y is ys[j + t] with
    ys the x list.  Otherwise a second call makes the q**depth y values ys,
    and y is ys[j].  ends is dropped once the coordinate lists exist.

    When the flip bits of positions 1..depth agree, j is i (no bit set) or
    q**depth - 1 - i (every bit set), so the y values are a run of ys read
    forwards or backwards, paired by islice without an index.  Only when
    the bits differ is there an index list at, built alongside ends, the
    digit order reversed at a flipped position."""
    pv = system.pv
    q = pv.q
    tail = eval_flip(DigitSeq((), q), system, offset=depth).value
    t_num, t_den = tail.numerator, tail.denominator
    shift = t_num if t_den == 1 else 0
    bits = [system.flips.contains(k) for k in range(1, depth + 1)]
    mixed = len(set(bits)) > 1
    den, beta, p = pv.int_table
    ends, at = [0], [shift]
    scale = size = 1
    for k in range(depth, 0, -1):
        # the lists hold the suffixes at positions k+1..depth; put each digit of position k in front
        ends = [lead + c * x for lead, c in zip([b * scale for b in beta], p) for x in ends]
        if mixed:
            flipped = range(q - 1, -1, -1) if bits[k - 1] else range(q)
            at = [lead + j for lead in [f * size for f in flipped] for j in at]
        scale *= den
        size *= q
    ends.append(scale)
    xs = coords(ends, scale)
    keep = t_den - t_num
    ys = xs if t_den == 1 else coords([lo * keep + hi * t_num for lo, hi in zip(ends, islice(ends, 1, None))],
                                      scale * t_den)
    del ends
    if mixed:
        paired = map(ys.__getitem__, at)
    elif any(bits):  # ys[size - 1 + shift], ..., ys[shift]
        start = len(ys) - shift - size
        paired = islice(reversed(ys), start, start + size)
    else:  # ys[shift], ..., ys[size - 1 + shift]
        paired = islice(ys, shift, shift + size)
    return list(zip(xs, paired))


def ifs_graph_points(system: FlipSystem, depth: int, budget: int = DEFAULT_BUDGET) -> list[tuple[Fraction, Fraction]]:
    """The q**depth graph points over the rank-depth cylinder left endpoints.

    For flips none or all these are the depth-fold compositions of the affine
    maps applied to the seed (0, g(0)).  Any flip set works: the point over a
    cylinder is its image's lower end plus the image width times the value
    of the flipped zero tail from position depth + 1.  Each coordinate is
    a reduced Fraction; when that tail is worth 0 or 1 (flips none or all, a
    finite set ending by the depth) each distinct value is one Fraction, so
    for flips none every y is its x.  The points hold no reference cycle, so
    they are built with the cyclic collector paused (see _paused)."""
    return _graph_points(system, depth, budget, _lowest_terms_over)


# ---------------------------------------------------------------------------
# Entropy sums
# ---------------------------------------------------------------------------

def _flipped_upto(flips, rank: int) -> int:
    """Number of flipped positions among 1..rank, in O(len(preperiod) + len(period)):
    positions 1..rank split as preperiod[:rank], then whole periods, then the rest."""
    pre, per = flips.preperiod[:rank], flips.period
    whole, rest = divmod(rank - len(pre), len(per))
    return sum(pre) + whole * sum(per) + sum(per[:rest])


def _count_groups(total: int, px, py) -> list[tuple[int, int, int]]:
    """(multinomial(total; n), prod px[c]**n_c, prod py[c]**n_c) for every
    digit-count vector n of total positions over q >= 2 digits, n_0
    outermost and each count ascending.

    Depth first, on an explicit stack (q is not capped, so no recursion):
    a node holds a digit c, the positions r still free, and the products so
    far; its children give digit c each count n of 0..r, with C(r, n) ways
    and the powers read from per-digit tables.  A node with no position
    free is a finished group (every remaining count is 0), and the children
    of the second-last digit are finished groups at once, the last digit
    taking the rest.  Each group is one tuple, and no vector is carried
    through the digits it leaves at 0."""
    last = len(px) - 1
    xpow = [list(accumulate(repeat(x, total), mul, initial=1)) for x in px]
    ypow = xpow if py is px else [list(accumulate(repeat(y, total), mul, initial=1)) for y in py]
    groups = []
    emit = groups.append
    stack = [(0, total, 1, 1, 1)]
    pop, push = stack.pop, stack.append
    while stack:
        c, free, mult, wx, wy = pop()
        if not free:
            emit((mult, wx, wy))
        elif c == last - 1:
            xs, ys, xl, yl = xpow[c], ypow[c], xpow[last], ypow[last]
            for n in range(free + 1):
                emit((mult * math.comb(free, n), wx * xs[n] * xl[free - n], wy * ys[n] * yl[free - n]))
        else:
            xs, ys = xpow[c], ypow[c]
            c += 1
            for n in range(free, -1, -1):  # pushed last, n = 0 is popped first
                push((c, free - n, mult * math.comb(free, n), wx * xs[n], wy * ys[n]))
    return groups


def _group_count(system: FlipSystem, rank: int) -> int:
    """The C(a+q-1, q-1) * C(b+q-1, q-1) digit-count groups of _rectangle_groups at a rank."""
    q = system.pv.q
    flipped = _flipped_upto(system.flips, rank)
    return math.comb(flipped + q - 1, q - 1) * math.comb(rank - flipped + q - 1, q - 1)


def _group_rank(system: FlipSystem, rank: int, budget: int) -> int:
    """rank as int, once its digit-count groups (see _rectangle_groups) are
    within the budget; a system that is not a FlipSystem is
    InvalidArgument, after the rank and the budget checks."""
    rank = _as_int(rank, "rank", 0)
    budget = _as_int(budget, "budget")
    groups = _group_count(_as_record(system, FlipSystem, "system"), rank)
    if groups > budget:
        raise BudgetExceeded(f"{_shown(groups)} rectangle groups at rank {_shown(rank)} exceed budget {_shown(budget)}")
    return rank


def _rectangle_groups(system: FlipSystem, rank: int, coords) -> tuple[list[int], list]:
    """The rank-r rectangles grouped by digit counts, as two lists: the
    multiplicities, and the diag_sq values made by one call coords(nums,
    scale) over scale = D**(2*rank).

    A rectangle's sides depend only on the digit counts m over the a flipped
    positions up to the rank and n over the b = rank - a unflipped ones:
    x = prod p_c**(m_c+n_c), y = prod p_{q-1-c}**m_c * p_c**n_c, so
    diag_sq = w_n**2 * (x_m**2 + y_m**2) with w_n = prod p_c**n_c.  The two
    group lists are built once and crossed, flipped groups outermost, into
    the C(a+q-1, q-1) * C(b+q-1, q-1) groups that _group_rank counts."""
    flipped = _flipped_upto(system.flips, rank)
    den, _, p = system.pv.int_table
    scale = den ** (2 * rank)
    # side products are integers over D**rank; a flipped digit c reads the weight of flip-table letter q + c
    sides = [(mult, x * x + y * y) for mult, x, y in _count_groups(flipped, p, system.pv._flip_table.p[len(p):])]
    plain = [(mult, w * w) for mult, w, _ in _count_groups(rank - flipped, p, p)]
    return [m * n for m, _ in sides for n, _ in plain], coords([s * w for _, s in sides for _, w in plain], scale)


def _diagonal_pairs(system: FlipSystem, rank: int) -> list[tuple[int, Fraction]]:
    """The (multiplicity, diag_sq) pairs of rectangle_diagonals_sq."""
    return list(zip(*_rectangle_groups(system, rank, _lowest_terms_over)))


def rectangle_diagonals_sq(system: FlipSystem, rank: int, budget: int = DEFAULT_BUDGET) -> list[tuple[int, Fraction]]:
    """Exact squared diagonals of the occupied rank-r covering rectangles,
    as (multiplicity, diag_sq) pairs, one per digit-count group (see
    _rectangle_groups): the multiplicities add up to q**rank.  A diagonal may
    recur across groups.  The budget caps the groups built.  The pairs hold
    no reference cycle, so they are built with the cyclic collector paused
    (see _paused)."""
    return _paused(_diagonal_pairs, system, _group_rank(system, rank, budget))


def _float_groups(system: FlipSystem, rank: int, budget: int) -> tuple[list[float], list[float]]:
    """The groups of _rectangle_groups as floats: the multiplicities and the
    squared diagonals, each correctly rounded.  A multiplicity past the float
    range, or a squared diagonal below the smallest normal float, is
    RankTooLarge: the float entropy sum would be garbage."""
    rank = _group_rank(system, rank, budget)
    mults, d2s = _rectangle_groups(system, rank, _divided)
    try:
        mults = [float(m) for m in mults]
    except OverflowError:
        raise RankTooLarge(f"rank {_shown(rank)}: a rectangle multiplicity exceeds the float range") from None
    if min(d2s) < sys.float_info.min:
        raise RankTooLarge(f"rank {_shown(rank)}: a squared diagonal is below the float range")
    return mults, d2s


def _entropy(mults: list[float], d2s: list[float], alpha: float) -> float:
    """Sum of mult * d2**(alpha/2) over the float groups, rounded once."""
    return math.fsum(map(mul, mults, map(pow, d2s, repeat(alpha / 2.0))))


def entropy_sum(system: FlipSystem, alpha, rank: int, budget: int = DEFAULT_BUDGET) -> float:
    """Sum over the q**rank occupied rank-r rectangles of diagonal**alpha.

    Diagonals squared are exact rationals; only the alpha/2 power is floating
    point (num / den is correctly rounded, so it equals float(Fraction)).
    alpha = 0 counts rectangles, and the sum is strictly decreasing in alpha.
    A rank whose groups leave the float range is RankTooLarge, and an alpha
    that takes a power or the sum past it is InvalidArgument."""
    try:
        alpha = float(alpha)
    except (TypeError, ValueError, OverflowError):
        raise InvalidArgument(f"alpha must be finite and >= 0, got {_shown(alpha)!r}") from None
    if not 0 <= alpha < math.inf:
        raise InvalidArgument(f"alpha must be finite and >= 0, got {alpha}")
    rank = _as_int(rank, "rank", 1)
    groups = _float_groups(system, rank, budget)
    try:
        return _entropy(*groups, alpha)
    except OverflowError:
        raise InvalidArgument(f"alpha {alpha} takes the entropy sum past the float range") from None


def _newton(mults: list[float], d2s: list[float], threshold: float) -> tuple[float, float] | None:
    """A guess at the alpha where the entropy sum crosses threshold, and the
    slope of ln E there: Newton's method on ln E from alpha = 1, until ln E
    is within eta of ln threshold.  None when it does not get there."""
    rates = [math.log(d2) / 2.0 for d2 in d2s]  # d/d alpha of ln(d2**(alpha/2))
    target = math.log(threshold)
    alpha = 1.0
    for _ in range(64):
        terms = list(map(mul, mults, map(pow, d2s, repeat(alpha / 2.0))))
        total = math.fsum(terms)
        slope = math.fsum(map(mul, terms, rates)) / total
        if not slope < 0.0:
            return None
        gap = math.log(total) - target
        alpha -= gap / slope
        if abs(gap) <= _ETA:
            return alpha, slope
    return None


def _bracket(mults: list[float], d2s: list[float], threshold: float) -> tuple[float, float]:
    """Checked ends (below, above) around the alpha where the entropy sum
    crosses threshold: the sum exceeds it at every alpha <= below and does
    not at every alpha >= above (see graph_dimension_estimate).

    The ends are a -+ 4 * eta / |d ln E / d alpha| around Newton's guess a,
    each kept only if its evaluation clears threshold by the relative margin
    eta; an end not kept is -inf or inf.  The narrower the bracket, the fewer
    bisection steps fall inside it and are evaluated."""
    unchecked = (-math.inf, math.inf)
    # the sum must fall in alpha, and its underflow error M * 2**-1072 stay within T * eta / 8
    if max(d2s) >= 1.0 or math.ldexp(sum(mults), -1069) > threshold * _ETA:
        return unchecked
    try:
        guess = _newton(mults, d2s, threshold)
        if guess is None:
            return unchecked
        alpha, slope = guess
        width = 4.0 * _ETA / -slope
        below, above = alpha - width, alpha + width
        return (below if _entropy(mults, d2s, below) > threshold * (1.0 + _ETA) else -math.inf,
                above if _entropy(mults, d2s, above) < threshold * (1.0 - _ETA) else math.inf)
    except (OverflowError, ZeroDivisionError):
        return unchecked  # a guess so far off that a power leaves the float range


def graph_dimension_estimate(system: FlipSystem, ranks, budget: int = DEFAULT_BUDGET) -> dict[int, float]:
    """Per-rank crossing exponents of the entropy sum at the fixed threshold.

    For each rank, bisects the alpha where the (strictly decreasing) entropy
    sum crosses sqrt(2), for 64 halvings or until the float midpoint equals an
    end, whichever is first; the estimates trend to 1.  The budget caps the
    digit-count groups of all ranks together, counted before any is built.
    Every rank has at least one group, so at most budget + 1 entries of
    ranks are read, and more than budget ranks are refused without reading
    the rest.  A rank whose groups leave the float range is RankTooLarge,
    found at the largest rank before any is estimated.

    A step whose alpha lies at or past an end of the checked bracket (see
    _bracket) takes that end's answer without evaluating the sum; any other
    step evaluates it, so every estimate is the one of evaluating every step.
    Sound when every d2 < 1 and U = M * 2**-1072 <= T * eta / 8 (M the float
    sum of the multiplicities, T the threshold, eta = 2**-46); else no end
    is kept.  Past the float range check M is at most about 2**512 (the
    widths and the heights each sum to 1, so some group has x + y <= 2 / M
    and d2 <= 4 / M**2, and every d2 >= 2**-1022), so U <= about 2**-560
    and the underflow guard fires only for T below about 2**-511.  The
    exact sum S(h) of mult * d2**h over the same floats is then strictly
    decreasing in h = fl(alpha / 2), itself monotone in alpha.  An
    evaluation E is within eps * S + U of S, eps = 2**-50: pow within 2 ulps
    (a subnormal power within 2**-1073 absolute), one rounding per product,
    and fsum rounds the exact sum of the terms once.  A kept below has
    E(below) > T * (1 + eta), so S(below) > T * (1 + 7 * eta / 8) / (1 + eps),
    and every alpha <= below has E(alpha) >= (1 - eps) * S(below) - U >
    T * (1 + 3 * eta / 4 - 3 * eps) > T, since eta = 2**-46 > 4 * eps: an
    evaluation would say "exceeds" too.  A kept above gives E(alpha) < T for
    every alpha >= above alike."""
    budget = _as_int(budget, "budget")
    if not _as_record(system, FlipSystem, "system").shift_invariant:
        raise NotShiftInvariant("dimension estimation needs flips none or all")
    try:
        ranks = list(islice(ranks, min(max(budget, 0) + 1, sys.maxsize)))
    except TypeError:
        raise InvalidArgument(f"ranks must be an iterable of integers, got {_shown(ranks)!r}") from None
    ranks = [_as_int(rank, "rank") for rank in ranks]
    if any(rank < 1 for rank in ranks):
        raise InvalidArgument(f"ranks must be >= 1, got {_shown(ranks)}")
    if any(b <= a for a, b in zip(ranks, ranks[1:])):
        raise InvalidArgument(f"ranks must be strictly increasing, got {_shown(ranks)}")
    if len(ranks) > budget:
        raise BudgetExceeded(f"more than {_shown(budget)} ranks, each with at least one rectangle group, "
                             f"exceed budget {_shown(budget)}")
    groups = sum(_group_count(system, rank) for rank in ranks)
    if groups > budget:
        raise BudgetExceeded(f"{_shown(groups)} rectangle groups over {len(ranks)} ranks exceed budget {_shown(budget)}")
    threshold = ENTROPY_THRESHOLD
    out: dict[int, float] = {}
    # the largest rank has the largest multiplicity and the smallest diagonal:
    # refuse there before estimating any rank
    top = _float_groups(system, ranks[-1], budget) if ranks else None
    for rank in ranks:
        mults, d2s = top if rank == ranks[-1] else _float_groups(system, rank, budget)
        below, above = _bracket(mults, d2s, threshold)

        def exceeds(alpha: float) -> bool:
            return alpha <= below or (alpha < above and _entropy(mults, d2s, alpha) > threshold)

        lo, hi = 0.0, 1.0
        while hi < 64.0 and exceeds(hi):
            hi *= 2.0
        for _ in range(64):
            mid = (lo + hi) / 2.0
            if mid == lo or mid == hi:
                break  # a fixed point: every further halving leaves (lo + hi) / 2 at mid
            if exceeds(mid):
                lo = mid
            else:
                hi = mid
        out[rank] = (lo + hi) / 2.0
    return out


# ---------------------------------------------------------------------------
# Block fractals and the Moran equation
# ---------------------------------------------------------------------------

class _MoranFields(NamedTuple):
    pv: ProbVector
    u: int


class MoranSpec(_Checked, _MoranFields):
    """The block fractal built from runs of the marker digit u: admissible
    streams are concatenations of blocks (u repeated i-1 times, then the
    digit i), with i ranging over the nonzero non-u digits."""

    __slots__ = ()

    def __new__(cls, pv: ProbVector, u: int):
        _as_record(pv, ProbVector, "pv").check_digit(u)
        return tuple.__new__(cls, (pv, u))

    @property
    def alphabet(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.pv.q) if i != self.u)

    def block(self, i: int) -> tuple[int, ...]:
        return (self.u,) * (i - 1) + (i,)

    def block_weights(self) -> dict[int, Fraction]:
        pv = self.pv
        return {i: pv.p[i] * pv.p[self.u] ** (i - 1) for i in self.alphabet}


def moran_dimension(spec: MoranSpec, tol: float | Fraction = 1e-12) -> float:
    """Root alpha in [0, 1] of sum of block_weight**alpha = 1.

    The sum is strictly decreasing with value |alphabet| at 0 and < 1 at 1;
    degenerate alphabets (empty product mass) return 0.  Stops when the
    residual |F(alpha) - 1| is within tol, a real number compared exactly:
    a Fraction tol may lie outside the float range."""
    try:
        positive = tol > 0
    except TypeError:
        raise InvalidArgument(f"tol must be a real number, got {_shown(tol)!r}") from None
    if not positive:
        raise InvalidArgument(f"tol must be positive, got {_shown(tol)}")
    weights = [float(w) for w in _as_record(spec, MoranSpec, "spec").block_weights().values()]
    if not weights:
        raise EmptyAlphabet(f"no admissible block digits for q={spec.pv.q}, u={spec.u}")
    if len(weights) <= 1:
        return 0.0
    lo, hi = 0.0, 1.0
    mid = 0.5
    for _ in range(200):
        mid = (lo + hi) / 2.0
        residual = math.fsum(w ** mid for w in weights) - 1.0
        if abs(residual) <= tol:
            return mid
        if residual > 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def _moran_automaton(spec: MoranSpec) -> list[list[tuple[int, int]]]:
    """The run-length automaton of the block set.  Entry `run` lists, by digit,
    the (digit, next run) steps after `run` copies of the marker: extend the
    run while some longer block allows it, or close the block with the digit
    run + 1.  Every state has a step; the table is empty with the alphabet."""
    alphabet = spec.alphabet
    if not alphabet:
        return []
    max_sym = max(alphabet)
    table = []
    for run in range(max_sym):
        moves = []
        if run < max_sym - 1:
            moves.append((spec.u, run + 1))
        if run + 1 in alphabet:
            moves.append((run + 1, 0))
        table.append(sorted(moves))
    return table


def _run_sums(automaton: list[list[tuple[int, int]]], rank: int, budget: int, weight) -> list[int]:
    """The run-length recurrence over rank positions: per end run, the sum
    over the consistent bases ending there of the product of weight[digit].
    It counts the bases alongside and refuses more than `budget` at the
    first level over it: every state has a step, so the count never falls."""
    counts = [1] + [0] * (len(automaton) - 1)
    sums = counts[:]
    for _ in range(rank):
        next_counts = [0] * len(automaton)
        next_sums = [0] * len(automaton)
        for run, moves in enumerate(automaton):
            for digit, next_run in moves:
                next_counts[next_run] += counts[run]
                next_sums[next_run] += sums[run] * weight[digit]
        counts, sums = next_counts, next_sums
        if sum(counts) > budget:
            raise BudgetExceeded(f"more than {_shown(budget)} consistent bases at rank {_shown(rank)}")
    return sums


def _moran_paths(automaton: list[list[tuple[int, int]]], length: int, made: dict) -> list[list[tuple]]:
    """Per start run, the (digits, end run) paths of `length` >= 1 digits,
    in lexicographic order: each path of the first length // 2 digits
    joined to each path of the rest from its end run.  made holds the
    tables built so far by length; the lengths halve, so O(log length) are
    built, and each costs its output: with r runs, one block digit costs
    O(r * length), not the O(length**2) of adding one digit at a time."""
    paths = made.get(length)
    if paths is None:
        if length == 1:
            paths = [[((digit,), end) for digit, end in moves] for moves in automaton]
        else:
            heads = _moran_paths(automaton, length // 2, made)
            rests = _moran_paths(automaton, length - length // 2, made)
            paths = [[(head + tail, end) for head, mid in from_run for tail, end in rests[mid]] for from_run in heads]
        made[length] = paths
    return paths


def _moran_bases(automaton: list[list[tuple[int, int]]], rank: int) -> list[tuple[int, ...]]:
    """The bases of moran_set_cylinders: each path of rank // 2 digits from
    run 0 joined to each path of the rest from its end run (see
    _moran_paths)."""
    half, made = rank // 2, {}
    tails = [[tail for tail, _ in from_run] for from_run in _moran_paths(automaton, rank - half, made)]
    if not half:
        return tails[0]
    return [head + tail for head, mid in _moran_paths(automaton, half, made)[0] for tail in tails[mid]]


def moran_set_cylinders(spec: MoranSpec, rank: int, budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """All rank-length digit bases consistent with membership in the block set,
    in lexicographic order.

    A base is consistent iff it is a prefix of some block concatenation, i.e.
    a path of the run-length automaton from run length 0.  The bases are
    counted first, so more than `budget` of them are refused before any is
    built.  Paths are then built by halving their length (see _moran_paths),
    so with one block digit, where the one base grows with the rank, the
    cost stays linear in the rank.  The bases hold no reference cycle, so
    they are built with the cyclic collector paused (see _paused)."""
    rank = _as_int(rank, "rank", 1)
    budget = _as_int(budget, "budget")
    automaton = _moran_automaton(_as_record(spec, MoranSpec, "spec"))
    if not automaton:
        return []
    _run_sums(automaton, rank, budget, (1,) * spec.pv.q)  # refuses before any base is built
    return _paused(_moran_bases, automaton, rank)


def covering_measure(spec: MoranSpec, rank: int, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Total length of the rank-r cylinders covering the block set; decreases
    to 0, certifying zero Lebesgue measure.

    The run-length recurrence that `moran_set_cylinders` counts with, each
    step weighted by its digit's weight: per run length, the total width of
    the consistent bases ending there as an integer over D**k (D = pv.den),
    so no base is built.  Refuses more than `budget` consistent bases, as
    `moran_set_cylinders` does.  The work is O(rank * q), but the cap is
    kept: with two or more block digits the base count grows geometrically
    with the rank, so the cap bounds the rank and with it the D**rank
    denominator of the result."""
    rank = _as_int(rank, "rank", 1)
    budget = _as_int(budget, "budget")
    automaton = _moran_automaton(_as_record(spec, MoranSpec, "spec"))
    if not automaton:
        return _lowest_terms(0, 1)
    den, _, p = spec.pv.int_table
    return _lowest_terms(sum(_run_sums(automaton, rank, budget, p)), den ** rank)
