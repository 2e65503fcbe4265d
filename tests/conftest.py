import math
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from probdigits import (
    BudgetExceeded,
    DigitSeq,
    Enclosure,
    EndpointOneSided,
    FlipSet,
    InvalidArgument,
    JumpReport,
    MonotoneWitness,
    NotPRational,
    OutOfUnitInterval,
    PointKind,
    ProbDigitsError,
    ProbVector,
    as_fraction,
    eval_digits,
    eval_flip,
    flip_digits,
    make_prob_vector,
    rectangle_diagonals_sq,
)
from probdigits.core import _as_int
from probdigits.fractal import _moran_automaton

try:
    from hypothesis import settings
except ImportError:  # test_properties.py skips itself without Hypothesis
    pass
else:
    # the same examples on every run, no time limit on a shared host, and no
    # example database written to .hypothesis/
    settings.register_profile("probdigits", derandomize=True, deadline=None, database=None)
    settings.load_profile("probdigits")

#: the three asymmetric vectors used across the suite
ASYM_VECTORS = {
    2: make_prob_vector([Fraction(1, 4), Fraction(3, 4)]),
    3: make_prob_vector([Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)]),
    5: make_prob_vector([Fraction(1, 15), Fraction(2, 15), Fraction(1, 5), Fraction(4, 15), Fraction(1, 3)]),
}


@pytest.fixture
def uniform2():
    return ProbVector.uniform(2)


@pytest.fixture
def pv3():
    return ASYM_VECTORS[3]


@pytest.fixture
def asym2():
    return ASYM_VECTORS[2]


def random_seq(rng: random.Random, q: int, max_len: int = 12, tails=("zero", "max")) -> DigitSeq:
    digits = tuple(rng.randrange(q) for _ in range(rng.randint(0, max_len)))
    return DigitSeq(digits, q, rng.choice(tails))


def random_fraction(rng: random.Random, max_den: int = 10**6) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def cylinder_images(system, rank: int):
    """Every rank-r cylinder [x_lo, x_lo + x_w] with the hull [y_lo, y_lo + y_w]
    of its flip image, in lexicographic base order.

    All four values are integer numerators over D**rank, D = system.pv.den, so
    the walk does no Fraction arithmetic.  Depth-first over an explicit stack:
    O(rank * q) memory.
    """
    den, beta, p = system.pv.int_table
    cells = list(zip(beta, p))
    # rows[k][c]: (x offset, x weight, y offset, y weight) of digit c at position k + 1;
    # a flipped position reads the complement q-1-c, i.e. the cells in reverse
    rows = []
    for k in range(1, rank + 1):
        image = cells[::-1] if system.flips.contains(k) else cells
        rows.append([x + y for x, y in zip(cells, image)])
    if rank == 0:
        yield 0, 1, 0, 1
        return
    last = rank - 1
    stack = [(0, 0, 1, 0, 1)]
    while stack:
        k, x_lo, x_w, y_lo, y_w = stack.pop()
        x_lo *= den
        y_lo *= den
        if k == last:
            for bx, px, by, py in rows[k]:
                yield x_lo + x_w * bx, x_w * px, y_lo + y_w * by, y_w * py
        else:
            stack.extend((k + 1, x_lo + x_w * bx, x_w * px, y_lo + y_w * by, y_w * py)
                         for bx, px, by, py in reversed(rows[k]))


def riemann_by_walk(system, rank: int) -> tuple[Fraction, Fraction]:
    """Lower and upper Riemann sums by walking every rank-r cylinder: the sum of
    width * image lower end and of width * image upper end."""
    lower = 0
    upper = 0
    for _, x_w, y_lo, y_w in cylinder_images(system, rank):
        lower += x_w * y_lo
        upper += x_w * (y_lo + y_w)
    scale = system.pv.den ** (2 * rank)
    return Fraction(lower, scale), Fraction(upper, scale)


def diagonals_by_walk(system, rank: int) -> list[tuple[int, Fraction]]:
    """Squared diagonals of the rank-r rectangles by walking every cylinder:
    one (1, x_w**2 + y_w**2) pair per cylinder, in lexicographic base order."""
    scale = system.pv.den ** (2 * rank)
    return [(1, Fraction(x_w * x_w + y_w * y_w, scale)) for _, x_w, _, y_w in cylinder_images(system, rank)]


def dimension_by_bisection(system, rank: int, threshold: float) -> float:
    """The alpha where the rank-r entropy sum crosses threshold: the upper end
    doubles from 1 while the sum there exceeds it, up to 64, then 64 halvings,
    with no stop at a fixed point."""
    diags = [(mult, float(d2)) for mult, d2 in rectangle_diagonals_sq(system, rank)]

    def total(alpha: float) -> float:
        return math.fsum(mult * d2 ** (alpha / 2.0) for mult, d2 in diags)

    lo, hi = 0.0, 1.0
    while total(hi) > threshold and hi < 64.0:
        hi *= 2.0
    for _ in range(64):
        mid = (lo + hi) / 2.0
        if total(mid) > threshold:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def moran_bases_by_walk(spec, rank: int, budget: int) -> list[tuple[int, ...]]:
    """The consistent rank-length bases of a block set, depth-first over the
    run-length automaton from run 0, in lexicographic order; refuses as soon
    as one base more than `budget` is reached."""
    automaton = _moran_automaton(spec)
    if not automaton:
        return []
    out: list[tuple[int, ...]] = []

    def walk(path: list[int], run: int):
        if len(path) == rank:
            if len(out) >= budget:
                raise BudgetExceeded(f"more than {budget} consistent bases at rank {rank}")
            out.append(tuple(path))
            return
        for digit, next_run in automaton[run]:
            path.append(digit)
            walk(path, next_run)
            path.pop()

    walk([], 0)
    return out


def count_groups_by_words(total: int, px, py) -> list[tuple[int, int, int]]:
    """The digit-count groups of fractal._count_groups by brute force: every
    word of total digits, from itertools.product, is counted into its count
    vector with a Counter, so a vector's multiplicity is the number of its
    words, and its products are those of its first word's letters.  Sorting
    the vectors puts n_0 outermost and each count ascending."""
    q = len(px)
    mults: Counter = Counter()
    first = {}
    for word in product(range(q), repeat=total):
        counts = [0] * q
        for c in word:
            counts[c] += 1
        mults[tuple(counts)] += 1
        first.setdefault(tuple(counts), word)
    return [(mults[n], math.prod(px[c] for c in first[n]), math.prod(py[c] for c in first[n])) for n in sorted(mults)]


def diagonal_multiset(pairs) -> dict[Fraction, int]:
    """Squared diagonal -> total multiplicity over (multiplicity, diag_sq) pairs."""
    out: dict[Fraction, int] = {}
    for mult, d2 in pairs:
        out[d2] = out.get(d2, 0) + mult
    return out


# ---------------------------------------------------------------------------
# Fraction oracles for the integer Horner kernel in core
# ---------------------------------------------------------------------------

def cylinder_by_fractions(base, pv) -> tuple[Fraction, Fraction]:
    """Cylinder endpoints in Fractions: lo by reversed Horner over the base,
    hi = lo + the product of the base digit weights."""
    lo = Fraction(0)
    width = Fraction(1)
    for d in reversed(base):
        lo = pv.beta[d] + pv.p[d] * lo
    for d in base:
        width *= pv.p[d]
    return lo, lo + width


def orbit_by_fractions(x, pv, depth: int) -> tuple[list[int], list[Fraction]]:
    """The first depth steps of the shift orbit of x in Fractions: the digits
    d_1..d_depth and the states s_0 = x, s_1, ..., s_depth, where d_k is the
    cell of s_(k-1) (the largest c with beta[c] <= s_(k-1), clamped to q-1)
    and s_k = (s_(k-1) - beta[d_k]) / p[d_k].  The orbit does not stop at 0
    or 1; both are fixed points."""
    state = Fraction(x)
    digits: list[int] = []
    states = [state]
    for _ in range(depth):
        c = min(bisect_right(pv.beta, state) - 1, pv.q - 1)
        digits.append(c)
        state = (state - pv.beta[c]) / pv.p[c]
        states.append(state)
    return digits, states


def horner_sum(prefix_terms, cycle_terms) -> Fraction:
    """Exact value of an offset/weight series with a periodic continuation.

    Terms are (offset, weight) pairs; the series is
    o_1 + w_1*(o_2 + w_2*(o_3 + ...)) with `cycle_terms` repeating forever
    after `prefix_terms`.  The product of the cycle weights must lie in
    (-1, 1) for the series to converge, to partial / (1 - prod(w)); a cycle
    whose weight product is not below 1 in absolute value is InvalidArgument,
    and so is a term that is not a pair of rationals (see as_fraction).
    """
    try:
        prefix_terms = [(o, w) for o, w in prefix_terms]
        cycle_terms = [(o, w) for o, w in cycle_terms]
    except (TypeError, ValueError):
        raise InvalidArgument("series terms must be iterables of (offset, weight) pairs") from None
    value = Fraction(0)
    if cycle_terms:
        partial = Fraction(0)
        weight = Fraction(1)
        for o, w in cycle_terms:
            partial += weight * as_fraction(o)
            weight *= as_fraction(w)
        if abs(weight) >= 1:
            raise InvalidArgument(f"cycle weight product {weight} is not below 1 in absolute value")
        value = partial / (1 - weight)
    for o, w in reversed(prefix_terms):
        value = as_fraction(o) + as_fraction(w) * value
    return value


def eval_digits_by_horner(seq: DigitSeq, pv) -> Fraction:
    """Value of a digit stream through the Fraction horner_sum."""
    return horner_sum([(pv.beta[d], pv.p[d]) for d in seq.digits],
                      [(pv.beta[d], pv.p[d]) for d in seq.tail])


def bernoulli_cdf_by_digits(x: Fraction, pv) -> Fraction:
    """The weighted CDF by long division: base-q digits of x until a remainder
    repeats, then horner_sum over the preperiod and the period."""
    if x < 0:
        return Fraction(0)
    if x >= 1:
        return Fraction(1)
    num, den = x.numerator, x.denominator
    digits: list[int] = []
    seen: dict[int, int] = {}
    while num not in seen:
        seen[num] = len(digits)
        d, num = divmod(pv.q * num, den)
        digits.append(d)
    terms = [(pv.beta[d], pv.p[d]) for d in digits]
    return horner_sum(terms[:seen[num]], terms[seen[num]:])


def block_table_by_levels(table):
    """encode's block table built one rank at a time, as (k, (den, lefts,
    weights), words): k the largest with q**k <= 256, and () when k < 2.
    Each level extends every word by every digit c, taking its left end
    and weight (l, w) over D**j to (l*D + beta[c]*w, w*p[c]) over D**(j+1)."""
    den, beta, p = table
    q = len(p)
    k = max(j for j in range(1, 9) if q ** j <= 256)
    if k < 2:
        return ()
    lefts, weights, words = [0], [1], [b""]
    cells = range(q)
    for _ in range(k):
        lefts = [left * den + beta[c] * w for left, w in zip(lefts, weights) for c in cells]
        weights = [w * p[c] for w in weights for c in cells]
        words = [word + bytes((c,)) for word in words for c in cells]
    scale = den ** k
    return k, (scale, (*lefts, scale), tuple(weights)), b"".join(words)


def expected_terms(system, count: int) -> list[tuple[Fraction, Fraction]]:
    """(v_k, w_k) for positions k = 1..count: the expected offset and weight
    of a digit drawn with law p at position k, read per digit from
    FlipSystem."""
    pv = system.pv
    return [(sum(p * system.offset(k, d) for d, p in enumerate(pv.p)),
             sum(p * system.weight(k, d) for d, p in enumerate(pv.p))) for k in range(1, count + 1)]


def integral_by_horner_sum(system) -> Fraction:
    """The exact integral of the flip map for an eventually periodic flip set:
    the expected terms over the preperiod and one period, closed by
    horner_sum."""
    m = len(system.flips.preperiod)
    terms = expected_terms(system, m + len(system.flips.period))
    return horner_sum(terms[:m], terms[m:])


def integral_series_by_fractions(system, tol: Fraction) -> tuple[Fraction, Fraction]:
    """The positional-expectation series summed in Fractions until the
    geometric tail bound v_max * W / (1 - w_max) is at most tol."""
    lo, hi, _ = series_by_fractions(system, tol)
    return lo, hi


def series_by_fractions(system, tol: Fraction) -> tuple[Fraction, Fraction, int]:
    """integral_series_by_fractions with the number of terms it summed."""
    pv = system.pv
    flipped = pv.p[::-1]
    v_plain = sum(b * w for b, w in zip(pv.beta, pv.p))
    v_flip = sum(b * w for b, w in zip(pv.beta[-2::-1], pv.p))
    w_plain = sum(w * w for w in pv.p)
    w_flip = sum(a * w for a, w in zip(flipped, pv.p))
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
            return total, total + tail, k
        k += 1


# ---------------------------------------------------------------------------
# Fraction and two-walk oracles for the pointwise functions
# ---------------------------------------------------------------------------

def _alt_weight(pv, k: int, d: int) -> Fraction:
    # odd positions keep the digit weight, even positions take the complement's
    return pv.p[d] if k % 2 == 1 else pv.p[pv.q - 1 - d]


def _alt_offset(pv, k: int, d: int) -> Fraction:
    # signed series term: +beta[d] at odd k, -(1 - beta[q-1-d]) at even k
    if k % 2 == 1:
        return pv.beta[d]
    return -(1 - pv.beta[pv.q - 1 - d])


def eval_nega_by_fractions(seq: DigitSeq, pv) -> Fraction:
    """The alternating expansion's three pieces in Fractions, one per term:
    the leading offset beta[d_1], the signed series through horner_sum, and
    the sum over odd n of the first n weights' product, closed over one
    common period of the tail and the parity.

    Why this is the flip map at EVEN_POSITIONS, which eval_nega evaluates:
    the signed series' weights, p[d] at odd k and p[q-1-d] at even k, are
    the flip table's weights at EVEN_POSITIONS.  Regroup term by term.  At
    each odd n the correction prod_{j<=n} w_j joins that position's
    offset, since beta[d] + p[d] = beta[d+1] (at n = 1 this takes in the
    leading offset too), and each even position's offset
    -(1 - beta[q-1-d]) is beta[q-1-d] - 1.  Scaled by the weights before
    it, the +p[d] of an odd position n is the product of the first n
    weights, and so is the -1 of the even position n + 1: the two cancel,
    leaving offset beta[d] at odd and beta[q-1-d] at even positions, the
    flip table's letters d and q + d.  The series converges absolutely, so
    the regrouping keeps its value."""
    m = len(seq.digits)
    span = math.lcm(len(seq.tail), 2)
    head = max(m, 1)

    first = pv.beta[seq.digit_at(1)]

    def at(k: int):
        d = seq.digit_at(k)
        return _alt_offset(pv, k, d), _alt_weight(pv, k, d)

    # signed series: zero out the k=1 offset, keep its weight for the Horner fold
    pre = []
    for k in range(1, head + 1):
        o, w = at(k)
        pre.append((Fraction(0) if k == 1 else o, w))
    cycle = [at(k) for k in range(head + 1, head + span + 1)]
    signed = horner_sum(pre, cycle)

    # correction: sum over odd n of the product of the first n weights
    weights = [at(k)[1] for k in range(1, head + span + 1)]
    running = Fraction(1)
    head_part = Fraction(0)
    cycle_part = Fraction(0)
    cycle_product = Fraction(1)
    for n, w in enumerate(weights, start=1):
        running *= w
        if n <= head:
            if n % 2 == 1:
                head_part += running
        else:
            cycle_product *= w
            if n % 2 == 1:
                cycle_part += running
    correction = head_part + cycle_part / (1 - cycle_product)
    return first + signed + correction


def monotone_witness_by_search(system, rank: int) -> MonotoneWitness | None:
    """monotone_witness by search: the q points head+(c,) with zero tails,
    head the m-1 zeros before the first flipped position m, and the first pair
    c1 < c2 (lexicographic) with x ordered and the flip values reversed; None
    when no position up to rank is flipped or no pair reverses."""
    m = system.flips.min_position()
    if m is None or m > rank:
        return None
    q = system.pv.q
    seqs = [DigitSeq((0,) * (m - 1) + (c,), q) for c in range(q)]
    xs = [eval_digits(s, system.pv) for s in seqs]
    gs = [eval_flip(s, system) for s in seqs]
    for c1 in range(q):
        for c2 in range(c1 + 1, q):
            if xs[c1] < xs[c2] and gs[c1].lo > gs[c2].hi:
                return MonotoneWitness(x1=xs[c1], x2=xs[c2], g1=gs[c1], g2=gs[c2])
    return None


def eval_flip_by_digits(seq: DigitSeq, system, offset: int = 0) -> Enclosure:
    """eval_flip through a checked DigitSeq: flip_digits on the flip set seen
    from position offset + 1, then eval_digits on the flipped sequence."""
    shifted = FlipSet.mask(*system.flips.pattern_from(_as_int(offset, "offset", 0) + 1))
    flipped = flip_digits(seq, shifted)
    return Enclosure.point(eval_digits(flipped, system.pv))


def flip_outcome(evaluate, seq: DigitSeq, system, offset):
    """The enclosure, or the type and message of the ProbDigitsError raised."""
    try:
        return evaluate(seq, system, offset)
    except ProbDigitsError as exc:
        return type(exc), str(exc)


def jump_at_by_two_walks(x0, system, max_depth: int = 128) -> JumpReport:
    """jump_at by another route: the Fraction orbit of orbit_by_fractions,
    with no integer walk and no certificate, decides the point over its
    states s_0 .. s_N, N = max_depth (p-rational at the first state 0,
    p-irrational at the first state that repeats an earlier one, else
    undetermined) and reads its zero-tail address, and eval_flip evaluates
    both addresses.  The endpoints are refused first, as jump_at does."""
    x0 = as_fraction(x0)
    if not 0 <= x0 <= 1:
        raise OutOfUnitInterval(f"{x0} not in [0, 1]")
    if x0 == 0 or x0 == 1:
        raise EndpointOneSided(f"{x0} admits only a one-sided limit")
    digits, states = orbit_by_fractions(x0, system.pv, max_depth)
    kind, seen = PointKind.UNDETERMINED, set()
    for rank, state in enumerate(states):
        if state == 0 or state in seen:
            kind = PointKind.P_RATIONAL if state == 0 else PointKind.P_IRRATIONAL
            break
        seen.add(state)
    if kind is not PointKind.P_RATIONAL:
        raise NotPRational(f"{x0} is {kind.value} at depth {max_depth}")
    zero_rep = DigitSeq(digits[:rank], system.pv.q)
    max_rep = DigitSeq(digits[:rank - 1] + [digits[rank - 1] - 1], system.pv.q, "max")
    right = eval_flip(zero_rep, system).value
    left = eval_flip(max_rep, system).value
    return JumpReport(point=x0, left_limit=left, right_limit=right, jump=right - left)


def p_rationals_by_eval(pv, count: int) -> list[Fraction]:
    """p_rationals one address at a time: each rank's heads in lexicographic
    order, each with every nonzero last digit, evaluated by eval_digits."""
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
