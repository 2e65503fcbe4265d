"""Exact arithmetic for probability-weighted digit expansions of [0, 1].

A probability vector P = (p_0, ..., p_{q-1}) turns digit strings over
{0, ..., q-1} into numbers: the digit d_k at position k contributes its
cumulative offset beta[d_k] scaled by the product of the weights of all
earlier digits,

    value = beta[d_1] + sum_{k>=2} beta[d_k] * p[d_1] * ... * p[d_{k-1}].

With the uniform vector this is ordinary base-q positional notation; in
general the q digit cells at each rank have lengths p_0, ..., p_{q-1}
instead of 1/q.

Everything in this module is exact.  Values are `fractions.Fraction`; the
only approximate object anywhere in the package is an explicit Enclosure
with rational endpoints.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import (
    BaseTooSmall,
    DigitOutOfRange,
    InvalidArgument,
    NonPositiveWeight,
    OutOfUnitInterval,
    ShiftPastPrefix,
    SumNotOne,
)

RationalLike = Union[int, str, Fraction]

#: Hard cap used by every q**rank enumeration in the package.
DEFAULT_BUDGET = 1 << 20


def as_fraction(x) -> Fraction:
    """Coerce ints, 'num/den' strings, floats and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


# ---------------------------------------------------------------------------
# Probability vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbVector:
    """Digit weights p (all positive, summing to 1) plus their cumulative sums.

    beta has q+1 entries with beta[0] = 0 and beta[q] = 1; cell t of the
    unit interval is [beta[t], beta[t+1]] and has length p[t].
    """

    p: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]

    @property
    def q(self) -> int:
        return len(self.p)

    @property
    def max_p(self) -> Fraction:
        return max(self.p)

    @property
    def den(self) -> int:
        """Least common denominator D of the weights: every p[c] and beta[c] is an integer over D."""
        return lcm(*(v.denominator for v in self.p))

    @classmethod
    def uniform(cls, q: int) -> "ProbVector":
        return make_prob_vector([Fraction(1, q)] * q)

    def digit_for(self, state: Fraction) -> int:
        """Largest digit c with beta[c] <= state (clamped to q-1)."""
        return min(bisect_right(self.beta, state) - 1, self.q - 1)

    def check_digit(self, d: int) -> int:
        if not isinstance(d, int) or isinstance(d, bool) or not 0 <= d < self.q:
            raise DigitOutOfRange(f"digit {d!r} not in [0, {self.q - 1}]")
        return d

    def __repr__(self) -> str:
        return f"ProbVector(({', '.join(str(x) for x in self.p)}))"


def make_prob_vector(values: Iterable[RationalLike]) -> ProbVector:
    """Validate weights and build the vector with its cumulative offsets."""
    p = tuple(as_fraction(v) for v in values)
    if len(p) < 2:
        raise BaseTooSmall(f"need at least 2 weights, got {len(p)}")
    for v in p:
        if v <= 0:
            raise NonPositiveWeight(f"weight {v} is not positive")
    total = sum(p)
    if total != 1:
        raise SumNotOne(f"weights sum to {total}, not 1")
    beta = [Fraction(0)]
    for v in p:
        beta.append(beta[-1] + v)
    return ProbVector(p=p, beta=tuple(beta))


# ---------------------------------------------------------------------------
# Digit sequences
# ---------------------------------------------------------------------------

def _normalize_tail(tail, q: int) -> tuple[int, ...]:
    if isinstance(tail, str):
        if tail == "zero":
            return (0,)
        if tail == "max":
            return (q - 1,)
        raise ValueError(f"tail must be 'zero', 'max' or a digit block, got {tail!r}")
    block = tuple(tail)
    if not block:
        raise ValueError("tail block must be nonempty")
    # reduce to the primitive period so equal streams compare equal
    n = len(block)
    for length in range(1, n + 1):
        if n % length == 0 and block == block[:length] * (n // length):
            return block[:length]
    return block


class DigitSeq:
    """A point address in [0, 1]: an explicit digit prefix plus a repeating tail.

    The tail is a digit block repeated forever; `"zero"` and `"max"` name the
    two constant blocks (0,) and (q-1,).  Encoding only ever produces those
    two, but digit-flip maps turn constant tails into periodic ones, so the
    general block form is supported throughout evaluation.

    Two sequences are equal iff they spell the same infinite digit stream
    over the same alphabet (trailing digits that merely repeat the tail do
    not matter).
    """

    __slots__ = ("digits", "q", "tail")

    def __init__(self, digits: Sequence[int], q: int, tail="zero"):
        if q < 2:
            raise BaseTooSmall(f"alphabet size {q} < 2")
        digits = tuple(digits)
        for d in digits:
            if not isinstance(d, int) or isinstance(d, bool) or not 0 <= d < q:
                raise DigitOutOfRange(f"digit {d!r} not in [0, {q - 1}]")
        block = _normalize_tail(tail, q)
        for d in block:
            if not isinstance(d, int) or isinstance(d, bool) or not 0 <= d < q:
                raise DigitOutOfRange(f"tail digit {d!r} not in [0, {q - 1}]")
        if not digits and block == (q - 1,):
            # 1 is written with a single explicit q-1, never as a bare max tail
            digits = (q - 1,)
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "tail", block)

    def __setattr__(self, name, value):
        raise AttributeError("DigitSeq is immutable")

    @property
    def tail_kind(self) -> str:
        if self.tail == (0,):
            return "zero"
        if self.tail == (self.q - 1,):
            return "max"
        return "periodic"

    def digit_at(self, k: int) -> int:
        """Digit at 1-based position k of the infinite stream."""
        if k < 1:
            raise IndexError("positions are 1-based")
        m = len(self.digits)
        if k <= m:
            return self.digits[k - 1]
        return self.tail[(k - m - 1) % len(self.tail)]

    def canonical(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Minimal (prefix, tail block) pair spelling the same stream."""
        digits = list(self.digits)
        block = self.tail
        while digits and digits[-1] == block[-1]:
            digits.pop()
            block = (block[-1],) + block[:-1]
        if not digits and block == (self.q - 1,):
            digits = [self.q - 1]
        return tuple(digits), block

    def __eq__(self, other) -> bool:
        if not isinstance(other, DigitSeq):
            return NotImplemented
        return self.q == other.q and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash((self.q, self.canonical()))

    def __repr__(self) -> str:
        tail = self.tail_kind
        if tail == "periodic":
            tail = f"periodic{self.tail}"
        return f"DigitSeq({list(self.digits)}, q={self.q}, tail={tail})"


# ---------------------------------------------------------------------------
# Series summation
# ---------------------------------------------------------------------------

def horner_sum(prefix_terms, cycle_terms) -> Fraction:
    """Exact value of an offset/weight series with a periodic continuation.

    Terms are (offset, weight) pairs; the series is
    o_1 + w_1*(o_2 + w_2*(o_3 + ...)) with `cycle_terms` repeating forever
    after `prefix_terms`.  All cycle weights must lie in (0, 1) so the
    geometric closure 1 - prod(w) is positive.
    """
    if cycle_terms:
        partial = Fraction(0)
        weight = Fraction(1)
        for o, w in cycle_terms:
            partial += weight * o
            weight *= w
        value = partial / (1 - weight)
    else:
        value = Fraction(0)
    for o, w in reversed(prefix_terms):
        value = o + w * value
    return value


def eval_digits(seq: DigitSeq, pv: ProbVector) -> Fraction:
    """Exact value of a digit sequence under the weights of pv."""
    if seq.q != pv.q:
        raise DigitOutOfRange(f"sequence alphabet {seq.q} != vector alphabet {pv.q}")
    prefix = [(pv.beta[d], pv.p[d]) for d in seq.digits]
    cycle = [(pv.beta[d], pv.p[d]) for d in seq.tail]
    return horner_sum(prefix, cycle)


# ---------------------------------------------------------------------------
# Encoding and the shift map
# ---------------------------------------------------------------------------

def encode(x, pv: ProbVector, depth: int = 32) -> DigitSeq:
    """Digit prefix of x down to `depth` ranks.

    At every rank the digit is the unique c with beta[c] <= state < beta[c+1],
    which picks the zero-tail (upper cylinder) expansion at cell boundaries.
    If the shift orbit hits 0 the prefix stops there and the result is exact;
    otherwise the returned prefix names the depth-rank cylinder containing x.
    """
    if depth < 0:
        raise InvalidArgument(f"depth must be >= 0, got {depth}")
    x = as_fraction(x)
    if x < 0 or x > 1:
        raise OutOfUnitInterval(f"{x} not in [0, 1]")
    if x == 1:
        return DigitSeq((pv.q - 1,), pv.q, "max")
    state = x
    out = []
    for _ in range(depth):
        if state == 0:
            break
        c = pv.digit_for(state)
        out.append(c)
        state = (state - pv.beta[c]) / pv.p[c]
    return DigitSeq(tuple(out), pv.q, "zero")


def shift_digits(seq: DigitSeq, n: int = 1) -> DigitSeq:
    """Drop the first n explicit digits; the tail is shift-invariant."""
    if n < 0:
        raise InvalidArgument(f"shift count must be >= 0, got {n}")
    if n > len(seq.digits):
        raise ShiftPastPrefix(f"cannot drop {n} digits from a prefix of length {len(seq.digits)}")
    return DigitSeq(seq.digits[n:], seq.q, seq.tail)


def shift_value(x, pv: ProbVector) -> Fraction:
    """One application of the shift: (x - beta[d1]) / p[d1] with d1 from encode."""
    x = as_fraction(x)
    if x < 0 or x > 1:
        raise OutOfUnitInterval(f"{x} not in [0, 1]")
    if x == 1:
        return Fraction(1)
    c = pv.digit_for(x)
    return (x - pv.beta[c]) / pv.p[c]


# ---------------------------------------------------------------------------
# Cylinders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cylinder:
    """The closed interval of all points whose expansion starts with `base`."""

    base: tuple[int, ...]
    pv: ProbVector
    lo: Fraction
    hi: Fraction

    @property
    def rank(self) -> int:
        return len(self.base)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        x = as_fraction(x)
        return self.lo <= x <= self.hi

    def child(self, c: int) -> "Cylinder":
        return cylinder_bounds(self.base + (c,), self.pv)


def cylinder_bounds(base: Sequence[int], pv: ProbVector) -> Cylinder:
    """Endpoints of the rank-m cylinder: lo is the zero-tail value of the base,
    and hi - lo equals the product of the base digit weights."""
    digits = tuple(pv.check_digit(d) for d in base)
    lo = Fraction(0)
    width = Fraction(1)
    for d in reversed(digits):
        lo = pv.beta[d] + pv.p[d] * lo
    for d in digits:
        width *= pv.p[d]
    return Cylinder(base=digits, pv=pv, lo=lo, hi=lo + width)


# ---------------------------------------------------------------------------
# Point classification
# ---------------------------------------------------------------------------

class PointKind(Enum):
    P_RATIONAL = "p-rational"
    P_IRRATIONAL = "p-irrational"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class PointClass:
    kind: PointKind
    depth: int | None = None


def classify(x, pv: ProbVector, max_depth: int = 64) -> PointClass:
    """Decide whether x has two expansions (orbit hits 0 or 1) or one.

    A repeated shift state means the digit tail is periodic; any cycle not
    through 0 is a non-constant period, hence a unique expansion.  Rational
    shift states need not repeat (weights can grow the denominators), so
    UNDETERMINED with the reached depth is a legitimate outcome.
    """
    x = as_fraction(x)
    if x < 0 or x > 1:
        raise OutOfUnitInterval(f"{x} not in [0, 1]")
    if x == 1:
        return PointClass(PointKind.P_RATIONAL)
    state = x
    seen = set()
    for _ in range(max_depth):
        if state == 0:
            return PointClass(PointKind.P_RATIONAL)
        if state in seen:
            return PointClass(PointKind.P_IRRATIONAL)
        seen.add(state)
        c = pv.digit_for(state)
        state = (state - pv.beta[c]) / pv.p[c]
    if state == 0:
        return PointClass(PointKind.P_RATIONAL)
    if state in seen:
        return PointClass(PointKind.P_IRRATIONAL)
    return PointClass(PointKind.UNDETERMINED, depth=max_depth)


# ---------------------------------------------------------------------------
# Extras: distribution function and sampling
# ---------------------------------------------------------------------------

def bernoulli_cdf(x, pv: ProbVector) -> Fraction:
    """CDF at x of a random number whose base-q digits are i.i.d. with law p.

    Exact: the base-q digits of a rational are eventually periodic, so the
    weighted series closes in rational arithmetic.  Cost is the digit period
    of x, which can reach its denominator.
    """
    x = as_fraction(x)
    if x < 0:
        return Fraction(0)
    if x >= 1:
        return Fraction(1)
    q = pv.q
    den = x.denominator
    num = x.numerator
    digits: list[int] = []
    seen: dict[int, int] = {}
    while num not in seen:
        seen[num] = len(digits)
        d, num = divmod(q * num, den)
        digits.append(d)
    start = seen[num]
    prefix = [(pv.beta[d], pv.p[d]) for d in digits[:start]]
    cycle = [(pv.beta[d], pv.p[d]) for d in digits[start:]]
    return horner_sum(prefix, cycle)


def sample_digits(pv: ProbVector, length: int, rng: random.Random) -> tuple[int, ...]:
    """Digit prefix drawn i.i.d. with law p (i.e. a Lebesgue-random point)."""
    thresholds = [float(b) for b in pv.beta[1:-1]]
    return tuple(bisect_right(thresholds, rng.random()) for _ in range(length))


# ---------------------------------------------------------------------------
# Certified intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Enclosure:
    """A rational interval [lo, hi] certified to contain an exact value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, value) -> "Enclosure":
        v = as_fraction(value)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.is_exact:
            raise ValueError(f"enclosure [{self.lo}, {self.hi}] is not a point")
        return self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        x = as_fraction(x)
        return self.lo <= x <= self.hi

    def intersects(self, other: "Enclosure") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __contains__(self, x) -> bool:
        return self.contains(x)
