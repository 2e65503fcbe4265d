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

from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from itertools import accumulate, product
from math import gcd, lcm
from operator import index, mul
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, Union

from .errors import (
    BaseTooSmall,
    BudgetExceeded,
    DigitOutOfRange,
    InvalidArgument,
    NonPositiveWeight,
    OutOfUnitInterval,
    ShiftPastPrefix,
    SumNotOne,
)

if TYPE_CHECKING:
    import random

RationalLike = Union[int, str, Fraction]

#: Hard cap used by every q**rank enumeration in the package.
DEFAULT_BUDGET = 1 << 20


#: Integers of more decimal digits than this are shown by their digit count in messages
_SHOWN_DIGITS = 100
#: Lists and tuples of more entries than this are shown by their first entries and their count
_SHOWN_ENTRIES = 8
#: Strings of more characters than this are shown by their first characters and their length
_SHOWN_CHARS = 40


class _Abridged(str):
    """A stand-in for a huge number in a message: str and repr alike give it."""

    __slots__ = ()

    def __repr__(self) -> str:
        return str(self)


def _digit_count(n: int) -> int:
    """The decimal digits of abs(n), found without str, which is quadratic
    and refused past sys.get_int_max_str_digits().  The estimate from the
    bit length is at most the count, and the loop raises it to the count."""
    n = abs(n)
    count = max(int((n.bit_length() - 1) * 0.30102999566398120) - 1, 0)  # log10(2)
    power = 10 ** count
    while power <= n:
        count += 1
        power *= 10
    return max(count, 1)


def _shown(value):
    """value as a refusal message quotes it, with str or repr: itself, but an
    int or a Fraction with a part of more than _SHOWN_DIGITS digits becomes
    an _Abridged text such as '1/<5001-digit integer>', and a list or tuple
    is rebuilt from its first _SHOWN_ENTRIES entries shown, with '...' and
    its length if it has more, and a str of more than _SHOWN_CHARS
    characters becomes the repr of its first _SHOWN_CHARS, '...' and its
    length.  So the message stays one short line, and no int to str
    conversion is refused."""
    if isinstance(value, int):
        if value.bit_length() <= 332:  # 2**332 < 10**100
            return value
        count = _digit_count(value)
        sign = "-" if value < 0 else ""
        return value if count <= _SHOWN_DIGITS else _Abridged(f"{sign}<{count}-digit integer>")
    if isinstance(value, Fraction):
        num, den = _shown(value.numerator), _shown(value.denominator)
        return _Abridged(f"{num}/{den}") if isinstance(num, str) or isinstance(den, str) else value
    if type(value) in (list, tuple):
        shown = type(value)(map(_shown, value[:_SHOWN_ENTRIES]))
        if len(value) > _SHOWN_ENTRIES:  # such as [0, 0, 0, 0, 0, 0, 0, 0, ...] (100000 entries)
            shown = _Abridged(f"{str(shown)[:-1]}, ...{str(shown)[-1]} ({len(value)} entries)")
        return shown
    if isinstance(value, str) and len(value) > _SHOWN_CHARS:  # such as '1,1,1,1,1'... (200001 characters)
        return _Abridged(f"{value[:_SHOWN_CHARS]!r}... ({len(value)} characters)")
    return value


def as_fraction(x) -> Fraction:
    """Coerce ints, 'num/den' strings, finite floats and Fractions to Fraction.

    An unparsable string, a non-finite float, a zero denominator or a
    non-numeric type is InvalidArgument."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except (ValueError, OverflowError, ZeroDivisionError, TypeError):
        raise InvalidArgument(f"not a rational number: {_shown(x)!r}") from None


def _as_int(n, name: str, minimum: int | None = None) -> int:
    """An integer argument (an int, or any type with __index__) as int; any
    other type, or a value below `minimum` when one is given, is
    InvalidArgument."""
    try:
        n = index(n)
    except TypeError:
        raise InvalidArgument(f"{name} must be an integer, got {_shown(n)!r}") from None
    if minimum is not None and n < minimum:
        raise InvalidArgument(f"{name} must be >= {minimum}, got {_shown(n)}")
    return n


def _as_record(value, cls, name: str):
    """value when it is an instance of the record class cls; any other value
    is InvalidArgument, named as `name`."""
    if not isinstance(value, cls):
        raise InvalidArgument(f"{name} must be a {cls.__name__}, got {_shown(value)!r}")
    return value


def _as_point(x) -> Fraction:
    """A point argument as Fraction (see as_fraction); a value outside [0, 1]
    is OutOfUnitInterval.  The bounds are tested on the integer pair: a
    Fraction's denominator is positive."""
    x = as_fraction(x)
    num = x.numerator
    if num < 0 or num > x.denominator:
        raise OutOfUnitInterval(f"{_shown(x)} not in [0, 1]")
    return x


def _check_digits(digits: Iterable, q: int, what: str = "digit") -> tuple[int, ...]:
    """digits as a tuple of digits of a q-letter alphabet, ints in [0, q-1];
    the first entry that is not one is DigitOutOfRange, named as `what`.
    One type-and-range test per digit; the full test runs only on a digit
    that fails it, to accept an int subclass other than bool.  digits that
    do not iterate are InvalidArgument."""
    try:
        digits = tuple(digits)
    except TypeError:
        raise InvalidArgument(f"{what}s must be a sequence of integers, got {_shown(digits)!r}") from None
    for d in digits:
        if type(d) is not int or not 0 <= d < q:
            if not isinstance(d, int) or isinstance(d, bool) or not 0 <= d < q:
                raise DigitOutOfRange(f"{what} {_shown(d)!r} not in [0, {_shown(q - 1)}]")
    return digits


def _same_alphabet(seq: DigitSeq, pv: ProbVector) -> None:
    """Refuse a seq that is not a DigitSeq, a pv that is not a ProbVector
    (InvalidArgument), and a digit sequence over another alphabet than the
    vector's."""
    if _as_record(seq, DigitSeq, "seq").q != _as_record(pv, ProbVector, "pv").q:
        raise DigitOutOfRange(f"sequence alphabet {_shown(seq.q)} != vector alphabet {_shown(pv.q)}")


def _as_position(k) -> int:
    """A 1-based stream position as int; a position below 1 or a non-integer
    is InvalidArgument."""
    try:
        k = index(k)
    except TypeError:
        pass
    else:
        if k >= 1:
            return k
    raise InvalidArgument(f"positions are 1-based, got {_shown(k)!r}")


def _lowest_terms(num: int, den: int) -> Fraction:
    """Fraction(num, den) for ints num and den > 0, reduced by one gcd and
    built without the constructor's argument checks and dispatch: the two
    slots are set directly, as Fraction's own arithmetic does."""
    g = gcd(num, den)
    out = object.__new__(Fraction)
    out._numerator = num // g
    out._denominator = den // g
    return out


def _lowest_terms_over(nums: list[int], scale: int) -> list[Fraction]:
    """[_lowest_terms(num, scale) for num in nums], for ints nums over one
    scale > 0, in one loop rather than one call per value.  The values that
    share a reduced denominator share one int object for it: dens maps each
    gcd g met to scale // g, so the list holds one int per distinct
    denominator, not one per value."""
    new = object.__new__
    out = [new(Fraction) for _ in nums]
    dens: dict[int, int] = {}
    for value, num in zip(out, nums):
        g = gcd(num, scale)
        value._numerator = num // g
        value._denominator = dens.get(g) or dens.setdefault(g, scale // g)
    return out


class _Checked:
    """Mixin for a NamedTuple record whose __new__ checks its fields:
    _replace builds through _make, so _make goes through __new__ too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# ---------------------------------------------------------------------------
# Probability vectors
# ---------------------------------------------------------------------------

class IntTable(NamedTuple):
    """A letter table: integer offset and weight numerators over one
    denominator, read by the Horner step of _forward.  It has two shapes.

    A vector's table (ProbVector.int_table) or its block power (_advance's
    k-digit blocks): the letters are digits or k-digit words, and beta has
    q + 1 entries, the running sums of p from 0 to den, which _walk
    bisects; for a vector ProbVector.beta[c] == beta[c] / den and
    ProbVector.p[c] == p[c] / den.

    A vector's flip table and the expectation table read beside it (see
    _letter_tables), whose offsets are no running sums: the flip table over
    D, 2q letters, digit d at an unflipped position (letter d) and at a
    flipped one (letter q + d); the expectation table over D**2, whose two
    letters are the flip bit.  No offset of either is negative."""

    den: int
    beta: tuple[int, ...]
    p: tuple[int, ...]


#: _advance's walk reads k digits per step of its block table, k the largest
#: with q**k at most this: the table holds q**k cylinders
_BLOCK_CELLS = 256


class _Blocks(NamedTuple):
    """The q**k rank-k cylinders of a vector in lexicographic order, as the
    letters of an IntTable over D**k for _walk; the digits of cylinder i are
    words[i*k:(i+1)*k]."""

    k: int
    table: IntTable
    words: bytes


def _blocks_of(table: IntTable) -> _Blocks | tuple[()]:
    """The block table of a vector's IntTable: each of the q**k words, in
    lexicographic order, folded through _forward to its left end and weight
    over D**k; () when a block would hold fewer than two digits."""
    q = len(table.p)
    k = 1
    while q ** (k + 1) <= _BLOCK_CELLS:
        k += 1
    if k < 2:
        return ()
    words = list(product(range(q), repeat=k))
    lefts, weights = zip(*[_forward(table, word) for word in words])
    scale = table.den ** k
    return _Blocks(k, IntTable(scale, (*lefts, scale), weights), b"".join(map(bytes, words)))


def _letter_tables(table: IntTable) -> tuple[IntTable, IntTable]:
    """The flip and expectation tables of a vector's IntTable.

    The flip table (ProbVector._flip_table), over D: letter d reads
    (beta[d], p[d]), letter q + d (beta[q-1-d], p[q-1-d]).  The flip maps
    read it, the paper's map (flips.eval_nega) at EVEN_POSITIONS.

    The expectation table (ProbVector._expected_table), over D**2: the
    expected offset and weight of one digit drawn with the law p of the
    IntTable, letter 0 at an unflipped position (the flip table's letters
    below q), letter 1 at a flipped one (its letters from q on).  The flip
    bits of positions 1..k, folded through _forward, give partial sum k of
    the integral series (analysis._partial_sum)."""
    den, beta, law = table
    flip = IntTable(den, beta[:-1] + beta[-2::-1], law + law[::-1])
    return flip, IntTable(den * den, tuple([sum(map(mul, flip.beta[c:], law)) for c in (0, len(law))]),
                          tuple([sum(map(mul, flip.p[c:], law)) for c in (0, len(law))]))


class ProbVector:
    """Digit weights p (all positive, summing to 1) plus their cumulative sums.

    beta has q+1 entries with beta[0] = 0 and beta[q] = 1; cell t of the
    unit interval is [beta[t], beta[t+1]] and has length p[t].  Immutable;
    equal and hashed by p.

    The weights are coerced and checked, and beta, den, the least common
    denominator D of the weights (every p[c] and beta[c] is an integer over
    D), and int_table, the numerators of beta and p over D, are computed,
    all when the vector is built, and so are the private flip and
    expectation tables of the flip maps (see _letter_tables).  The block
    table of _advance, which costs q**k folds, is built on its first walk.
    """

    __slots__ = ("p", "beta", "den", "int_table", "_flip_table", "_expected_table", "_blocks")

    def __init__(self, p: Iterable[RationalLike]):
        try:
            if isinstance(p, (str, bytes)):  # it would iterate its characters
                raise TypeError
            values = iter(p)
        except TypeError:
            raise InvalidArgument(f"weights must be an iterable of rationals, got {_shown(p)!r}") from None
        p = tuple(as_fraction(v) for v in values)
        if len(p) < 2:
            raise BaseTooSmall(f"need at least 2 weights, got {len(p)}")
        for v in p:
            if v <= 0:
                raise NonPositiveWeight(f"weight {_shown(v)} is not positive")
        beta = tuple(accumulate(p, initial=Fraction(0)))
        if beta[-1] != 1:
            raise SumNotOne(f"weights sum to {_shown(beta[-1])}, not 1")
        den = lcm(*(v.denominator for v in p))
        table = IntTable(den, tuple([int(b * den) for b in beta]), tuple([int(w * den) for w in p]))
        # every slot, in __slots__ order
        for name, value in zip(self.__slots__, (p, beta, den, table, *_letter_tables(table), None)):
            object.__setattr__(self, name, value)

    def _block_table(self) -> _Blocks | tuple[()]:
        """The block table of _advance's walk, built on first use."""
        blocks = self._blocks
        if blocks is None:
            blocks = _blocks_of(self.int_table)
            object.__setattr__(self, "_blocks", blocks)
        return blocks

    def __setattr__(self, name, value):
        raise AttributeError(f"ProbVector is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ProbVector is immutable: cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p

    def __hash__(self) -> int:
        return hash(self.p)

    def __reduce__(self):
        return ProbVector, (self.p,)

    @property
    def q(self) -> int:
        return len(self.p)

    @property
    def max_p(self) -> Fraction:
        return max(self.p)

    @classmethod
    def uniform(cls, q: int) -> "ProbVector":
        return cls([Fraction(1, q)] * q)

    def check_digit(self, d: int) -> int:
        return _check_digits((d,), self.q)[0]

    def __repr__(self) -> str:
        return f"ProbVector(({', '.join(str(x) for x in self.p)}))"


def make_prob_vector(values: Iterable[RationalLike]) -> ProbVector:
    """The vector of these weights, coerced and checked (see ProbVector)."""
    return ProbVector(values)


# ---------------------------------------------------------------------------
# Digit sequences
# ---------------------------------------------------------------------------

def _normalize_tail(tail, q: int) -> tuple[int, ...]:
    if isinstance(tail, str):
        if tail == "zero":
            return (0,)
        if tail == "max":
            return (q - 1,)
        raise InvalidArgument(f"tail must be 'zero', 'max' or a digit block, got {_shown(tail)!r}")
    try:
        block = tuple(tail)
    except TypeError:
        raise InvalidArgument(f"tail must be 'zero', 'max' or a digit block, got {_shown(tail)!r}") from None
    if not block:
        raise InvalidArgument("tail block must be nonempty")
    # reduce to the primitive period so equal streams compare equal; the
    # whole block is a period of itself, so the loop returns by length n
    n = len(block)
    for length in range(1, n + 1):
        if n % length == 0 and block == block[:length] * (n // length):
            return block[:length]


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
        q = _as_int(q, "q")
        if q < 2:
            raise BaseTooSmall(f"alphabet size {_shown(q)} < 2")
        digits = _check_digits(digits, q)
        block = _check_digits(_normalize_tail(tail, q), q, "tail digit")
        if not digits and block == (q - 1,):
            # 1 is written with a single explicit q-1, never as a bare max tail
            digits = (q - 1,)
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "tail", block)

    @classmethod
    def _trusted(cls, digits: tuple[int, ...], q: int, tail: tuple[int, ...]) -> "DigitSeq":
        """A sequence from parts the library has just produced, without
        __init__'s checks: digits a tuple of digits in [0, q-1], tail a
        primitive block of them, and digits nonempty if tail is (q-1,)."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "digits", digits)
        object.__setattr__(seq, "q", q)
        object.__setattr__(seq, "tail", tail)
        return seq

    def __setattr__(self, name, value):
        raise AttributeError(f"DigitSeq is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"DigitSeq is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which checks the parts
        return DigitSeq, (self.digits, self.q, self.tail)

    @property
    def tail_kind(self) -> str:
        if self.tail == (0,):
            return "zero"
        if self.tail == (self.q - 1,):
            return "max"
        return "periodic"

    def digit_at(self, k: int) -> int:
        """Digit at 1-based position k of the infinite stream."""
        k = _as_position(k)
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

def _forward(table: IntTable, letters: Iterable[int], num: int = 0, weight: int = 1) -> tuple[int, int]:
    """The Horner step of a letter table, one letter at a time, left to
    right: (num, weight) -> (num*den + beta[c]*weight, weight*p[c]), with
    den, beta and p from the table.  From the default (0, 1), m letters
    give a zero-tail value num / den**m and a weight product weight / den**m;
    from a running (num, weight), the sums continue."""
    den, beta, p = table
    for c in letters:
        num = num * den + beta[c] * weight
        weight *= p[c]
    return num, weight


def _closure(table: IntTable, prefix: Sequence[int], cycle: Sequence[int]) -> tuple[int, int]:
    """The value of the letter stream `prefix` followed by `cycle` forever,
    as an unreduced integer pair (num, den) with den > 0.

    The cycle closes geometrically: over D = table.den its value is
    c_num / (D**L - c_weight) for a cycle of length L, so the stream's value
    is num / (D**m * (D**L - c_weight)) for a prefix of length m, or
    num / D**m when the cycle adds nothing."""
    num, weight = _forward(table, prefix)
    scale = table.den ** len(prefix)
    c_num, c_weight = _forward(table, cycle)
    if c_num == 0:  # a cycle of zeros adds nothing
        return num, scale
    closure = table.den ** len(cycle) - c_weight
    return num * closure + weight * c_num, scale * closure


def _horner(table: IntTable, prefix: Sequence[int], cycle: Sequence[int]) -> Fraction:
    """Exact value of the letter stream `prefix` followed by `cycle` forever:
    the pair of _closure, reduced once."""
    return _lowest_terms(*_closure(table, prefix, cycle))


def eval_digits(seq: DigitSeq, pv: ProbVector) -> Fraction:
    """Exact value of a digit sequence under the weights of pv."""
    _same_alphabet(seq, pv)
    return _horner(pv.int_table, seq.digits, seq.tail)


# ---------------------------------------------------------------------------
# Encoding and the shift map
# ---------------------------------------------------------------------------

def _walk(a: int, b: int, table: IntTable, steps: int):
    """The shift orbit of the reduced state a/b in [0, 1): at most `steps`
    steps, stopping at state 0.  Returns (digits, a, b): the digits read
    and the last state a/b reached, which is 0 exactly when the walk
    stopped there.

    One step reads the digit c of a/b (the largest with beta[c] <= a/b,
    clamped to q-1), which over D = table.den is beta[c] <= a*D // b since
    beta[c] is an integer, and goes to (a/b - beta[c]) / p[c] =
    n / (b*p[c]) with n = a*D - beta[c]*b.  That pair is reduced by small
    moduli only: gcd(a, b) = 1 gives gcd(n, b) = gcd(D, b), and
    gcd(n, b*p[c]) = gcd(n, gcd(n, b)*p[c]) (compare prime valuations), so
    the common factor is gcd(n, m) with m = gcd(D, b mod D)*p[c] <= D**2.
    Every state is the pair a reduced Fraction holds, except that state 0
    is (0, b*p[c] // m); a caller stops there or reduces (a, b)."""
    den, beta, p = table
    q = len(p)
    digits = []
    for _ in range(steps):
        if a == 0:
            break
        scaled = a * den
        # beta[0] = 0 is below every state, and searching only up to beta[q-1]
        # is the clamp: min(bisect_right(beta, s) - 1, q - 1) without the min
        c = bisect_right(beta, scaled // b, 1, q) - 1
        n = scaled - beta[c] * b
        w = p[c]
        m = gcd(den, b % den) * w
        g = gcd(m, n % m)
        a, b = n // g, b * w // g
        digits.append(c)
    return digits, a, b


def _advance(a: int, b: int, pv: ProbVector, steps: int):
    """The shift orbit of the reduced state a/b, walked by _walk for at
    least `steps` steps: k digits per step over the vector's block table,
    to the first block end at or past `steps` (exactly `steps` single steps
    when the vector has no block table), or to state 0.
    Returns (digits, a, b): the digits read and the state reached.

    A walk that lands on state 0 drops the trailing zero digits of its last
    block, which the single steps, stopping at 0, never read: the left end
    of c1...ck equals that of c1...cj exactly when c(j+1)...ck are all 0,
    and the digit that reaches state 0 is not 0.  So 0 is reached at step
    len(digits)."""
    if blocks := pv._block_table():
        k, table, words = blocks
        cells, a, b = _walk(a, b, table, -(-steps // k))
        digits = b"".join([words[i * k:i * k + k] for i in cells])
        return (digits.rstrip(b"\0") if a == 0 else digits), a, b
    return _walk(a, b, pv.int_table, steps)


def encode(x, pv: ProbVector, depth: int = 32) -> DigitSeq:
    """Digit prefix of x down to `depth` ranks.

    At every rank the digit is the unique c with beta[c] <= state < beta[c+1],
    which picks the zero-tail (upper cylinder) expansion at cell boundaries.
    If the shift orbit hits 0 the prefix stops there and the result is exact;
    otherwise the returned prefix names the depth-rank cylinder containing x.
    The orbit is walked by _advance, k digits per step, and its digits are
    cut to the depth (see README, "Cost")."""
    depth = _as_int(depth, "depth", 0)
    x = _as_point(x)
    pv = _as_record(pv, ProbVector, "pv")
    q = pv.q
    a, b = x.numerator, x.denominator
    if a == b:
        return DigitSeq._trusted((q - 1,), q, (q - 1,))
    return DigitSeq._trusted(tuple(_advance(a, b, pv, depth)[0][:depth]), q, (0,))


def shift_digits(seq: DigitSeq, n: int = 1) -> DigitSeq:
    """Drop the first n explicit digits; the tail is shift-invariant."""
    n = _as_int(n, "shift count", 0)
    if n > len(_as_record(seq, DigitSeq, "seq").digits):
        raise ShiftPastPrefix(f"cannot drop {_shown(n)} digits from a prefix of length {len(seq.digits)}")
    return DigitSeq(seq.digits[n:], seq.q, seq.tail)


def shift_value(x, pv: ProbVector) -> Fraction:
    """One application of the shift: (x - beta[d1]) / p[d1] with d1 from encode."""
    x = _as_point(x)
    pv = _as_record(pv, ProbVector, "pv")
    a, b = x.numerator, x.denominator
    if a == b:
        return _lowest_terms(1, 1)
    _, a, b = _walk(a, b, pv.int_table, 1)
    return _lowest_terms(a, b)


# ---------------------------------------------------------------------------
# Cylinders
# ---------------------------------------------------------------------------

class _CylinderFields(NamedTuple):
    base: tuple[int, ...]
    pv: ProbVector
    lo: Fraction
    hi: Fraction


class Cylinder(_Checked, _CylinderFields):
    """The closed interval of all points whose expansion starts with `base`.

    pv must be a ProbVector, base a digit sequence of its alphabet, and the
    ends are coerced with as_fraction; anything else is refused, and so is
    lo > hi.  cylinder_bounds builds its result unchecked."""

    __slots__ = ()

    def __new__(cls, base: Sequence[int], pv: ProbVector, lo: RationalLike, hi: RationalLike):
        base = _check_digits(base, _as_record(pv, ProbVector, "pv").q)
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > hi:
            raise InvalidArgument(f"empty cylinder [{_shown(lo)}, {_shown(hi)}]")
        return tuple.__new__(cls, (base, pv, lo, hi))

    @property
    def rank(self) -> int:
        return len(self.base)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        x = as_fraction(x)
        return self.lo <= x <= self.hi

    def __contains__(self, x) -> bool:
        # a point in the interval, not tuple membership
        return self.contains(x)

    def child(self, c: int) -> "Cylinder":
        return cylinder_bounds(self.base + (c,), self.pv)


def _ends(table: IntTable, letters: Sequence[int]) -> tuple[Fraction, Fraction]:
    """The ends (lo, hi) of the cylinder of a word of checked letters: lo is
    the word's zero-tail value and hi - lo its weight product."""
    num, weight = _forward(table, letters)
    scale = table.den ** len(letters)
    return _lowest_terms(num, scale), _lowest_terms(num + weight, scale)


def cylinder_bounds(base: Sequence[int], pv: ProbVector) -> Cylinder:
    """Endpoints of the rank-m cylinder: lo is the zero-tail value of the base,
    and hi - lo equals the product of the base digit weights.  A pv that
    is not a ProbVector is InvalidArgument, before the digits are checked."""
    digits = _check_digits(base, _as_record(pv, ProbVector, "pv").q)
    # the parts are checked and ordered already: no second check
    return tuple.__new__(Cylinder, (digits, pv, *_ends(pv.int_table, digits)))


# ---------------------------------------------------------------------------
# Point classification
# ---------------------------------------------------------------------------

class PointKind(Enum):
    P_RATIONAL = "p-rational"
    P_IRRATIONAL = "p-irrational"
    UNDETERMINED = "undetermined"


class PointClass(NamedTuple):
    kind: PointKind
    depth: int | None = None


def _decide(a: int, b: int, pv: ProbVector, max_depth: int) -> tuple[PointKind, Sequence[int]]:
    """The kind of the reduced point a/b in [0, 1) within max_depth steps,
    and the digits its walk read: when the kind is P_RATIONAL, exactly the
    digits of its zero-tail address.

    The answer is decided over the states s_0 .. s_N, N = max_depth:
    P_RATIONAL at the first state 0, P_IRRATIONAL at the first state that
    repeats, else UNDETERMINED.  At N = 0 the state alone answers.  Two
    facts prove most UNDETERMINED answers without looking for a repeat.
    Let D = pv.den, s_t = a/b_t in lowest terms, and b_t' the part of b_t
    prime to D.  First, b_t' divides b_(t+1)': a prime l of b_t outside D
    does not divide n = a*D - beta[c]*b_t (l divides b_t but not a*D), so
    reducing n / (b_t*p[c]) cancels no factor l.  Second, if the orbit
    repeats within N steps it is periodic from a step m <= N - 1, so b_t'
    is the same for every t >= N - 1 and no state is 0.  So _advance walks
    to the first block end T >= N - 1, then one block further, and the
    digits of both blocks are joined.  A state 0 on the way is reached at a
    known step: P_RATIONAL if that step is at most N, UNDETERMINED past it.
    Otherwise a prime outside D in b/gcd(b, b_T) proves UNDETERMINED.  In
    every other case the walk has read at least N digits and no state 0,
    and the repeat test replays the first N of them: _walk's reduction with
    the digit given, no digit search, and a seen-set of s_0 .. s_N, the one
    set of orbit states in the package."""
    if not max_depth:
        return (PointKind.UNDETERMINED if a else PointKind.P_RATIONAL), ()
    digits, s, last = _advance(a, b, pv, max_depth - 1)
    t = last
    if s:
        more, s, t = _advance(s, last, pv, 1)
        digits += more
    if s == 0 and len(digits) <= max_depth:
        return PointKind.P_RATIONAL, digits
    grown = t // gcd(t, last)
    if s == 0 or pow(pv.den, grown.bit_length(), grown):
        return PointKind.UNDETERMINED, digits
    den, beta, p = pv.int_table
    seen = set()
    for c in digits[:max_depth]:
        seen.add((a, b))
        n = a * den - beta[c] * b
        w = p[c]
        m = gcd(den, b % den) * w
        g = gcd(m, n % m)
        a, b = n // g, b * w // g
        if (a, b) in seen:
            return PointKind.P_IRRATIONAL, digits
    return PointKind.UNDETERMINED, digits


def classify(x, pv: ProbVector, max_depth: int = 64) -> PointClass:
    """Decide whether x has two expansions (orbit hits 0 or 1) or one.

    A repeated shift state means the digit tail is periodic; any cycle not
    through 0 is a non-constant period, hence a unique expansion.  Rational
    shift states need not repeat (weights can grow the denominators), so
    UNDETERMINED with the reached depth is a legitimate outcome.  The kind
    is that of _decide, which proves most UNDETERMINED answers from the
    denominator and looks for a repeated state only when it must (see
    README, "Cost").
    """
    max_depth = _as_int(max_depth, "max_depth", 0)
    x = _as_point(x)
    pv = _as_record(pv, ProbVector, "pv")
    a, b = x.numerator, x.denominator
    if a == b:
        return PointClass(PointKind.P_RATIONAL)
    kind = _decide(a, b, pv, max_depth)[0]
    return PointClass(kind, depth=max_depth if kind is PointKind.UNDETERMINED else None)


# ---------------------------------------------------------------------------
# Extras: distribution function and sampling
# ---------------------------------------------------------------------------

def bernoulli_cdf(x, pv: ProbVector) -> Fraction:
    """CDF at x of a random number whose base-q digits are i.i.d. with law p.

    Exact: the base-q digits of a rational are eventually periodic, so the
    weighted series closes in rational arithmetic.  Both lengths are read
    from the denominator before any digit is made: the preperiod is the
    number of times gcd(den, q) divides out of den, and the period is the
    order of q modulo what is left.  Cost is that period, which can reach
    the denominator; a period above DEFAULT_BUDGET is refused with
    BudgetExceeded in O(1) memory.
    """
    x = as_fraction(x)
    q = _as_record(pv, ProbVector, "pv").q
    num, den = x.numerator, x.denominator
    if num < 0:
        return _lowest_terms(0, 1)
    if num >= den:
        return _lowest_terms(1, 1)
    rest = den
    preperiod = 0
    while (g := gcd(rest, q)) > 1:
        rest //= g
        preperiod += 1
    # power = q**period mod rest; it is 0 only when rest == 1, whose period is 1
    period = 1
    power = q % rest
    while power > 1:
        if period == DEFAULT_BUDGET:
            raise BudgetExceeded(f"base-{q} digit period of {_shown(x)} exceeds budget {DEFAULT_BUDGET}")
        power = power * q % rest
        period += 1
    digits = []
    for _ in range(preperiod + period):
        d, num = divmod(q * num, den)
        digits.append(d)
    return _horner(pv.int_table, digits[:preperiod], digits[preperiod:])


def sample_digits(pv: ProbVector, length: int, rng: random.Random) -> tuple[int, ...]:
    """Digit prefix drawn i.i.d. with law p exactly (i.e. a Lebesgue-random point):
    a uniform integer in [0, D) picks the digit whose cell holds it, D = pv.den.
    An rng with no randrange method is InvalidArgument.  The tuple holds
    `length` digits, so a length above DEFAULT_BUDGET is BudgetExceeded
    before any is drawn."""
    length = _as_int(length, "length", 0)
    if not callable(getattr(rng, "randrange", None)):
        raise InvalidArgument(f"rng must have a randrange method, got {_shown(rng)!r}")
    den, beta, _ = _as_record(pv, ProbVector, "pv").int_table
    if length > DEFAULT_BUDGET:
        raise BudgetExceeded(f"{_shown(length)} digits exceed budget {DEFAULT_BUDGET}")
    thresholds = beta[1:-1]
    return tuple(bisect_right(thresholds, rng.randrange(den)) for _ in range(length))


# ---------------------------------------------------------------------------
# Certified intervals
# ---------------------------------------------------------------------------

class _EnclosureFields(NamedTuple):
    lo: Fraction
    hi: Fraction


class Enclosure(_Checked, _EnclosureFields):
    """A rational interval [lo, hi] certified to contain an exact value.

    Both ends are coerced with as_fraction, so a value it refuses is
    InvalidArgument, and so is lo > hi."""

    __slots__ = ()

    def __new__(cls, lo: RationalLike, hi: RationalLike):
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > hi:
            raise InvalidArgument(f"empty enclosure [{_shown(lo)}, {_shown(hi)}]")
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def _ordered(cls, lo: Fraction, hi: Fraction) -> "Enclosure":
        """An enclosure whose lo <= hi holds by construction: no order check."""
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def point(cls, value) -> "Enclosure":
        v = as_fraction(value)
        # lo == hi: there is no order to check
        return tuple.__new__(cls, (v, v))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.is_exact:
            raise InvalidArgument(f"enclosure [{_shown(self.lo)}, {_shown(self.hi)}] is not a point")
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
