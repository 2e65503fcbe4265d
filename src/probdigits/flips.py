"""Position-dependent digit flips and the map between the two expansions.

A flip set names the positions k >= 1 at which a digit d is complemented to
q-1-d.  The flip map sends the number with digit stream (d_k) to the value
of the series whose offsets and weights at position k are taken from the
complemented digit whenever k is flipped.  Supported flip schedules: none,
every position, a finite set, and an eventually periodic 0/1 mask -- the
alternating (nega) expansion is the mask that flips every even position.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain, cycle, islice
from math import lcm
from operator import index
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import DEFAULT_BUDGET, DigitSeq, Enclosure, ProbVector, _as_int, _as_position, _ends, _horner
from .core import _as_record, _Checked, _same_alphabet, _shown
from .errors import BudgetExceeded, FlipSpecError

#: Flip bits as (preperiod, period): bit k is preperiod[k-1], then period repeats.
_Pattern = tuple[tuple[bool, ...], tuple[bool, ...]]


class FlipKind(Enum):
    NONE = "none"
    ALL = "all"
    FINITE = "finite"
    MASK = "mask"


def _mask_bits(entries: Iterable, label: str) -> tuple[bool, ...]:
    """A mask's bits as a tuple of bools: each entry a bool, or an int equal
    to 0 or 1; entries that do not iterate, or the first other entry, is FlipSpecError."""
    try:
        bits = tuple(entries)
    except TypeError:
        raise FlipSpecError(f"mask {label} must be a sequence of bits, got {_shown(entries)!r}") from None
    for b in bits:
        if b.__class__ is not bool:
            break
    else:
        return bits
    for col, b in enumerate(bits):
        if not isinstance(b, int) or not 0 <= b <= 1:
            raise FlipSpecError(f"mask {label} column {col}: {_shown(b)!r} is not a bit")
    return tuple([b == 1 for b in bits])


class _FlipFields(NamedTuple):
    kind: FlipKind
    preperiod: tuple[bool, ...] = ()
    period: tuple[bool, ...] = (False,)


class FlipSet(_Checked, _FlipFields):
    """The set of flipped positions; total membership test for every k >= 1.

    Every kind is stored as one eventually periodic bit stream: bit k is
    preperiod[k-1] for k <= len(preperiod), then period repeats.  `kind`
    records how the set is spelled (see __str__) and must fit the bits,
    checked by every construction, _replace included: none is ((), (False,)),
    all ((), (True,)), finite has period (False,) and a preperiod ending in
    a set bit, and mask mixes both values (equal bits build none or all).

    Equality compares the spelling, not the set: mask:;01 != mask:;0101 and
    mask:01;0 != finite:2, so equal FlipSystems can compare unequal.  Making
    every equal set spell one way would change str(), which CLI eval prints
    as the spec was written.
    """

    __slots__ = ()

    def __new__(cls, kind: FlipKind, preperiod: Iterable[bool] = (), period: Iterable[bool] = (False,)):
        if not isinstance(kind, FlipKind):
            raise FlipSpecError(f"flip kind must be a FlipKind, got {_shown(kind)!r}")
        pre = _mask_bits(preperiod, "preperiod")
        per = _mask_bits(period, "period")
        if not per:
            raise FlipSpecError("mask period must be nonempty")
        if kind is FlipKind.MASK:
            if len(set(pre + per)) == 1:
                kind, pre, per = FlipKind.ALL if per[0] else FlipKind.NONE, (), per[:1]
        elif per != (kind is FlipKind.ALL,) or pre[-1:] != ((True,) if kind is FlipKind.FINITE else ()):
            raise FlipSpecError(f"flip kind {kind.value} does not spell the bits {pre}, {per}")
        return tuple.__new__(cls, (kind, pre, per))

    # -- constructors -------------------------------------------------------

    @classmethod
    def none(cls) -> "FlipSet":
        return cls(FlipKind.NONE)

    @classmethod
    def all(cls) -> "FlipSet":
        return cls(FlipKind.ALL, period=(True,))

    @classmethod
    def finite(cls, positions: Iterable[int]) -> "FlipSet":
        try:
            positions = list(positions)
        except TypeError:
            raise FlipSpecError(f"flip positions must be a sequence of integers, got {_shown(positions)!r}") from None
        pos = set()
        for k in positions:
            try:
                pos.add(index(k))
            except TypeError:
                raise FlipSpecError(f"flip position {_shown(k)!r} is not an integer") from None
        pos = tuple(sorted(pos))
        if any(k < 1 for k in pos):
            raise FlipSpecError(f"flip positions must be >= 1, got {_shown(pos)}")
        if not pos:
            return cls.none()
        # the bits cost one entry per position up to the largest
        if pos[-1] > DEFAULT_BUDGET:
            raise BudgetExceeded(f"flip position {_shown(pos[-1])} exceeds budget {DEFAULT_BUDGET}")
        bits = [False] * pos[-1]
        for k in pos:
            bits[k - 1] = True
        return cls(FlipKind.FINITE, preperiod=bits)

    @classmethod
    def mask(cls, preperiod: Iterable[bool], period: Iterable[bool]) -> "FlipSet":
        return cls(FlipKind.MASK, preperiod, period)

    @classmethod
    def parse(cls, text: str) -> "FlipSet":
        """Parse 'none' | 'all' | 'finite:2,5' | 'mask:PRE;PERIOD' (bit strings)."""
        if not isinstance(text, str):
            raise FlipSpecError(f"flip spec must be a string, got {_shown(text)!r}")
        if text == "none":
            return cls.none()
        if text == "all":
            return cls.all()
        kind, sep, payload = text.partition(":")
        if not sep:
            raise FlipSpecError(f"unknown flip spec {_shown(text)!r} (expected none, all, finite:..., mask:...)")
        if kind == "finite":
            positions = []
            for tok in payload.split(","):
                if tok.strip():
                    try:
                        positions.append(int(tok))
                    except ValueError:  # int() would quote the token up to 200 characters
                        raise FlipSpecError(f"bad finite flip list {_shown(payload)!r}: "
                                            f"bad position {_shown(tok)!r}") from None
            return cls.finite(positions)
        if kind == "mask":
            pre_txt, sep2, per_txt = payload.partition(";")
            if not sep2:
                raise FlipSpecError(f"mask spec {_shown(payload)!r} needs 'PRE;PERIOD'")
            bit = {"0": False, "1": True}  # mask refuses any other character
            return cls.mask([bit.get(c, c) for c in pre_txt], [bit.get(c, c) for c in per_txt])
        raise FlipSpecError(f"unknown flip kind {_shown(kind)!r}")

    # -- queries ------------------------------------------------------------

    def contains(self, k: int) -> bool:
        k = _as_position(k)
        preperiod = self.preperiod
        if k <= len(preperiod):
            return preperiod[k - 1]
        period = self.period
        return period[(k - len(preperiod) - 1) % len(period)]

    def __contains__(self, k: int) -> bool:
        return self.contains(k)

    def bits(self) -> Iterator[bool]:
        """The flip bits of positions 1, 2, ... as one endless stream:
        the preperiod, then the period repeated."""
        return chain(self.preperiod, cycle(self.period))

    @property
    def shift_invariant(self) -> bool:
        return self.kind in (FlipKind.NONE, FlipKind.ALL)

    @property
    def positions(self) -> tuple[int, ...]:
        """The flipped positions of a finite set; () for an infinite one."""
        if any(self.period):
            return ()
        return tuple(k for k, bit in enumerate(self.preperiod, start=1) if bit)

    def min_position(self) -> int | None:
        """Smallest flipped position, or None for the empty set."""
        bits = self.preperiod + self.period
        return bits.index(True) + 1 if True in bits else None

    def pattern_from(self, start: int) -> _Pattern:
        """Flip bits for positions start, start+1, ... as (preperiod, period)."""
        start = _as_position(start)
        npre = len(self.preperiod)
        if start <= npre:
            return self.preperiod[start - 1:], self.period
        phase = (start - npre - 1) % len(self.period)
        return (), self.period[phase:] + self.period[:phase]

    def __str__(self) -> str:
        if self.kind is FlipKind.FINITE:
            return "finite:" + ",".join(str(k) for k in self.positions)
        if self.kind is FlipKind.MASK:
            pre = "".join("1" if b else "0" for b in self.preperiod)
            per = "".join("1" if b else "0" for b in self.period)
            return f"mask:{pre};{per}"
        return self.kind.value


#: Flips every even position; composing it with plain evaluation gives the
#: alternating expansion.
EVEN_POSITIONS = FlipSet.mask((), (False, True))
#: The flip bits of EVEN_POSITIONS from position 1, which eval_nega reads
_EVEN_PATTERN = EVEN_POSITIONS.pattern_from(1)


class _SystemFields(NamedTuple):
    pv: ProbVector
    flips: FlipSet


class FlipSystem(_Checked, _SystemFields):
    """A probability vector paired with a flip schedule.

    weight/offset at position k are those of the complemented digit whenever
    k is flipped, so the flipped series equals the plain evaluation of the
    flipped digit stream.  A field of another type is InvalidArgument.
    """

    __slots__ = ()

    def __new__(cls, pv: ProbVector, flips: FlipSet):
        return tuple.__new__(cls, (_as_record(pv, ProbVector, "pv"), _as_record(flips, FlipSet, "flips")))

    def digit(self, k: int, d: int) -> int:
        self.pv.check_digit(d)
        return self.pv.q - 1 - d if self.flips.contains(k) else d

    def weight(self, k: int, d: int) -> Fraction:
        return self.pv.p[self.digit(k, d)]

    def offset(self, k: int, d: int) -> Fraction:
        return self.pv.beta[self.digit(k, d)]

    @property
    def shift_invariant(self) -> bool:
        return self.flips.shift_invariant


# ---------------------------------------------------------------------------
# Digit-level map
# ---------------------------------------------------------------------------

def _letters(seq: DigitSeq, pattern: _Pattern) -> tuple[list[int], list[int]]:
    """seq's word in the flip table under the flip bits of pattern, as
    (prefix, cycle): digit d is letter d, or q + d where the bit of pattern
    is set (see core._letter_tables).  Both streams are eventually periodic,
    so the word is its prefix through both preperiods, then one common
    period of the digit tail and the flip bits repeated."""
    preperiod, period = pattern
    q = seq.q
    n = max(len(seq.digits), len(preperiod))
    span = lcm(len(seq.tail), len(period))
    digits = islice(chain(seq.digits, cycle(seq.tail)), n + span)
    letters = [d + q if flipped else d for d, flipped in zip(digits, chain(preperiod, cycle(period)))]
    return letters[:n], letters[n:]


def flip_digits(seq: DigitSeq, flips: FlipSet) -> DigitSeq:
    """Complement the digits of seq at the flipped positions, exactly: each
    letter of _letters becomes the digit whose entries it reads.  A flips
    that is not a FlipSet, then a seq that is not a DigitSeq, is
    InvalidArgument."""
    pattern = _as_record(flips, FlipSet, "flips").pattern_from(1)
    prefix, tail = _letters(_as_record(seq, DigitSeq, "seq"), pattern)
    digit = _letter_digits(seq.q)
    return DigitSeq([digit[c] for c in prefix], seq.q, [digit[c] for c in tail])


@lru_cache
def _letter_digits(q: int) -> tuple[int, ...]:
    """The digit each of the 2q letters reads: the offset over q of the uniform vector's letter."""
    return ProbVector.uniform(q)._flip_table.beta


def nega_to_digits(seq: DigitSeq) -> DigitSeq:
    """Digit stream of the plain expansion matching an alternating address:
    complement every even position."""
    return flip_digits(seq, EVEN_POSITIONS)


# ---------------------------------------------------------------------------
# Value-level map
# ---------------------------------------------------------------------------

def _flip_point(seq: DigitSeq, pv: ProbVector, pattern: _Pattern) -> Enclosure:
    """The flipped series of seq under the flip bits of pattern, as a point:
    the word of _letters goes straight to the integer Horner kernel over the
    flip table, and a cycle that is not primitive has the same value."""
    _same_alphabet(seq, pv)
    return Enclosure.point(_horner(pv._flip_table, *_letters(seq, pattern)))


def eval_flip(seq: DigitSeq, system: FlipSystem, offset: int = 0) -> Enclosure:
    """Exact value of the flipped series of seq (a degenerate enclosure),
    by _flip_point.  A system that is not a FlipSystem, then a seq that is
    not a DigitSeq, is InvalidArgument, after the offset check.

    offset > 0 evaluates the tail form: position k of seq is treated as
    absolute position k + offset, which is the n-th unknown of the
    functional system f(shift^{n-1} x) = offset_n + weight_n * f(shift^n x).
    """
    offset = _as_int(offset, "offset", 0)
    system = _as_record(system, FlipSystem, "system")
    return _flip_point(seq, system.pv, system.flips.pattern_from(offset + 1))


def flip_image(base: Sequence[int], system: FlipSystem, offset: int = 0) -> Enclosure:
    """Interval hull of the flip map over the cylinder with the given base:
    the cylinder of the base's flip-table letters; offset is as in eval_flip.
    A system that is not a FlipSystem is InvalidArgument, before the base
    and the offset are checked."""
    pv = _as_record(system, FlipSystem, "system").pv
    seq = DigitSeq(base, pv.q)
    preperiod, period = system.flips.pattern_from(_as_int(offset, "offset", 0) + 1)
    m = len(seq.digits)
    # no bit past the base counts: with both cut to m, at most 2m letters are made, used unchecked
    return Enclosure._ordered(*_ends(pv._flip_table, _letters(seq, (preperiod[:m], period[:m]))[0]))


# ---------------------------------------------------------------------------
# Alternating (nega) expansion
# ---------------------------------------------------------------------------

def eval_nega(seq: DigitSeq, pv: ProbVector) -> Enclosure:
    """Exact value of the alternating expansion with address seq: the
    paper's map, which is the flip map at EVEN_POSITIONS, evaluated by
    _flip_point.  The paper's three-piece series is its test oracle,
    conftest.eval_nega_by_fractions, which shows why the two agree."""
    return _flip_point(seq, pv, _EVEN_PATTERN)
