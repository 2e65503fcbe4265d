"""Position-dependent digit flips and the map between the two expansions.

A flip set names the positions k >= 1 at which a digit d is complemented to
q-1-d.  The flip map sends the number with digit stream (d_k) to the value
of the series whose offsets and weights at position k are taken from the
complemented digit whenever k is flipped.  Supported flip schedules: none,
every position, a finite set, and an eventually periodic 0/1 mask -- the
alternating (nega) expansion is the mask that flips every even position.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

from .core import DigitSeq, Enclosure, ProbVector, eval_digits, horner_sum
from .errors import DigitOutOfRange, FlipSpecError, InvalidArgument


class FlipKind(Enum):
    NONE = "none"
    ALL = "all"
    FINITE = "finite"
    MASK = "mask"


@dataclass(frozen=True)
class FlipSet:
    """The set of flipped positions; total membership test for every k >= 1."""

    kind: FlipKind
    positions: tuple[int, ...] = ()
    preperiod: tuple[bool, ...] = ()
    period: tuple[bool, ...] = ()

    # -- constructors -------------------------------------------------------

    @classmethod
    def none(cls) -> "FlipSet":
        return cls(FlipKind.NONE)

    @classmethod
    def all(cls) -> "FlipSet":
        return cls(FlipKind.ALL)

    @classmethod
    def finite(cls, positions: Iterable[int]) -> "FlipSet":
        pos = tuple(sorted(set(int(k) for k in positions)))
        if any(k < 1 for k in pos):
            raise FlipSpecError(f"flip positions must be >= 1, got {pos}")
        if not pos:
            return cls.none()
        return cls(FlipKind.FINITE, positions=pos)

    @classmethod
    def mask(cls, preperiod: Iterable[bool], period: Iterable[bool]) -> "FlipSet":
        pre = tuple(bool(b) for b in preperiod)
        per = tuple(bool(b) for b in period)
        if not per:
            raise FlipSpecError("mask period must be nonempty")
        bits = pre + per
        if all(bits):
            return cls.all()
        if not any(bits):
            return cls.none()
        return cls(FlipKind.MASK, preperiod=pre, period=per)

    @classmethod
    def parse(cls, text: str) -> "FlipSet":
        """Parse 'none' | 'all' | 'finite:2,5' | 'mask:PRE;PERIOD' (bit strings)."""
        if text == "none":
            return cls.none()
        if text == "all":
            return cls.all()
        kind, sep, payload = text.partition(":")
        if not sep:
            raise FlipSpecError(f"unknown flip spec {text!r} (expected none, all, finite:..., mask:...)")
        if kind == "finite":
            try:
                positions = [int(tok) for tok in payload.split(",") if tok.strip()]
            except ValueError as exc:
                raise FlipSpecError(f"bad finite flip list {payload!r}: {exc}") from None
            return cls.finite(positions)
        if kind == "mask":
            pre_txt, sep2, per_txt = payload.partition(";")
            if not sep2:
                raise FlipSpecError(f"mask spec {payload!r} needs 'PRE;PERIOD'")
            for label, txt in (("preperiod", pre_txt), ("period", per_txt)):
                for col, ch in enumerate(txt):
                    if ch not in "01":
                        raise FlipSpecError(f"mask {label} column {col}: {ch!r} is not a bit")
            return cls.mask([c == "1" for c in pre_txt], [c == "1" for c in per_txt])
        raise FlipSpecError(f"unknown flip kind {kind!r}")

    # -- queries ------------------------------------------------------------

    def contains(self, k: int) -> bool:
        if k < 1:
            raise InvalidArgument(f"positions are 1-based, got {k}")
        if self.kind is FlipKind.NONE:
            return False
        if self.kind is FlipKind.ALL:
            return True
        if self.kind is FlipKind.FINITE:
            return k in self.positions
        if k <= len(self.preperiod):
            return self.preperiod[k - 1]
        return self.period[(k - len(self.preperiod) - 1) % len(self.period)]

    def __contains__(self, k: int) -> bool:
        return self.contains(k)

    @property
    def shift_invariant(self) -> bool:
        return self.kind in (FlipKind.NONE, FlipKind.ALL)

    def min_position(self) -> int | None:
        """Smallest flipped position, or None for the empty set."""
        if self.kind is FlipKind.NONE:
            return None
        if self.kind is FlipKind.ALL:
            return 1
        if self.kind is FlipKind.FINITE:
            return self.positions[0]
        for i, bit in enumerate(self.preperiod):
            if bit:
                return i + 1
        return len(self.preperiod) + 1 + self.period.index(True)

    def pattern_from(self, start: int) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
        """Flip bits for positions start, start+1, ... as (preperiod, period)."""
        if start < 1:
            raise InvalidArgument(f"positions are 1-based, got {start}")
        if self.kind is FlipKind.NONE:
            return (), (False,)
        if self.kind is FlipKind.ALL:
            return (), (True,)
        if self.kind is FlipKind.FINITE:
            top = self.positions[-1]
            if start > top:
                return (), (False,)
            return tuple(k in self.positions for k in range(start, top + 1)), (False,)
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


@dataclass(frozen=True)
class FlipSystem:
    """A probability vector paired with a flip schedule.

    weight/offset at position k are those of the complemented digit whenever
    k is flipped, so the flipped series equals the plain evaluation of the
    flipped digit stream.
    """

    pv: ProbVector
    flips: FlipSet

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

def flip_digits(seq: DigitSeq, flips: FlipSet) -> DigitSeq:
    """Complement the digits of seq at the flipped positions, exactly.

    Constant tails survive only when the flip schedule is eventually constant
    over them; otherwise the prefix is extended through the schedule's
    preperiod and the tail becomes the periodic block of flipped digits.
    """
    q = seq.q
    top = q - 1
    prefix = [top - d if flips.contains(k) else d for k, d in enumerate(seq.digits, start=1)]
    fpre, fper = flips.pattern_from(len(seq.digits) + 1)
    block = seq.tail
    for i, bit in enumerate(fpre):
        d = block[i % len(block)]
        prefix.append(top - d if bit else d)
    span = lcm(len(block), len(fper))
    phase = len(fpre) % len(block)
    new_block = tuple(
        top - block[(phase + i) % len(block)] if fper[i % len(fper)] else block[(phase + i) % len(block)]
        for i in range(span)
    )
    return DigitSeq(tuple(prefix), q, new_block)


def nega_to_digits(seq: DigitSeq) -> DigitSeq:
    """Digit stream of the plain expansion matching an alternating address:
    complement every even position."""
    return flip_digits(seq, EVEN_POSITIONS)


# ---------------------------------------------------------------------------
# Value-level map
# ---------------------------------------------------------------------------

def eval_flip(seq: DigitSeq, system: FlipSystem, offset: int = 0) -> Enclosure:
    """Exact value of the flipped series of seq (a degenerate enclosure).

    offset > 0 evaluates the tail form: position k of seq is treated as
    absolute position k + offset, which is the n-th unknown of the
    functional system f(shift^{n-1} x) = offset_n + weight_n * f(shift^n x).
    """
    if offset < 0:
        raise InvalidArgument(f"offset must be >= 0, got {offset}")
    flips = system.flips
    if offset > 0:
        flips = FlipSet.mask(*flips.pattern_from(offset + 1))
    return Enclosure.point(eval_digits(flip_digits(seq, flips), system.pv))


def flip_image(base: Sequence[int], system: FlipSystem, offset: int = 0) -> Enclosure:
    """Interval hull of the flip map over the cylinder with the given base."""
    pv = system.pv
    total = Fraction(0)
    weight = Fraction(1)
    for k, d in enumerate(base, start=1):
        pv.check_digit(d)
        total += weight * system.offset(k + offset, d)
        weight *= system.weight(k + offset, d)
    return Enclosure(total, total + weight)


def cylinder_images(system: FlipSystem, rank: int) -> Iterator[tuple[int, int, int, int]]:
    """Every rank-r cylinder [x_lo, x_lo + x_w] with the hull [y_lo, y_lo + y_w]
    of its flip image, in lexicographic base order.

    All four values are integer numerators over D**rank, D = system.pv.den, so
    the walk does no Fraction arithmetic.  Depth-first over an explicit stack:
    O(rank * q) memory.
    """
    pv = system.pv
    den = pv.den
    cells = [(int(pv.beta[c] * den), int(pv.p[c] * den)) for c in range(pv.q)]
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


# ---------------------------------------------------------------------------
# Alternating (nega) expansion, evaluated literally
# ---------------------------------------------------------------------------

def _alt_weight(pv: ProbVector, k: int, d: int) -> Fraction:
    # odd positions keep the digit weight, even positions take the complement's
    return pv.p[d] if k % 2 == 1 else pv.p[pv.q - 1 - d]


def _alt_offset(pv: ProbVector, k: int, d: int) -> Fraction:
    # signed series term: +beta[d] at odd k, -(1 - beta[q-1-d]) at even k
    if k % 2 == 1:
        return pv.beta[d]
    return -(1 - pv.beta[pv.q - 1 - d])


def eval_nega(seq: DigitSeq, pv: ProbVector) -> Enclosure:
    """Exact value of the alternating expansion with address seq.

    Three pieces, summed literally: the leading offset beta[d_1]; the signed
    series over positions k >= 2 with parity-dependent weights; and the
    correction sum of the odd-length weight products.  Equals the plain
    evaluation of the even-position-complemented stream.
    """
    if seq.q != pv.q:
        raise DigitOutOfRange(f"sequence alphabet {seq.q} != vector alphabet {pv.q}")
    m = len(seq.digits)
    block = seq.tail
    span = lcm(len(block), 2)
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

    return Enclosure.point(first + signed + correction)
