"""Reference computations that never call into probdigits.

Every exact reference works on integers scaled by the common denominator D
of the weight vector: a rank-m quantity is an integer over D**m, and a
Fraction is built only at the end.  Flip schedules are read from the
benchmark's own FlipSpec, not from probdigits.FlipSet.  So no check below
shares code, or the Fraction-per-digit arithmetic, with the path it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product


@dataclass(frozen=True)
class Vec:
    """A weight vector p_c = P[c] / D with cumulative offsets B[c] / D."""

    P: tuple[int, ...]
    D: int

    @property
    def q(self) -> int:
        return len(self.P)

    @property
    def B(self) -> tuple[int, ...]:
        out, acc = [], 0
        for w in self.P:
            out.append(acc)
            acc += w
        return tuple(out)

    def text(self) -> str:
        return ",".join(q_str(Fraction(w, self.D)) for w in self.P)

    def weights(self) -> list[Fraction]:
        return [Fraction(w, self.D) for w in self.P]


@dataclass(frozen=True)
class FlipSpec:
    """Flipped positions: none, all, a finite set, or preperiod + period bits."""

    kind: str
    positions: tuple[int, ...] = ()
    pre: tuple[bool, ...] = ()
    per: tuple[bool, ...] = ()

    def flipped(self, k: int) -> bool:
        if self.kind == "none":
            return False
        if self.kind == "all":
            return True
        if self.kind == "finite":
            return k in self.positions
        if k <= len(self.pre):
            return self.pre[k - 1]
        return self.per[(k - len(self.pre) - 1) % len(self.per)]

    @property
    def positional(self) -> bool:
        return self.kind in ("finite", "mask")

    @property
    def pre_end(self) -> int:
        """Last position before the schedule becomes purely periodic."""
        if self.kind == "finite":
            return max(self.positions)
        if self.kind == "mask":
            return len(self.pre)
        return 0

    @property
    def period(self) -> int:
        return len(self.per) if self.kind == "mask" else 1

    def text(self) -> str:
        if self.kind == "finite":
            return "finite:" + ",".join(str(k) for k in self.positions)
        if self.kind == "mask":
            bits = lambda bs: "".join("1" if b else "0" for b in bs)  # noqa: E731
            return f"mask:{bits(self.pre)};{bits(self.per)}"
        return self.kind


EVEN = FlipSpec("mask", per=(False, True))


def q_str(x: Fraction) -> str:
    """A rational as the CLI prints it: num/den, or an integer."""
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


# ---------------------------------------------------------------------------
# Digit streams
# ---------------------------------------------------------------------------

def digit_at(prefix, tail, k: int) -> int:
    m = len(prefix)
    return prefix[k - 1] if k <= m else tail[(k - m - 1) % len(tail)]


def flipped_stream(vec: Vec, prefix, tail, spec: FlipSpec, offset: int = 0):
    """(prefix, cycle) of the stream with digit k complemented iff k + offset is flipped.

    Past position max(len(prefix), pre_end - offset) both the tail and the
    schedule are periodic with periods dividing L, so one L-block closes it."""
    top = vec.q - 1
    n0 = max(len(prefix), spec.pre_end - offset)
    span = math.lcm(len(tail), spec.period)

    def fd(k):
        d = digit_at(prefix, tail, k)
        return top - d if spec.flipped(k + offset) else d

    return [fd(k) for k in range(1, n0 + 1)], [fd(k) for k in range(n0 + 1, n0 + span + 1)]


def scaled(vec: Vec, digits):
    """(num, W) with value of digits + zero tail = num / D**m and width W / D**m."""
    P, B, D = vec.P, vec.B, vec.D
    num, w = 0, 1
    for d in digits:
        num = num * D + B[d] * w
        w *= P[d]
    return num, w


def stream_value(vec: Vec, prefix, cycle) -> Fraction:
    """Prefix sum plus the geometric closure of the repeating cycle."""
    D = vec.D
    num_p, w_p = scaled(vec, prefix)
    num_c, w_c = scaled(vec, cycle)
    dl = D ** len(cycle)
    return Fraction(num_p * (dl - w_c) + w_p * num_c, D ** len(prefix) * (dl - w_c))


def flip_value(vec: Vec, prefix, tail, spec: FlipSpec, offset: int = 0) -> Fraction:
    return stream_value(vec, *flipped_stream(vec, prefix, tail, spec, offset))


def cylinder(vec: Vec, base) -> tuple[Fraction, Fraction]:
    num, w = scaled(vec, base)
    den = vec.D ** len(base)
    return Fraction(num, den), Fraction(num + w, den)


def flip_cylinder(vec: Vec, base, spec: FlipSpec, offset: int = 0) -> tuple[Fraction, Fraction]:
    top = vec.q - 1
    flipped = [top - d if spec.flipped(k + offset) else d for k, d in enumerate(base, start=1)]
    return cylinder(vec, flipped)


def streams_equal(a_prefix, a_tail, b_prefix, b_tail) -> bool:
    """Eventually periodic streams agree iff they agree on preperiod + lcm(periods)."""
    n = max(len(a_prefix), len(b_prefix)) + math.lcm(len(a_tail), len(b_tail))
    return all(digit_at(a_prefix, a_tail, k) == digit_at(b_prefix, b_tail, k) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# Pointwise checks
# ---------------------------------------------------------------------------

def encode_ok(vec: Vec, x: Fraction, depth: int, digits, tail) -> bool:
    """The returned prefix names the half-open depth cylinder holding x, or
    terminates at x exactly with a nonzero last digit."""
    q = vec.q
    if x == 1:
        return list(digits) == [q - 1] and list(tail) == [q - 1]
    if list(tail) != [0] or any(not 0 <= d < q for d in digits):
        return False
    num, w = scaled(vec, digits)
    den = vec.D ** len(digits)
    lhs = x.numerator * den
    if len(digits) < depth:
        return lhs == num * x.denominator and (not digits or digits[-1] != 0)
    return num * x.denominator <= lhs < (num + w) * x.denominator


def _shift(vec: Vec, a: int, b: int) -> tuple[int, int, int]:
    """Digit c of the state a/b (largest c with beta_c <= a/b) and the reduced next state."""
    B, D = vec.B, vec.D
    c = 0
    while c + 1 < vec.q and B[c + 1] * b <= a * D:
        c += 1
    a, b = a * D - B[c] * b, b * vec.P[c]
    g = math.gcd(a, b)
    return c, a // g, b // g


def encode_ref(vec: Vec, x: Fraction, depth: int) -> list[int]:
    """Digits of x down to depth ranks, stopping early when the orbit reaches 0."""
    if x == 1:
        return [vec.q - 1]
    a, b, out = x.numerator, x.denominator, []
    while a and len(out) < depth:
        c, a, b = _shift(vec, a, b)
        out.append(c)
    return out


def classify_ref(vec: Vec, x: Fraction, max_depth: int) -> tuple[str, int | None]:
    """Shift orbit of x in reduced integer pairs: 0 reached, a repeat, or neither."""
    if x == 1:
        return "p-rational", None
    a, b = x.numerator, x.denominator
    seen = set()
    for step in range(max_depth + 1):
        if a == 0:
            return "p-rational", None
        if (a, b) in seen:
            return "p-irrational", None
        if step == max_depth:
            break
        seen.add((a, b))
        _, a, b = _shift(vec, a, b)
    return "undetermined", max_depth


def base_q_digits(x: Fraction, q: int):
    """Ordinary base-q expansion of x in [0, 1) as (prefix, cycle) by long division."""
    num, den = x.numerator, x.denominator
    digits, seen = [], {}
    while num not in seen:
        seen[num] = len(digits)
        d, num = divmod(q * num, den)
        digits.append(d)
    start = seen[num]
    return digits[:start], digits[start:]


def bernoulli_cdf_ref(vec: Vec, x: Fraction) -> Fraction:
    if x < 0:
        return Fraction(0)
    if x >= 1:
        return Fraction(1)
    return stream_value(vec, *base_q_digits(x, vec.q))


def derivative_ratios(vec: Vec, prefix, spec: FlipSpec, max_rank: int) -> list[Fraction]:
    top = vec.q - 1
    num, den, out = 1, 1, []
    for t, d in enumerate(prefix[:max_rank], start=1):
        num *= vec.P[top - d if spec.flipped(t) else d]
        den *= vec.P[d]
        out.append(Fraction(num, den))
    return out


def ratio_factors(vec: Vec, spec: FlipSpec, t: int) -> set[Fraction]:
    """The per-digit factors weight(t, c) / p_c one scan step can multiply by."""
    top = vec.q - 1
    return {Fraction(vec.P[top - c if spec.flipped(t) else c], vec.P[c]) for c in range(vec.q)}


def p_rational_words(q: int, count: int) -> list[tuple[int, ...]]:
    """Terminating addresses of the first count interior p-rationals, rank-major."""
    out, rank = [], 1
    while True:
        for head in product(range(q), repeat=rank - 1):
            for last in range(1, q):
                out.append(head + (last,))
                if len(out) == count:
                    return out
        rank += 1


def jump_ref(vec: Vec, digits, spec: FlipSpec) -> tuple[Fraction, Fraction]:
    """(left, right) limits at the p-rational whose terminating address is digits."""
    right = flip_value(vec, digits, (0,), spec)
    left = flip_value(vec, tuple(digits[:-1]) + (digits[-1] - 1,), (vec.q - 1,), spec)
    return left, right


# ---------------------------------------------------------------------------
# Integrals
# ---------------------------------------------------------------------------

def _expected_terms(vec: Vec):
    """Expected (offset, weight) of one digit, plain and flipped, as integers over D**2."""
    P, B, q = vec.P, vec.B, vec.q
    plain = (sum(B[c] * P[c] for c in range(q)), sum(P[c] * P[c] for c in range(q)))
    flip = (sum(B[q - 1 - c] * P[c] for c in range(q)), sum(P[q - 1 - c] * P[c] for c in range(q)))
    return plain, flip


def integral_exact(vec: Vec, spec: FlipSpec) -> Fraction:
    """The Lebesgue integral: sum_k v_k prod_{j<k} w_j, closed over the schedule's period."""
    plain, flip = _expected_terms(vec)
    e = vec.D ** 2
    term = lambda k: flip if spec.flipped(k) else plain  # noqa: E731
    n0 = spec.pre_end
    num_p, w_p = 0, 1
    for k in range(1, n0 + 1):
        o, w = term(k)
        num_p, w_p = num_p * e + o * w_p, w_p * w
    num_c, w_c = 0, 1
    for k in range(n0 + 1, n0 + spec.period + 1):
        o, w = term(k)
        num_c, w_c = num_c * e + o * w_c, w_c * w
    el = e ** spec.period
    return Fraction(num_p * (el - w_c) + w_p * num_c, e ** n0 * (el - w_c))


def riemann_ref(vec: Vec, spec: FlipSpec, rank: int) -> tuple[Fraction, Fraction]:
    """Rank-r lower sum = rank-r partial sum of the expectation series; the
    upper sum adds the product of the r expected weights."""
    plain, flip = _expected_terms(vec)
    num, w = 0, 1
    for k in range(1, rank + 1):
        o, wk = flip if spec.flipped(k) else plain
        num, w = num * vec.D ** 2 + o * w, w * wk
    den = vec.D ** (2 * rank)
    return Fraction(num, den), Fraction(num + w, den)


# ---------------------------------------------------------------------------
# Enumerations
# ---------------------------------------------------------------------------

def graph_points_ok(vec: Vec, spec: FlipSpec, depth: int, points) -> bool:
    """Points come in lexicographic word order; x is the word's cylinder left
    end and y the flip map there (flipped word, then the flipped zero tail)."""
    q = vec.q
    if len(points) != q ** depth:
        return False
    den = vec.D ** depth
    tail = 1 if spec.flipped(1) else 0  # value of the flipped zero tail: 1 for all, 0 for none
    top = q - 1
    for word, (x, y) in zip(product(range(q), repeat=depth), points):
        xn, _ = scaled(vec, word)
        yn, yw = scaled(vec, [top - d if spec.flipped(k) else d for k, d in enumerate(word, 1)])
        if x.numerator * den != xn * x.denominator or y.numerator * den != (yn + yw * tail) * y.denominator:
            return False
    return True


def rectangle_states(vec: Vec, spec: FlipSpec, rank: int) -> dict[tuple[int, int], int]:
    """Occupied rank-r rectangles grouped by their (width, height) numerators over D**rank."""
    top = vec.q - 1
    states = {(1, 1): 1}
    for k in range(1, rank + 1):
        nxt: dict[tuple[int, int], int] = {}
        flip = spec.flipped(k)
        for (wx, wy), n in states.items():
            for c in range(vec.q):
                key = (wx * vec.P[c], wy * vec.P[top - c if flip else c])
                nxt[key] = nxt.get(key, 0) + n
        states = nxt
    return states


def diagonals_ok(vec: Vec, spec: FlipSpec, rank: int, pairs) -> bool:
    """Same multiset of squared diagonals, counted with multiplicity."""
    den = vec.D ** (2 * rank)
    want: dict[int, int] = {}
    for (wx, wy), n in rectangle_states(vec, spec, rank).items():
        key = wx * wx + wy * wy
        want[key] = want.get(key, 0) + n
    got: dict[int, int] = {}
    for mult, d2 in pairs:
        if den % d2.denominator:
            return False
        key = d2.numerator * (den // d2.denominator)
        got[key] = got.get(key, 0) + mult
    return got == want


def entropy_ref(vec: Vec, spec: FlipSpec, rank: int):
    """alpha -> sum of diagonal**alpha over the rank-r rectangles (floats)."""
    den = vec.D ** (2 * rank)
    terms = [(n, (wx * wx + wy * wy) / den) for (wx, wy), n in rectangle_states(vec, spec, rank).items()]
    return lambda alpha: math.fsum(n * d2 ** (alpha / 2.0) for n, d2 in terms)


def crossing_ok(total, alpha: float, level: float, rel: float) -> bool:
    """alpha is where the decreasing function total crosses level, to relative tolerance rel."""
    return total(alpha * (1 - rel)) >= level >= total(alpha * (1 + rel))


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def moran_alphabet(q: int, u: int) -> tuple[int, ...]:
    return tuple(i for i in range(1, q) if i != u)


def moran_consistent(q: int, u: int, base) -> bool:
    """base is a prefix of a concatenation of blocks u**(i-1) i, i in the alphabet."""
    alphabet = moran_alphabet(q, u)
    top = max(alphabet)
    run = 0
    for d in base:
        if d == u and run + 2 <= top:
            run += 1
        elif d == run + 1 and d in alphabet:
            run = 0
        else:
            return False
    return True


def moran_count_and_measure(vec: Vec, u: int, rank: int) -> tuple[int, Fraction]:
    """Number of consistent rank-r bases and their total length, by a DP over run length."""
    alphabet = moran_alphabet(vec.q, u)
    top = max(alphabet)
    states = {0: (1, 1)}  # run -> (count, summed width numerator over D**k)
    for _ in range(rank):
        nxt: dict[int, tuple[int, int]] = {}
        for run, (n, w) in states.items():
            moves = []
            if run + 2 <= top:
                moves.append((u, run + 1))
            if run + 1 in alphabet:
                moves.append((run + 1, 0))
            for d, r2 in moves:
                n0, w0 = nxt.get(r2, (0, 0))
                nxt[r2] = (n0 + n, w0 + w * vec.P[d])
        states = nxt
    count = sum(n for n, _ in states.values())
    return count, Fraction(sum(w for _, w in states.values()), vec.D ** rank)


def moran_weights(vec: Vec, u: int) -> list[float]:
    return [float(Fraction(vec.P[i] * vec.P[u] ** (i - 1), vec.D ** i)) for i in moran_alphabet(vec.q, u)]
