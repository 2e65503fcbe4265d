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

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import DEFAULT_BUDGET, DigitSeq, ProbVector
from .errors import BudgetExceeded, EmptyAlphabet, InvalidArgument, NotShiftInvariant
from .flips import FlipSystem, cylinder_images, eval_flip

#: Fixed crossing level for the dimension bisection.  At alpha = 1 the
#: entropy sum is exactly sqrt(2) whenever the horizontal and vertical
#: side products coincide (monotone graph, or symmetric weights), and
#: sum sqrt(x^2+y^2) >= (sum x + sum y)/sqrt(2) = sqrt(2) in general, so the
#: crossing sits at or just above 1 and the sandwich drives it to 1.
ENTROPY_THRESHOLD = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Iterated affine maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineMap2D:
    x_scale: Fraction
    x_offset: Fraction
    y_scale: Fraction
    y_offset: Fraction

    def apply(self, point: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
        x, y = point
        return (self.x_scale * x + self.x_offset, self.y_scale * y + self.y_offset)


def ifs_maps(system: FlipSystem) -> list[AffineMap2D]:
    """The q affine contractions whose attractor is the graph of the flip map."""
    if not system.shift_invariant:
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


def ifs_graph_points(system: FlipSystem, depth: int, budget: int = DEFAULT_BUDGET) -> list[tuple[Fraction, Fraction]]:
    """The q**depth graph points over the rank-depth cylinder left endpoints.

    For flips none or all these are the depth-fold compositions of the affine
    maps applied to the seed (0, g(0)).  Any flip set works: the point over a
    cylinder is its image's lower end plus the image width times the value
    of the flipped zero tail from position depth + 1."""
    if depth < 0:
        raise InvalidArgument(f"depth must be >= 0, got {depth}")
    pv = system.pv
    if pv.q ** depth > budget:
        raise BudgetExceeded(f"{pv.q}**{depth} points exceed budget {budget}")
    tail = eval_flip(DigitSeq((), pv.q), system, offset=depth).value
    t_num, t_den = tail.numerator, tail.denominator
    scale = pv.den ** depth
    return [
        (Fraction(x_lo, scale), Fraction(y_lo * t_den + y_w * t_num, scale * t_den))
        for x_lo, _, y_lo, y_w in cylinder_images(system, depth)
    ]


# ---------------------------------------------------------------------------
# Entropy sums
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def rectangle_diagonals_sq(system: FlipSystem, rank: int, budget: int = DEFAULT_BUDGET):
    """Exact squared diagonals of the occupied rank-r covering rectangles,
    as (multiplicity, diag_sq) pairs."""
    if rank < 0:
        raise InvalidArgument(f"rank must be >= 0, got {rank}")
    pv = system.pv
    q = pv.q
    if q ** rank > budget:
        raise BudgetExceeded(f"{q}**{rank} rectangles exceed budget {budget}")
    if system.shift_invariant:
        # sides depend only on the digit multiset: group by digit counts
        fact = math.factorial
        out = []
        for counts in _compositions(rank, q):
            mult = fact(rank)
            wx = Fraction(1)
            wy = Fraction(1)
            for c, n in enumerate(counts):
                mult //= fact(n)
                wx *= pv.p[c] ** n
                wy *= system.weight(1, c) ** n
            out.append((mult, wx * wx + wy * wy))
        return out
    scale = pv.den ** (2 * rank)
    return [(1, Fraction(x_w * x_w + y_w * y_w, scale)) for _, x_w, _, y_w in cylinder_images(system, rank)]


def entropy_sum(system: FlipSystem, alpha, rank: int, budget: int = DEFAULT_BUDGET) -> float:
    """Sum over the q**rank occupied rank-r rectangles of diagonal**alpha.

    Diagonals squared are exact rationals; only the alpha/2 power is floating
    point.  alpha = 0 counts rectangles, and the sum is strictly decreasing
    in alpha."""
    alpha = float(alpha)
    if alpha < 0:
        raise InvalidArgument(f"alpha must be >= 0, got {alpha}")
    if rank < 1:
        raise InvalidArgument(f"rank must be >= 1, got {rank}")
    half = alpha / 2.0
    return math.fsum(mult * float(d2) ** half for mult, d2 in rectangle_diagonals_sq(system, rank, budget))


def graph_dimension_estimate(system: FlipSystem, ranks, budget: int = DEFAULT_BUDGET) -> dict[int, float]:
    """Per-rank crossing exponents of the entropy sum at the fixed threshold.

    For each rank, bisects the alpha where the (strictly decreasing) entropy
    sum crosses sqrt(2); the estimates trend to 1."""
    if not system.shift_invariant:
        raise NotShiftInvariant("dimension estimation needs flips none or all")
    ranks = list(ranks)
    if any(rank < 1 for rank in ranks):
        raise InvalidArgument(f"ranks must be >= 1, got {ranks}")
    if any(b <= a for a, b in zip(ranks, ranks[1:])):
        raise InvalidArgument(f"ranks must be strictly increasing, got {ranks}")
    out: dict[int, float] = {}
    for rank in ranks:
        diags = rectangle_diagonals_sq(system, rank, budget)

        def total(alpha: float) -> float:
            half = alpha / 2.0
            return math.fsum(mult * float(d2) ** half for mult, d2 in diags)

        lo, hi = 0.0, 1.0
        while total(hi) > ENTROPY_THRESHOLD and hi < 64.0:
            hi *= 2.0
        for _ in range(64):
            mid = (lo + hi) / 2.0
            if total(mid) > ENTROPY_THRESHOLD:
                lo = mid
            else:
                hi = mid
        out[rank] = (lo + hi) / 2.0
    return out


# ---------------------------------------------------------------------------
# Block fractals and the Moran equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MoranSpec:
    """The block fractal built from runs of the marker digit u: admissible
    streams are concatenations of blocks (u repeated i-1 times, then the
    digit i), with i ranging over the nonzero non-u digits."""

    pv: ProbVector
    u: int

    def __post_init__(self):
        self.pv.check_digit(self.u)

    @property
    def alphabet(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.pv.q) if i != self.u)

    def block(self, i: int) -> tuple[int, ...]:
        return (self.u,) * (i - 1) + (i,)

    def block_weights(self) -> dict[int, Fraction]:
        pv = self.pv
        return {i: pv.p[i] * pv.p[self.u] ** (i - 1) for i in self.alphabet}


def moran_dimension(spec: MoranSpec, tol: float = 1e-12) -> float:
    """Root alpha in [0, 1] of sum of block_weight**alpha = 1.

    The sum is strictly decreasing with value |alphabet| at 0 and < 1 at 1;
    degenerate alphabets (empty product mass) return 0.  Stops when the
    residual |F(alpha) - 1| is within tol."""
    if tol <= 0:
        raise InvalidArgument(f"tol must be positive, got {tol}")
    weights = [float(w) for w in spec.block_weights().values()]
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


def moran_set_cylinders(spec: MoranSpec, rank: int, budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """All rank-length digit bases consistent with membership in the block set.

    A base is consistent iff it is a prefix of some block concatenation; the
    walk tracks the current run length of u and either extends the run (while
    some longer block allows it) or closes it with the digit run+1."""
    if rank < 1:
        raise InvalidArgument(f"rank must be >= 1, got {rank}")
    alphabet = set(spec.alphabet)
    if not alphabet:
        return []
    max_sym = max(alphabet)
    u = spec.u
    out: list[tuple[int, ...]] = []

    def walk(path: list[int], run: int):
        if len(path) == rank:
            if len(out) >= budget:
                raise BudgetExceeded(f"more than {budget} consistent bases at rank {rank}")
            out.append(tuple(path))
            return
        moves = []
        if run < max_sym - 1:
            moves.append((u, run + 1))  # extend the marker run
        if run + 1 in alphabet:
            moves.append((run + 1, 0))  # close the block
        for digit, next_run in sorted(moves):
            path.append(digit)
            walk(path, next_run)
            path.pop()

    walk([], 0)
    return out


def covering_measure(spec: MoranSpec, rank: int, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Total length of the rank-r cylinders covering the block set; decreases
    to 0, certifying zero Lebesgue measure."""
    pv = spec.pv
    total = Fraction(0)
    for base in moran_set_cylinders(spec, rank, budget):
        w = Fraction(1)
        for d in base:
            w *= pv.p[d]
        total += w
    return total
