"""Seeded operation lists for the pointwise and enumerate workloads.

An Op is one closed-loop request: a list of calls into public probdigits
functions, timed together, plus an oracle check (oracle.py) and a canonical
form of its exact outputs.  Op lists are built in a fixed slot structure
(operation kind, q, vector family, flip kind), and the seed draws only the
values inside each slot.  So the mix of input properties, and with it the
cost of a pass, is the same for every seed.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import probdigits as pd
from probdigits import core, flips

import oracle as orc
from oracle import FlipSpec, Vec

QS = (2, 3, 5, 10)
FAMILIES = ("dyadic", "coprime")
FLIP_KINDS = ("none", "all", "finite", "mask")
DYADIC_DEN = {2: (16, 32, 64), 3: (16, 32, 64), 5: (32, 64), 10: (128, 256)}
COPRIME_DEN = (77, 91, 143)  # 7*11, 7*13, 11*13: weights like 2/7, 3/11, 34/77

POINTWISE_OPS = 2304  # six rounds over 12 kinds x 32 systems
INVALID_EVERY = 40  # one op in 40 is an invalid input
#: Target q**rank per size slot: log-spaced up to 10**3, then a plateau up to
#: 4*10**3 where op_p90 falls (dense, so the percentile does not jump between
#: far-apart jobs), then one job of each kind at 2*10**4.
ENUM_TARGETS = (100, 123, 152, 187, 231, 285, 351, 433, 534, 658, 811, 1000,
                1200, 1467, 1793, 2191, 2678, 3273, 4000, 20_000)
ENUM_SIZES = len(ENUM_TARGETS)
MORAN_SCALE = 4  # a Moran base costs about rank times a cylinder: aim at fewer bases
POINT_DEPTH = 64
SERIES_TOL = Fraction(1, 10**30)
REL_TOL = 1e-9  # relative tolerance for float outputs (entropy sums, dimensions, Moran root)


@dataclass
class Op:
    """One timed request.  calls: [(layer.function, fn, args)]."""

    kind: str
    calls: list
    check: Callable[[list], bool]
    canon: Callable[[list], str]
    props: dict = field(default_factory=dict)
    expect_error: bool = False  # correct outcome is a ProbDigitsError
    defect: str | None = None  # known defect this op exposes at the seed
    exact: bool = True  # its exact outputs enter output_digest
    digest: Callable[[list], str] | None = None  # those exact outputs, when canon holds more


def call(fn, *args):
    return (f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", fn, args)


def hex_q(x: Fraction) -> str:
    """Canonical num/den, in hex: linear-time for the multi-thousand-digit values some series reach."""
    return f"{x.numerator:x}/{x.denominator:x}"


def enc_str(e) -> str:
    return f"[{hex_q(e.lo)},{hex_q(e.hi)}]"


def seq_str(s) -> str:
    return f"{','.join(map(str, s.digits))}|{','.join(map(str, s.tail))}"


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def gen_vec(rng: random.Random, q: int, family: str) -> Vec:
    """q balanced weights over a dyadic denominator or a product of two odd primes.

    Each weight lies in [1/(2q), 3/(2q)], and all but the last are in lowest
    terms over the denominator.  So every seed gives numbers of similar size,
    and no weight near 1 makes a series converge slowly."""
    den = rng.choice(DYADIC_DEN[q] if family == "dyadic" else COPRIME_DEN)
    lo, hi = math.ceil(den / (2 * q)), 3 * den // (2 * q)
    allowed = [a for a in range(lo, hi + 1) if math.gcd(a, den) == 1]
    while True:
        parts = [rng.choice(allowed) for _ in range(q - 1)]
        if lo <= den - sum(parts) <= hi:
            return Vec(tuple(parts) + (den - sum(parts),), den)


def gen_spec(rng: random.Random, kind: str) -> FlipSpec:
    if kind == "finite":
        return FlipSpec("finite", positions=tuple(sorted(rng.sample(range(1, 9), rng.randint(1, 3)))))
    if kind == "mask":
        while True:
            pre = tuple(rng.random() < 0.5 for _ in range(rng.randint(0, 2)))
            per = tuple(rng.random() < 0.5 for _ in range(rng.randint(1, 3)))
            if len(set(pre + per)) == 2:
                return FlipSpec("mask", pre=pre, per=per)
    return FlipSpec(kind)


@dataclass
class System:
    """A FlipSystem with the benchmark's own description of it."""

    sid: int
    vec: Vec
    spec: FlipSpec
    family: str
    obj: object  # probdigits.FlipSystem

    @property
    def pv(self):
        return self.obj.pv

    def props(self) -> dict:
        return {"q": self.vec.q, "family": self.family, "flips": self.spec.kind,
                "positional": self.spec.positional, "system": self.sid}


def make_system(sid: int, vec: Vec, spec: FlipSpec, family: str) -> System:
    obj = pd.FlipSystem(pd.make_prob_vector(vec.weights()), pd.FlipSet.parse(spec.text()))
    return System(sid, vec, spec, family, obj)


def rand_digits(rng, q, n):
    return tuple(rng.randrange(q) for _ in range(n))


def rand_tail(rng, q):
    r = rng.random()
    if r < 0.4:
        return (0,)
    if r < 0.6:
        return (q - 1,)
    return rand_digits(rng, q, rng.randint(1, 4))


def rand_p_rational_digits(rng, q, max_len):
    return rand_digits(rng, q, rng.randint(0, max_len - 1)) + (rng.randint(1, q - 1),)


def rand_point(rng, vec: Vec) -> Fraction:
    """Half exact p-rationals, half rationals with small denominators."""
    if rng.random() < 0.5:
        return orc.stream_value(vec, rand_p_rational_digits(rng, vec.q, 20), (0,))
    b = rng.randint(2, 1000)
    return Fraction(rng.randint(0, b), b)


# ---------------------------------------------------------------------------
# pointwise
# ---------------------------------------------------------------------------

def _pointwise_valid(kind: str, rng: random.Random, s: System) -> Op:
    vec, spec, pv, q = s.vec, s.spec, s.pv, s.vec.q
    props = s.props()
    if kind == "encode":
        x = rand_point(rng, vec)
        return Op(kind, [call(core.encode, x, pv, POINT_DEPTH)],
                  lambda r: orc.encode_ok(vec, x, POINT_DEPTH, r[0].digits, r[0].tail),
                  lambda r: seq_str(r[0]), {**props, "depth": POINT_DEPTH})
    if kind == "classify":
        x = rand_point(rng, vec)
        return Op(kind, [call(core.classify, x, pv, POINT_DEPTH)],
                  lambda r: (r[0].kind.value, r[0].depth) == orc.classify_ref(vec, x, POINT_DEPTH),
                  lambda r: f"{r[0].kind.value}:{r[0].depth}", {**props, "depth": POINT_DEPTH})
    if kind == "cylinder_bounds":
        base = rand_digits(rng, q, POINT_DEPTH)
        return Op(kind, [call(core.cylinder_bounds, base, pv)],
                  lambda r: r[0].base == base and (r[0].lo, r[0].hi) == orc.cylinder(vec, base),
                  lambda r: f"{hex_q(r[0].lo)},{hex_q(r[0].hi)}", {**props, "depth": POINT_DEPTH})
    if kind == "bernoulli_cdf":
        b = rng.randint(2, 60)
        x = Fraction(rng.randint(0, b), b)
        return Op(kind, [call(core.bernoulli_cdf, x, pv)],
                  lambda r: r[0] == orc.bernoulli_cdf_ref(vec, x),
                  lambda r: hex_q(r[0]), props)
    if kind == "jump_at":
        digits = rand_p_rational_digits(rng, q, 12)
        x0 = orc.stream_value(vec, digits, (0,))

        def check(r):
            left, right = orc.jump_ref(vec, digits, spec)
            j = r[0]
            return (j.point, j.left_limit, j.right_limit, j.jump) == (x0, left, right, right - left)
        return Op(kind, [call(pd.jump_at, x0, s.obj)], check,
                  lambda r: f"{hex_q(r[0].left_limit)},{hex_q(r[0].right_limit)}", {**props, "depth": len(digits)})
    if kind == "derivative_estimate":
        rank = rng.randint(16, 32)
        prefix = rand_digits(rng, q, 32)
        return Op(kind, [call(pd.derivative_estimate, prefix, s.obj, rank)],
                  lambda r: r[0].digits == prefix and list(r[0].ratios) == orc.derivative_ratios(vec, prefix, spec, rank),
                  lambda r: ",".join(map(hex_q, r[0].ratios)), {**props, "depth": rank})
    if kind == "integral_series":
        def check(r):
            e = r[0]
            return e.lo <= orc.integral_exact(vec, spec) <= e.hi and e.hi - e.lo <= SERIES_TOL
        return Op(kind, [call(pd.integral_series, s.obj, SERIES_TOL)], check, lambda r: enc_str(r[0]), props)
    if kind == "flip_image":
        base = rand_digits(rng, q, rng.randint(1, 32))
        offset = rng.randint(1, 5) if rng.random() < 0.25 else 0
        return Op(kind, [call(flips.flip_image, base, s.obj, offset)],
                  lambda r: (r[0].lo, r[0].hi) == orc.flip_cylinder(vec, base, spec, offset),
                  lambda r: enc_str(r[0]), {**props, "depth": len(base)})

    prefix = rand_digits(rng, q, rng.randint(0, 24))
    tail = rand_tail(rng, q)
    seq = pd.DigitSeq(prefix, q, tail)
    props = {**props, "depth": len(prefix)}
    if kind == "eval_digits":
        return Op(kind, [call(core.eval_digits, seq, pv)],
                  lambda r: r[0] == orc.stream_value(vec, prefix, tail), lambda r: hex_q(r[0]), props)
    if kind == "flip_digits":
        return Op(kind, [call(flips.flip_digits, seq, s.obj.flips)],
                  lambda r: orc.streams_equal(r[0].digits, r[0].tail, *orc.flipped_stream(vec, prefix, tail, spec)),
                  lambda r: seq_str(r[0]), props)
    if kind == "eval_flip":
        offset = rng.randint(1, 5) if rng.random() < 0.25 else 0
        return Op(kind, [call(flips.eval_flip, seq, s.obj, offset)],
                  lambda r: r[0].lo == r[0].hi == orc.flip_value(vec, prefix, tail, spec, offset),
                  lambda r: enc_str(r[0]), props)
    if kind == "eval_nega":
        return Op(kind, [call(flips.eval_nega, seq, pv)],
                  lambda r: r[0].lo == r[0].hi == orc.flip_value(vec, prefix, tail, orc.EVEN),
                  lambda r: enc_str(r[0]), props)
    raise ValueError(kind)


POINTWISE_KINDS = (
    "encode", "classify", "cylinder_bounds", "eval_digits", "flip_digits", "eval_flip",
    "flip_image", "eval_nega", "jump_at", "derivative_estimate", "integral_series", "bernoulli_cdf",
)

#: Invalid inputs whose correct outcome is a ProbDigitsError.  The second
#: field names a defect that the package is known to mishandle (ROADMAP item 4).
POINTWISE_INVALID = (
    ("encode-outside-unit-interval", None),
    ("classify-negative", None),
    ("cylinder-digit-out-of-range", None),
    ("eval-digits-alphabet-mismatch", None),
    ("jump-at-endpoint", None),
    ("derivative-short-prefix", None),
    ("weights-not-summing-to-one", None),
    ("flip-spec-bad-bit", None),
    ("encode-negative-depth", "encode accepts depth -5 and returns a digit sequence"),
    ("integral-series-zero-tol", "integral_series(tol=0) raises a bare ValueError"),
)


def _pointwise_invalid(name: str, s: System) -> list:
    q, pv = s.vec.q, s.pv
    return {
        "encode-outside-unit-interval": lambda: [call(core.encode, Fraction(q + 1, q), pv, POINT_DEPTH)],
        "classify-negative": lambda: [call(core.classify, Fraction(-1, 3), pv)],
        "cylinder-digit-out-of-range": lambda: [call(core.cylinder_bounds, (0, q), pv)],
        "eval-digits-alphabet-mismatch": lambda: [call(core.eval_digits, pd.DigitSeq((1,), q + 1), pv)],
        "jump-at-endpoint": lambda: [call(pd.jump_at, Fraction(0), s.obj)],
        "derivative-short-prefix": lambda: [call(pd.derivative_estimate, (0, 0, 0), s.obj, 8)],
        "weights-not-summing-to-one": lambda: [call(core.make_prob_vector, ("1/2", "1/3"))],
        "flip-spec-bad-bit": lambda: [call(flips.FlipSet.parse, "mask:;012")],
        "encode-negative-depth": lambda: [call(core.encode, Fraction(1, 3), pv, -5)],
        "integral-series-zero-tol": lambda: [call(pd.integral_series, s.obj, 0)],
    }[name]()


def make_systems(rng: random.Random) -> list[System]:
    """One FlipSystem per (q, family, flip kind): 32 systems, reused by every op."""
    out = []
    for q in QS:
        for family in FAMILIES:
            vec = gen_vec(rng, q, family)
            for kind in FLIP_KINDS:
                out.append(make_system(len(out), vec, gen_spec(rng, kind), family))
    return out


def pointwise(seed: int) -> list[Op]:
    rng = random.Random(seed)
    systems = make_systems(rng)
    ops = []
    for i in range(POINTWISE_OPS):
        s = systems[(i // len(POINTWISE_KINDS)) % len(systems)]
        if i % INVALID_EVERY == INVALID_EVERY - 1:
            name, defect = POINTWISE_INVALID[(i // INVALID_EVERY) % len(POINTWISE_INVALID)]
            ops.append(Op("invalid:" + name, _pointwise_invalid(name, s), None, None,
                          {**s.props(), "invalid": True}, expect_error=True, defect=defect, exact=False))
        else:
            ops.append(_pointwise_valid(POINTWISE_KINDS[i % len(POINTWISE_KINDS)], rng, s))
    return ops


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def _rank_for(q: int, target: float) -> int:
    """The rank whose q**rank is nearest target on a log scale, leaning small."""
    return max(1, math.floor(math.log(target) / math.log(q) + 0.35))


def _moran_rank(vec: Vec, u: int, target: float) -> tuple[int, int]:
    """The rank whose number of consistent bases is closest to target, and that number."""
    rank, best = 1, None
    while True:
        count, _ = orc.moran_count_and_measure(vec, u, rank)
        dist = abs(math.log(max(count, 1) / target))
        if best is not None and dist >= best[0]:
            return best[1:]
        best = (dist, rank, count)
        rank += 1


def _enumerate_job(kind: str, size: int, rng: random.Random, sid: int) -> Op:
    target = ENUM_TARGETS[size]
    family = FAMILIES[(size // 4) % 2]
    at_budget = size >= ENUM_SIZES - 2  # the largest jobs run with budget == q**rank exactly
    if kind == "moran":
        q = (3, 5, 10)[size % 3]
        vec = gen_vec(rng, q, family)
        markers = [u for u in range(q) if len(orc.moran_alphabet(q, u)) >= 2]
        u = markers[size % len(markers)]  # fixed per slot: the marker sets the cost per base
        rank, size = _moran_rank(vec, u, target / MORAN_SCALE)
        spec = pd.MoranSpec(pd.make_prob_vector(vec.weights()), u)

        def check(r):
            bases, cover = r
            count, measure = orc.moran_count_and_measure(vec, u, rank)
            return (len(bases) == count and all(a < b for a, b in zip(bases, bases[1:]))
                    and all(len(b) == rank and orc.moran_consistent(q, u, b) for b in bases)
                    and cover == measure)
        return Op(kind, [call(pd.moran_set_cylinders, spec, rank), call(pd.covering_measure, spec, rank)], check,
                  lambda r: f"{len(r[0])}:{hash_lines(map(str, r[0]))}:{hex_q(r[1])}",
                  {"q": q, "family": family, "rank": rank, "size": size, "positional": False, "system": sid})

    q = 5 if size == ENUM_SIZES - 1 else QS[size % 4]  # the largest job: 5**6 = 15625
    shift_only = kind in ("ifs_graph_points", "graph_dimension_estimate")
    kinds = FLIP_KINDS[:2] if shift_only else FLIP_KINDS
    s = make_system(sid, gen_vec(rng, q, family), gen_spec(rng, kinds[(size + size // 4) % len(kinds)]), family)
    vec, spec = s.vec, s.spec
    rank = _rank_for(q, target)
    budget = (q ** rank,) if at_budget and kind != "graph_dimension_estimate" else ()
    props = {**s.props(), "rank": rank, "size": q ** rank, "at_budget": bool(budget)}
    if kind == "integral_riemann":
        def check(r):
            lo, hi = orc.riemann_ref(vec, spec, rank)
            return (r[0].lo, r[0].hi) == (lo, hi) and lo <= orc.integral_exact(vec, spec) <= hi
        return Op(kind, [call(pd.integral_riemann, s.obj, rank, *budget)], check, lambda r: enc_str(r[0]), props)
    if kind == "ifs_graph_points":
        return Op(kind, [call(pd.ifs_graph_points, s.obj, rank, *budget)],
                  lambda r: orc.graph_points_ok(vec, spec, rank, r[0]),
                  lambda r: hash_lines(f"{hex_q(x)} {hex_q(y)}" for x, y in r[0]), props)
    if kind == "rectangle_diagonals_sq":
        return Op(kind, [call(pd.rectangle_diagonals_sq, s.obj, rank, *budget)],
                  lambda r: orc.diagonals_ok(vec, spec, rank, r[0]),
                  lambda r: hash_lines(f"{m} {hex_q(d)}" for m, d in r[0]), props)
    if kind == "entropy_sum":
        alpha = round(rng.uniform(0.5, 1.5), 3)
        return Op(kind, [call(pd.entropy_sum, s.obj, alpha, rank, *budget)],
                  lambda r: orc.close(r[0], orc.entropy_ref(vec, spec, rank)(alpha), REL_TOL),
                  lambda r: repr(r[0]), props, exact=False)
    if kind == "graph_dimension_estimate":
        ranks = [rank - 2, rank] if rank > 2 else [rank]

        def check(r):
            return list(r[0]) == ranks and all(
                orc.crossing_ok(orc.entropy_ref(vec, spec, k), a, math.sqrt(2.0), REL_TOL) for k, a in r[0].items())
        return Op(kind, [call(pd.graph_dimension_estimate, s.obj, ranks)], check,
                  lambda r: repr(sorted(r[0].items())), props, exact=False)
    raise ValueError(kind)


ENUMERATE_KINDS = ("integral_riemann", "ifs_graph_points", "rectangle_diagonals_sq",
                   "entropy_sum", "graph_dimension_estimate", "moran")


def enumerate_(seed: int) -> list[Op]:
    rng = random.Random(seed)
    return [_enumerate_job(kind, size, rng, size * len(ENUMERATE_KINDS) + k)
            for size in range(ENUM_SIZES) for k, kind in enumerate(ENUMERATE_KINDS)]


def hash_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()
