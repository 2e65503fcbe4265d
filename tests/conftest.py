import random
from fractions import Fraction

import pytest

from probdigits import DigitSeq, ProbVector, make_prob_vector
from probdigits.flips import cylinder_images

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
