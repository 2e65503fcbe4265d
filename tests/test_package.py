"""The package surface and the record contract.

`probdigits` binds its public names lazily, so the names are pinned here
with the submodule that defines each.  The result records are immutable
NamedTuples; ProbVector is an immutable slotted class with a per-vector
cache.
"""

import copy
import importlib
import pickle
from fractions import Fraction

import pytest

import probdigits
from probdigits import (
    ContinuityClass,
    DigitSeq,
    Enclosure,
    FlipKind,
    FlipSet,
    FlipSystem,
    MoranSpec,
    PointClass,
    PointKind,
    ProbVector,
    classify,
    continuity_class,
    cylinder_bounds,
    derivative_estimate,
    encode,
    flip_digits,
    ifs_maps,
    jump_at,
    make_prob_vector,
    monotone_witness,
)
from probdigits.errors import DigitOutOfRange, FlipSpecError

PUBLIC = {
    "core": {
        "DEFAULT_BUDGET", "Cylinder", "DigitSeq", "Enclosure", "PointClass", "PointKind",
        "ProbVector", "as_fraction", "bernoulli_cdf", "classify", "cylinder_bounds", "encode",
        "eval_digits", "make_prob_vector", "sample_digits", "shift_digits", "shift_value",
    },
    "errors": {
        "BaseTooSmall", "BudgetExceeded", "DigitOutOfRange", "EmptyAlphabet", "EndpointOneSided",
        "FlipSpecError", "InvalidArgument", "NonPositiveWeight", "NotPRational",
        "NotShiftInvariant", "OutOfUnitInterval", "PrefixTooShort", "ProbDigitsError",
        "RankTooLarge", "ShiftPastPrefix", "SumNotOne",
    },
    "flips": {
        "EVEN_POSITIONS", "FlipKind", "FlipSet", "FlipSystem", "eval_flip", "eval_nega",
        "flip_digits", "flip_image", "nega_to_digits",
    },
    "analysis": {
        "ContinuityClass", "DerivativeTrace", "JumpReport", "MonotoneWitness", "continuity_class",
        "cylinder_image", "derivative_estimate", "integral_closed_form", "integral_riemann",
        "integral_series", "jump_at", "monotone_witness", "p_rationals",
    },
    "fractal": {
        "AffineMap2D", "MoranSpec", "covering_measure", "entropy_sum", "graph_dimension_estimate",
        "ifs_graph_points", "ifs_maps", "moran_dimension", "moran_set_cylinders",
        "rectangle_diagonals_sq",
    },
}
PUBLIC_NAMES = set().union(*PUBLIC.values())


def test_public_names_pinned():
    assert len(PUBLIC_NAMES) == 65
    assert set(probdigits.__all__) == PUBLIC_NAMES
    assert len(probdigits.__all__) == len(PUBLIC_NAMES)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_resolve_to_their_definitions(module):
    source = importlib.import_module(f"probdigits.{module}")
    assert getattr(probdigits, module) is source
    for name in PUBLIC[module]:
        assert getattr(probdigits, name) is getattr(source, name)


def test_star_import_and_dir():
    namespace = {}
    exec("from probdigits import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(probdigits))
    with pytest.raises(AttributeError):
        probdigits.no_such_name


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

PV = make_prob_vector(["1/4", "3/4"])
FLIPPED = FlipSystem(PV, FlipSet.finite([1]))

#: one instance of every record type, with its field names in order
RECORDS = {
    "Cylinder": (lambda: cylinder_bounds((0, 1), PV), ("base", "pv", "lo", "hi")),
    "PointClass": (lambda: classify(Fraction(1, 3), PV, 4), ("kind", "depth")),
    "Enclosure": (lambda: Enclosure(Fraction(1, 4), Fraction(1, 2)), ("lo", "hi")),
    "FlipSet": (lambda: FlipSet.mask((True,), (False, True)), ("kind", "preperiod", "period")),
    "FlipSystem": (lambda: FLIPPED, ("pv", "flips")),
    "JumpReport": (lambda: jump_at(Fraction(1, 4), FLIPPED), ("point", "left_limit", "right_limit", "jump")),
    "ContinuityClass": (lambda: continuity_class(FLIPPED.flips), ("continuous_everywhere", "jump_count")),
    "MonotoneWitness": (lambda: monotone_witness(FLIPPED, 1), ("x1", "x2", "g1", "g2")),
    "DerivativeTrace": (lambda: derivative_estimate((0, 1, 1), FLIPPED, 3), ("digits", "ratios")),
    "AffineMap2D": (lambda: ifs_maps(FlipSystem(PV, FlipSet.all()))[0],
                    ("x_scale", "x_offset", "y_scale", "y_offset")),
    "MoranSpec": (lambda: MoranSpec(make_prob_vector(["1/4"] * 4), 1), ("pv", "u")),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    make, fields = RECORDS[name]
    record = make()
    cls = type(record)
    assert cls is getattr(probdigits, name)
    assert cls._fields == fields
    values = tuple(getattr(record, f) for f in fields)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    # keyword construction from equal fields: an equal record with an equal hash
    again = cls(**dict(zip(fields, values)))
    assert again == record and hash(again) == hash(record)
    assert pickle.loads(pickle.dumps(record)) == record
    assert repr(record).startswith(f"{name}(") and all(f"{f}=" in repr(record) for f in fields)
    # the tuple behaviours
    assert tuple(record) == values and len(record) == len(fields) and record == values


def test_interval_records_keep_membership():
    # `in` on the interval records is a point test, not tuple membership
    cyl = cylinder_bounds((0, 1), PV)
    assert Fraction(1, 8) in cyl and cyl.lo in cyl and Fraction(1, 2) not in cyl
    assert Fraction(1, 3) in Enclosure(Fraction(1, 4), Fraction(1, 2))
    assert 2 in FlipSet.finite([2]) and 1 not in FlipSet.finite([2])


def test_record_defaults():
    assert PointClass(PointKind.P_RATIONAL).depth is None
    assert ContinuityClass(True).jump_count is None
    bare = FlipSet(FlipKind.NONE)
    assert (bare.preperiod, bare.period) == ((), (False,))
    assert bare == FlipSet.none()


def test_validating_records_still_refuse():
    with pytest.raises(ValueError):
        Enclosure(1, 0)
    with pytest.raises(ValueError):
        Enclosure(0, 1)._replace(lo=2)
    pv = make_prob_vector(["1/2", "1/2"])
    with pytest.raises(DigitOutOfRange):
        MoranSpec(pv, pv.q)
    with pytest.raises(DigitOutOfRange):
        MoranSpec(pv, 0)._replace(u=pv.q)
    with pytest.raises(FlipSpecError):
        FlipSet(FlipKind.MASK, (), ())
    with pytest.raises(FlipSpecError):
        FlipSet.all()._replace(period=("0",))
    with pytest.raises(FlipSpecError):
        FlipSet.all()._replace(period=(False,))


def test_prob_vector_contract():
    small = Fraction(1, 3**50)
    pv = make_prob_vector([small, 1 - small])
    for field in ("p", "beta", "den", "int_table"):
        with pytest.raises(AttributeError):
            setattr(pv, field, None)
    with pytest.raises(AttributeError):
        pv.extra = None
    with pytest.raises(AttributeError):
        del pv.p
    # computed once: the second read returns the same object
    assert pv.den == 3**50 and pv.den is pv.den
    assert pv.int_table is pv.int_table
    again = ProbVector(p=pv.p)
    assert again == pv and hash(again) == hash(pv)
    assert pickle.loads(pickle.dumps(pv)) == pv and copy.deepcopy(pv) == pv
    assert repr(pv) == f"ProbVector(({small}, {1 - small}))"


@pytest.mark.parametrize("make", [
    lambda: encode("1/3", make_prob_vector(["1/4", "3/4"]), 8),
    # a flipped constant tail is periodic
    lambda: flip_digits(DigitSeq((2, 0), 3, "max"), FlipSet.mask((), (False, True))),
], ids=["encode", "flip-digits-periodic"])
def test_digit_seq_contract(make):
    seq = make()
    for field in ("digits", "q", "tail"):
        with pytest.raises(AttributeError):
            setattr(seq, field, None)
        with pytest.raises(AttributeError):
            delattr(seq, field)
    assert seq == seq
    # pickle and copy rebuild through the checking constructor
    for again in (pickle.loads(pickle.dumps(seq)), copy.copy(seq), copy.deepcopy(seq)):
        assert type(again) is DigitSeq and again == seq and hash(again) == hash(seq)
        assert (again.digits, again.q, again.tail) == (seq.digits, seq.q, seq.tail)
