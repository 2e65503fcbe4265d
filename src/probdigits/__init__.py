"""Exact arithmetic for probability-weighted digit expansions of [0, 1],
digit-flip maps between them, and the analysis/fractal toolkit on top.

Submodules load on first use: `import probdigits` loads none of them, and
reading a public name (`probdigits.FlipSet`, `from probdigits import
jump_at`) imports only the submodule that defines it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Every public name, with the submodule that defines it.
_SOURCES = {
    **dict.fromkeys((
        "DEFAULT_BUDGET", "Cylinder", "DigitSeq", "Enclosure", "PointClass", "PointKind",
        "ProbVector", "as_fraction", "bernoulli_cdf", "classify", "cylinder_bounds", "encode",
        "eval_digits", "make_prob_vector", "sample_digits", "shift_digits", "shift_value",
    ), "core"),
    **dict.fromkeys((
        "BaseTooSmall", "BudgetExceeded", "DigitOutOfRange", "EmptyAlphabet", "EndpointOneSided",
        "FlipSpecError", "InvalidArgument", "NonPositiveWeight", "NotPRational",
        "NotShiftInvariant", "OutOfUnitInterval", "PrefixTooShort", "ProbDigitsError",
        "RankTooLarge", "ShiftPastPrefix", "SumNotOne",
    ), "errors"),
    **dict.fromkeys((
        "EVEN_POSITIONS", "FlipKind", "FlipSet", "FlipSystem", "eval_flip", "eval_nega",
        "flip_digits", "flip_image", "nega_to_digits",
    ), "flips"),
    **dict.fromkeys((
        "ContinuityClass", "DerivativeTrace", "JumpReport", "MonotoneWitness", "continuity_class",
        "cylinder_image", "derivative_estimate", "integral_closed_form", "integral_riemann",
        "integral_series", "jump_at", "monotone_witness", "p_rationals",
    ), "analysis"),
    **dict.fromkeys((
        "AffineMap2D", "MoranSpec", "covering_measure", "entropy_sum", "graph_dimension_estimate",
        "ifs_graph_points", "ifs_maps", "moran_dimension", "moran_set_cylinders",
        "rectangle_diagonals_sq",
    ), "fractal"),
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    # reached only for names not yet bound here: a submodule, or a public name
    # read for the first time, which is then bound so later reads skip this
    if name in _SOURCES.values():
        return _import_module(f"{__name__}.{name}")
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
