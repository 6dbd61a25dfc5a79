"""Exact arithmetic of the times-b map on the circle.

Multiplicative order profiles of a base modulo prime powers, orbit structure
and density of rationals under x -> b*x mod 1, and membership of rationals in
digit-restricted Cantor sets, all in exact integer arithmetic.

Each public name is imported from its submodule on first access (PEP 562),
so `import timesb` and a command line run compile only the layers they use.
"""

from importlib import import_module

# "orbit" names a submodule and a function; importing the submodule binds
# the module under that name here, so the function is bound now, over it
from .orbit import orbit

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "BoundReport",
        "aggregate_constants",
        "bound_report",
        "stabilization_growth_check",
    ),
    "cantor": (
        "DigitSet",
        "count_members_up_to",
        "count_report",
        "dual_expansion",
        "enumerate_members",
        "enumerate_s_integers",
        "expand",
        "longest_missing_interval",
        "member",
        "member_witness",
        "reduced_members_up_to",
        "smooth_denominators",
        "sup_distance",
    ),
    "errors": ("InvariantError", "PreconditionError"),
    "numtheory": ("factorize", "mult_order_bruteforce", "mult_order_fast"),
    "orbit": ("cover_radius", "decompose", "density_bound", "density_report"),
    "orders": ("build_profile", "order_from_profile", "split_denominator"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, "__version__", "orbit"])


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
