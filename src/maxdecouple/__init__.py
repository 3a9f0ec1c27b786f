"""Decoupling bounds for maxima of dependent random variables.

Compares P(max X_i > 0) (Bernoulli case) or E[max X_i] (nonnegative case)
against the same functional of the independent version of the family:
mutually independent copies with identical marginals.  Provides the exact
toolkit (sparse joint pmfs, bound reports, canonical families, an extremal
search in closed form, certified over every atom by LP duality, and the
finite layer-cake extension to real values).

Modules load on first use: `import maxdecouple` imports none of them, and
an exported name or a submodule is imported when it is first read
(PEP 562), so that a process that only searches never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "bounds": (
        "CONJECTURED_LOWER_CONSTANT",
        "PINELIS_CONSTANT",
        "BoundReport",
        "eta_lower_check",
        "full_report",
        "g_function",
        "main_lower_check",
        "paley_zygmund_lower",
        "pinelis_upper_check",
    ),
    "constructions": (
        "affine_hash",
        "comonotone",
        "conjectured_extremal",
        "expand_exchangeable",
        "one_hot_uniform",
        "product",
        "xor_parity",
    ),
    "continuous": (
        "NonnegJoint",
        "affine_hash_values",
        "bernoulli_embedding",
        "decoupling_check_cont",
        "expected_max",
        "expected_max_independent",
        "pairwise_orthant_ok",
    ),
    "dist": (
        "JointBernoulli",
        "MarginalVector",
        "is_pairwise_independent",
        "marginals",
        "moments_of_z",
        "permute_variables",
        "prob_hit",
        "prob_hit_independent",
        "sample",
    ),
    "errors": ("InvalidDistributionError",),
    "optimize": (
        "LpSolution",
        "conjecture_sweep",
        "exchangeable_optimum",
        "full_optimum",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
