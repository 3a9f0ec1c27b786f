"""Decoupling bounds for maxima of dependent random variables.

Compares P(max X_i > 0) (Bernoulli case) or E[max X_i] (nonnegative case)
against the same functional of the independent version of the family:
mutually independent copies with identical marginals.  Provides the exact
toolkit (sparse joint pmfs, bound reports, canonical families, an extremal
search in closed form, certified over every atom by LP duality, and the
finite layer-cake extension to real values).
"""

from .bounds import (
    CONJECTURED_LOWER_CONSTANT,
    PINELIS_CONSTANT,
    BoundReport,
    eta_lower_check,
    full_report,
    g_function,
    main_lower_check,
    paley_zygmund_lower,
    pinelis_upper_check,
)
from .constructions import (
    affine_hash,
    comonotone,
    conjectured_extremal,
    expand_exchangeable,
    one_hot_uniform,
    product,
    xor_parity,
)
from .continuous import (
    NonnegJoint,
    affine_hash_values,
    bernoulli_embedding,
    decoupling_check_cont,
    expected_max,
    expected_max_independent,
    pairwise_orthant_ok,
)
from .dist import (
    JointBernoulli,
    MarginalVector,
    is_pairwise_independent,
    marginals,
    moments_of_z,
    permute_variables,
    prob_hit,
    prob_hit_independent,
    sample,
)
from .errors import InvalidDistributionError
from .optimize import (
    LpSolution,
    conjecture_sweep,
    exchangeable_optimum,
    full_optimum,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CONJECTURED_LOWER_CONSTANT",
    "InvalidDistributionError",
    "JointBernoulli",
    "LpSolution",
    "MarginalVector",
    "NonnegJoint",
    "PINELIS_CONSTANT",
    "affine_hash",
    "affine_hash_values",
    "bernoulli_embedding",
    "comonotone",
    "conjecture_sweep",
    "conjectured_extremal",
    "decoupling_check_cont",
    "eta_lower_check",
    "exchangeable_optimum",
    "expand_exchangeable",
    "expected_max",
    "expected_max_independent",
    "full_optimum",
    "full_report",
    "g_function",
    "is_pairwise_independent",
    "main_lower_check",
    "marginals",
    "moments_of_z",
    "one_hot_uniform",
    "pairwise_orthant_ok",
    "paley_zygmund_lower",
    "permute_variables",
    "pinelis_upper_check",
    "prob_hit",
    "prob_hit_independent",
    "product",
    "sample",
    "xor_parity",
]
