"""Exception types shared across the package."""


class InvalidDistributionError(ValueError):
    """A distribution violates a structural invariant.

    Raised when constructing a joint from bad arguments or a malformed
    file: negative probabilities, mass not summing to one, masks out of
    range, duplicate atoms, and the like.  The message always names the
    offending field or the size of the deviation.
    """


class InvariantError(RuntimeError):
    """An internal check failed: `full_optimum`'s duality certificate or
    `expected_max`'s tail-integral cross-check.  A library bug, never a
    property of the input."""
