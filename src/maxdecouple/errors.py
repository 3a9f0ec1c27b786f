"""Exception types shared across the package and its command line."""


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


class UsageError(Exception):
    """A flag's value or a combination of flags the command cannot take."""


class InputError(Exception):
    """The input file cannot be read, decoded as UTF-8 or parsed as JSON."""


class OutputError(Exception):
    """A joint cannot be printed: `construct`'s mask is past Python's
    limit on int-to-str digits.  A failed write raises its own OSError."""
