"""Exception types shared across the package.

Three failure categories map onto the CLI exit codes: malformed input
(ValueError, exit 2), violated mathematical preconditions (DomainError,
exit 3), and numerical breakdowns such as ambiguous eigenvalue clusters
(NumericError, exit 4). Any other exception escaping a subcommand is an
internal error (exit 5).

Examples of malformed input: a coordinate vector or spanning row of
another length than the algebra's dimension, a multi-index of the wrong
length, with a negative entry or above the table's order.
"""


class DiffalgError(Exception):
    """Common base so callers can catch everything the package raises."""


class DomainError(DiffalgError):
    """A value is outside the mathematical domain of an operation.

    Examples: subtracting multi-indices that are not componentwise ordered,
    quotienting by a subspace that is not an ideal, multiplying elements of
    different algebras.
    """


class NumericError(DiffalgError):
    """A computation could not be completed reliably at the given tolerances."""
