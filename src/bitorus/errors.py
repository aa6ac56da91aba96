"""Exception types and the integer check shared across the package."""

from operator import index


class InconsistencyError(RuntimeError):
    """Two routes that must agree produced different answers.

    Raised when a cross-check between independent computations fails
    (e.g. a closed-form construction does not validate against a direct
    trace).  This is never a user-input problem; it signals a broken
    internal convention and should surface loudly.
    """


class CapExceededError(RuntimeError):
    """An enumeration would exceed its configured size cap."""


def check_int(value, low: float, what: str) -> int:
    """`value` as an int; ValueError if it is a bool, `operator.index` refuses it, or < `low`."""
    if type(value) is not int:
        try:
            if type(value) is bool:
                raise TypeError
            value = index(value)
        except TypeError:
            raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"need {what} >= {low}, got {value}")
    return value
