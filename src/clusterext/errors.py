"""Exception types shared across the package, and its one integer-argument rule.

Every integer argument of the public API (the fields of ``ClusterParams``,
text and pattern lengths, pattern entries, grid sizes, sample counts, step
counts, seeds) goes through :func:`require_int`: it must be an ``int`` that
is not a ``bool`` and lies at or above its lower bound, or the call raises
:class:`InvalidInputError` before any count, table entry or chain step is
computed.
"""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class DomainError(ValueError):
    """A numeric argument lies outside the mathematical domain."""


class DegenerateParameterError(ValueError):
    """The requested quantity is undefined for this parameter corner."""


class ResourceLimitError(RuntimeError):
    """The request exceeds the supported enumeration/size budget."""


class InternalConsistencyError(RuntimeError):
    """An internal exactness check failed; indicates an implementation bug."""


def require_int(name: str, value: object, low: int) -> None:
    """Raise InvalidInputError unless ``value`` is an int, not a bool, and >= ``low``."""
    if type(value) is not int or value < low:  # type() also refuses bool
        raise InvalidInputError(f"{name} must be an integer >= {low}, got {value!r}")
