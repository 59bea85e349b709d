"""Exception types shared across the package, its one integer-argument rule
and its one budget rule.

Every integer argument of the public API (the fields of ``ClusterParams``,
text and pattern lengths, pattern entries, grid sizes, sample counts, step
counts, seeds) goes through :func:`require_int`: it must be an ``int`` that
is not a ``bool`` and lies at or above its lower bound, or the call raises
:class:`InvalidInputError` before any count, table entry or chain step is
computed.

Every resource cap (the ``MAX_*`` constants, each kept next to the cost
note that justifies it) goes through :func:`require_at_most`, which raises
:class:`ResourceLimitError` with one message form.  A cap is checked only
after every argument of the call has been validated, so a request that is
both malformed and over budget raises InvalidInputError (CLI exit code 2),
not ResourceLimitError (exit code 3), and no work starts before either.
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


def require_at_most(name: str, value: int, cap: int) -> None:
    """Raise ResourceLimitError unless ``value`` <= ``cap``; check arguments first."""
    if value > cap:
        raise ResourceLimitError(f"{name} {value} exceeds the cap of {cap}")
