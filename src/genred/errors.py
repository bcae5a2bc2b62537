"""Exception types shared across the package, and the bound on the values
that their messages echo."""

import reprlib
from typing import Any

ECHO_LIMIT = 40


def echo(value: Any, quote: bool = True) -> str:
    """``value`` cut to :data:`ECHO_LIMIT` characters for a one-line message:
    a string as its repr (as itself if not ``quote``), anything else as its
    ``reprlib.repr``, which does not walk all of a long or nested list."""
    if isinstance(value, str):
        return repr(value[:ECHO_LIMIT]) if quote else value[:ECHO_LIMIT]
    return reprlib.repr(value)[:ECHO_LIMIT]


class GenredError(Exception):
    """Base class for all domain errors raised by this package."""


class UnknownStateError(GenredError):
    """A state name is not part of the machine it was used with."""


class UnknownSymbolError(GenredError):
    """A symbol name is not part of the alphabet it was used with."""


class EmptyRelationError(GenredError):
    """A nondeterministic machine has a state with no successor pairs,
    so the uniform probabilistic lift is undefined."""

    def __init__(self, state: str):
        self.state = state
        super().__init__(f"relation of state {state!r} is empty")


class DistributionMismatchError(GenredError):
    """A distribution's support is not contained in the expected state set."""


class AlphabetMismatchError(GenredError):
    """Two machines that must share an output alphabet do not."""


class SizeLimitError(GenredError):
    """An enumeration would exceed the configured size cap."""


class ChainMismatchError(GenredError):
    """Morphism composition was attempted on maps that do not chain."""


class NotTransitionPreservingError(GenredError):
    """An operation requiring a verified morphism received one that fails
    the commutation identity."""


class RowNotNormalizedError(GenredError):
    """A conditional probability row does not sum to one exactly."""


class UnknownFixtureError(GenredError):
    """Requested catalog fixture name does not exist."""


class FileFormatError(GenredError):
    """Input file is malformed or violates the on-disk schema."""
