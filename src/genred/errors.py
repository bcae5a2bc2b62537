"""Exception types shared across the package, and the bound on the values
that their messages echo."""

import reprlib
from fractions import Fraction
from typing import Any

ECHO_LIMIT = 40


def echo(value: Any, quote: bool = True) -> str:
    """``value`` cut to :data:`ECHO_LIMIT` characters for a one-line message:
    a string as its repr (as itself if not ``quote``), anything else as its
    ``reprlib.repr``, which does not walk all of a long or nested list."""
    if isinstance(value, str):
        return repr(value[:ECHO_LIMIT]) if quote else value[:ECHO_LIMIT]
    return reprlib.repr(value)[:ECHO_LIMIT]


def echo_number(value: Fraction, slash: bool = False) -> str:
    """An exact ``value`` for a one-line message: ``str(value)``, or "n/d"
    if ``slash``, when that has at most :data:`ECHO_LIMIT` characters.  A
    longer value is shown by its digit counts, as "<4301 digits>/<1 digit>",
    since a cut number would be a different number."""
    num, den = value.numerator, value.denominator
    if num.bit_length() + den.bit_length() < 4 * ECHO_LIMIT:  # under any digit cap
        text = f"{num}/{den}" if slash else str(value)
        if len(text) <= ECHO_LIMIT:
            return text
    sign = "-" if num < 0 else ""
    return f"{sign}<{_digit_count(num)}>/<{_digit_count(den)}>"


def _digit_count(n: int) -> str:
    """The length of ``abs(n)`` in decimal, as "k digits", counted without
    building its text."""
    n = abs(n)
    count = max(1, (n.bit_length() - 1) * 30_102_999 // 10**8)  # a lower bound
    while n >= 10**count:
        count += 1
    return f"{count} digit{'s' * (count > 1)}"


class GenredError(Exception):
    """Base class for all domain errors raised by this package."""


class UnknownStateError(GenredError):
    """A state name is not part of the machine it was used with."""


class UnknownSymbolError(GenredError):
    """A symbol name is not part of the alphabet it was used with."""


class DistributionMismatchError(GenredError):
    """A distribution's support is not contained in the expected state set."""


class AlphabetMismatchError(GenredError):
    """Two machines that must share an output alphabet do not."""


class SizeLimitError(GenredError):
    """An enumeration would exceed the configured size cap."""


class NotTransitionPreservingError(GenredError):
    """An operation requiring a verified morphism received one that fails
    the commutation identity."""


class RowNotNormalizedError(GenredError):
    """A conditional probability row does not sum to one exactly."""


class UnknownFixtureError(GenredError):
    """Requested catalog fixture name does not exist."""


class FileFormatError(GenredError):
    """Input file is malformed or violates the on-disk schema."""
