"""Input-data errors and the whole-number check, with no numpy import,
so that `bounds` and the other pure-Python layers load without numpy."""

from __future__ import annotations

from fractions import Fraction


class DataError(ValueError):
    """Malformed or inconsistent input data (as opposed to usage errors)."""


def whole_number(x) -> int:
    """x as an int, never truncated: 2 and 2.0 give 2, but 1.9 is a DataError,
    and so is a bool (JSON true/false), which Python would read as 1/0."""
    if isinstance(x, bool) or (type(x) is not int and int(x) != Fraction(x)):
        raise DataError(f"{x!r} is not an integer")
    return int(x)
