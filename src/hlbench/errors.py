"""Exception types shared across the package."""

from __future__ import annotations


class HlbenchError(Exception):
    """Base class for all package-specific errors."""


class RangeError(HlbenchError):
    """A numeric parameter lies outside its admissible range."""


class NotFoundError(HlbenchError):
    """A requested node, builtin, or strategy does not exist."""


class ShapeError(HlbenchError):
    """Two objects that must share a dimension (depth, ground set, top level) do not."""


class EmbeddingInvalidError(HlbenchError):
    """A tree embedding breaks one of its structural invariants."""

    def __init__(self, message: str, problems: tuple = ()):
        super().__init__(message)
        self.problems = problems


class ConstructionError(HlbenchError):
    """Inputs to a coloring construction are inconsistent (empty matchings, overlapping level sets)."""


class BudgetError(HlbenchError):
    """An enumeration would exceed the configured budget before starting."""


class GameProtocolError(HlbenchError):
    """A strategy produced an illegal move, or a replayed history is inconsistent."""

    def __init__(self, message: str, strategy: str = "", round_index: int = -1):
        super().__init__(message)
        self.strategy = strategy
        self.round_index = round_index


class MorphismDomainError(HlbenchError):
    """A finite map is not total on the ground set it is checked against."""


class ParseError(HlbenchError):
    """A text input does not conform to its format; carries a 1-based line number."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


# Ints wider than this are named by their width in error messages: str() of
# an int past sys.get_int_max_str_digits() digits (4300 by default, 640 at
# the least) raises ValueError, which would replace the error being raised.
MESSAGE_INT_BITS = 1024


class _WideInt:
    """Prints as '<N-bit int>' (with a leading '-' when negative) under str() and repr()."""

    def __init__(self, n: int):
        self.text = f"{'-' if n < 0 else ''}<{n.bit_length()}-bit int>"

    def __repr__(self) -> str:
        return self.text

    __str__ = __repr__


def shown(value):
    """`value` ready for an f-string error message.

    An int of more than MESSAGE_INT_BITS bits, also inside a tuple, becomes
    a stand-in that prints its width; anything else is returned as it is, so
    the message reads as before.
    """
    if isinstance(value, int) and value.bit_length() > MESSAGE_INT_BITS:
        return _WideInt(value)
    if isinstance(value, tuple) and any(shown(v) is not v for v in value):
        return tuple(map(shown, value))
    return value
