"""Shared exception types for the pore-metrics package."""


class ParseError(ValueError):
    """A value, selector, set-spec file or rule name that does not parse."""


class PreconditionError(ValueError):
    """An operation was called outside its documented domain."""


class InsufficientDepthError(RuntimeError):
    """A truncated dyadic enumeration of an interval cannot certify the
    requested quantity.

    ``tail_mass`` is the length of the interval still unaccounted for below
    the deepest enumerated generation.
    """

    def __init__(self, message, tail_mass):
        super().__init__(message)
        self.tail_mass = tail_mass
