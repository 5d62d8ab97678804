"""Exception hierarchy. Exit-code mapping lives in the CLI."""


class BipencilError(Exception):
    """Base class for library errors."""


class DimensionMismatchError(BipencilError):
    pass


class NonRationalPointError(BipencilError):
    """A point must be rational, in either mode: its coordinates ints or Fractions."""


class RankDeficientPointError(BipencilError):
    """The pencil rank at the point is below the declared/observed pencil rank."""


class SingularParameterError(BipencilError):
    """A regular pencil parameter was required but a singular one was supplied."""


class ToleranceError(BipencilError):
    """Float-mode computation produced internally inconsistent dimensions."""


class PreconditionError(BipencilError):
    """An operation's documented precondition was violated."""


class InputFormatError(BipencilError):
    """Malformed pencil / algebra / cocycle input file."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position
