"""Exception types shared across the package, the default computation budget, and the two bases
every value module shares: `Frozen` for the immutable values and `Report` for the verdict records."""

from types import SimpleNamespace

# milliseconds of work a budgeted computation may spend before InfeasibleError
DEFAULT_BUDGET_MS = 60_000


class Frozen:
    """Base of the immutable values: a constructor fills `__slots__` by object.__setattr__, then assignment raises."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        # pickle and copy fill an empty instance from object.__reduce_ex__'s (None, {slot: value}) state
        # without re-running a constructor, so a value that holds itself (a split witness) survives
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Report(SimpleNamespace):
    """Base of the verdict records: attributes as built, and their JSON form as a plain dict."""

    def to_json(self):
        return dict(vars(self))


class CompAlgError(Exception):
    """Base class for every error raised by this library."""


class FieldMismatchError(CompAlgError):
    """Operands live over different field specs."""


class AlgebraMismatchError(CompAlgError):
    """Operands live over different composition algebras."""


class ShapeError(CompAlgError):
    """Matrix dimensions do not conform."""


class NotQuadExtError(CompAlgError):
    """Quadratic conjugation applied outside a quadratic extension."""


class ZeroDivisorError(CompAlgError, ArithmeticError):
    """A nonzero element with vanishing norm was asked for an inverse."""


class NotInvertibleError(CompAlgError, ArithmeticError):
    """Element or matrix has no inverse."""


class UnexpectedZeroDivisorError(CompAlgError):
    """Skew elimination met a nonzero non-unit; the algebra is not a division ring."""


class NotSplitFormError(CompAlgError):
    """No 2x2 matrix realization is registered for this algebra."""


class NotDiagonalError(CompAlgError):
    """Entry is not a diagonal 2x2 block."""


class BoundNotMetError(CompAlgError):
    """Family is too small for the guaranteed-dependence threshold."""


class InfeasibleError(CompAlgError):
    """Estimated work exceeds the configured budget."""


class InexactDivisionError(CompAlgError):
    """Polynomial division left a remainder; it is attached for inspection."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class RankMismatchError(CompAlgError):
    """Degree multisets have different cardinality (equal-rank hypothesis fails)."""


class BranchUnavailableError(CompAlgError):
    """The requested formula branch is not defined for these parameters."""


class TruncationError(CompAlgError):
    """Character truncation is too small for the model."""


class NotDividingError(CompAlgError):
    """Subgroup order does not divide the group order."""


class UnsupportedFlavorError(CompAlgError):
    """Group flavor has no implementation for the requested operation."""


class SignatureMismatchError(CompAlgError):
    """Multivectors live over different quadratic-space signatures."""


class NotGradeOneError(CompAlgError):
    """A vector (grade-1) argument was required."""
