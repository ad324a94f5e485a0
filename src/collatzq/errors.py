"""Exception types shared across the library."""


class CollatzqError(Exception):
    """Base class for all library errors."""


class NegativeInputError(CollatzqError, ValueError):
    """Operation defined only on nonnegative inputs received a negative one."""


class DegenerateMapError(CollatzqError, ValueError):
    """Matrix has c = d = 0, so (a*x + b)/(c*x + d) is undefined everywhere."""


class NotCoprimeError(CollatzqError, ValueError):
    """SL2 completion requires coprime inputs."""


class NotFactorableError(CollatzqError, ValueError):
    """Matrix is not a nonnegative determinant-one product of the elementary generators."""


class MonotonicityError(CollatzqError, RuntimeError):
    """A p+q sequence that is provably non-increasing increased; carries the witness."""


class SizeLimitError(CollatzqError, ValueError):
    """An input was refused because its result would pass a fixed size bound."""


class NonIntegerEntryError(CollatzqError, ArithmeticError):
    """Entry reconstruction produced a non-integer; signals a sign-convention bug."""


class KMismatchError(CollatzqError, ValueError):
    """Certificate and word disagree on the number of exponent blocks."""


class BudgetExceededError(CollatzqError, RuntimeError):
    """Enumeration would exceed the configured word budget."""


class CorruptCheckpointError(CollatzqError, RuntimeError):
    """Checkpoint file failed its version, hash, fields, parameters or members."""
