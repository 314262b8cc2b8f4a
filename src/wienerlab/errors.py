"""Exception taxonomy shared across the library and mapped to CLI exit codes,
plus the seed and divergence rules that modules on every branch share."""


class WienerlabError(Exception):
    """Base class for all library errors."""


class ShapeError(WienerlabError, ValueError):
    """Mismatched or unsupported signal/filter extents."""


class ConfigError(WienerlabError, ValueError):
    """Invalid configuration: bad parameter value, unknown key, unknown family."""


class FormatError(WienerlabError, ValueError):
    """Malformed data file. Carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericalError(WienerlabError, ArithmeticError):
    """Numerical failure: divergence, NaN, singular or degenerate system."""


# A training loss or chain energy above this multiple of its first value
# counts as divergence, even while it is still finite.
DIVERGENCE_FACTOR = 1e6


def check_seed(seed: int, name: str = "seed") -> None:
    """ConfigError unless `seed` is >= 0: a NumPy generator takes no negative seed."""
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0, got {seed}")


class SingularSystemError(NumericalError):
    """Deconvolution denominator has a zero bin and no stabilizer is active."""


class UndefinedQuotientError(NumericalError):
    """Quotient requested for an all-zero filter."""
