"""Exception taxonomy shared across the library and mapped to CLI exit codes,
plus the seed and divergence rules and the read-only record bases that
modules on every branch share."""


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


class Frozen:
    """A record whose attributes its constructor sets through `_set`, and
    nothing after: assignment and deletion raise AttributeError."""

    def _set(self, **values) -> None:
        for name, value in values.items():  # as `self.name = value` would, to keep reads fast
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FrozenValue(Frozen):
    """A Frozen record whose constructor takes exactly its attributes, in
    order: equal to another of its class with equal attributes, and
    `replace` builds a changed copy through the constructor and its checks."""

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def replace(self, **changes):
        return type(self)(**{**vars(self), **changes})
