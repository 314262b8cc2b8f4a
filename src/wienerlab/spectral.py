"""Shape-safe real grids, full-lag padding, centered-lag indexing and weight windows.

Everything downstream works on signals padded to twice their extent per
dimension, so that the circular convolution implied by the Fourier path
approximates linear convolution; ``full_lag`` is the one place that doubles
extents. The transforms themselves live in one
place, ``wiener.QuotientKernel`` (real FFTs: forward unnormalized, inverse
scaled by 1/N, padding implied by the transform size). Inside the library
filters, windows and penalties are kept in raw lag layout, zero lag at the
origin corner: ``make_window`` builds each window that way, once, where its
extents are known. The public ``LagFilter`` is centered instead, zero lag at
floor(extent/2) in each dimension; ``LagFilter.from_raw`` is the one
conversion.

A ``Signal`` is one image or vector: the type of file I/O and of the
single-pair functionals. Every *set* of samples (a training set, a defining
set, a kNN set, the states of all Langevin chains) is instead one float64
stack shaped (n, C, *extents), and ``as_stack`` is the one place that
validates samples: a Signal is checked as the stack of itself alone.
``check_pair`` is the one comparison of two Signals' extents and channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

__all__ = [
    "Signal",
    "LagFilter",
    "WindowSpec",
    "as_stack",
    "check_pair",
    "full_lag",
    "make_window",
]


@dataclass(frozen=True, eq=False)
class Signal:
    """Real-valued grid: flat float64 data + extents + independent channel planes."""

    data: np.ndarray
    shape: tuple[int, ...]
    channels: int = 1

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        data = np.ascontiguousarray(self.data, dtype=np.float64).ravel()
        planes = (1, self.channels) + shape
        if min(planes) < 0 or data.size != math.prod(planes):
            raise ShapeError(f"{data.size} values do not fill {self.channels} channels of {shape}")
        as_stack(data.reshape(planes))  # rank, extents and finiteness: a stack of one
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(cls, arr) -> "Signal":
        """Single-channel signal whose extents are the array's shape."""
        arr = np.asarray(arr, dtype=np.float64)
        return cls(arr.ravel(), arr.shape, 1)

    @classmethod
    def from_planes(cls, planes) -> "Signal":
        """Multi-channel signal from an array shaped (channels, *extents)."""
        planes = np.asarray(planes, dtype=np.float64)
        return cls(planes.ravel(), planes.shape[1:], planes.shape[0])

    @property
    def planes(self) -> np.ndarray:
        """View shaped (channels, *extents)."""
        return self.data.reshape((self.channels,) + self.shape)

    def plane(self, c: int = 0) -> np.ndarray:
        return self.planes[c]


def as_stack(samples) -> np.ndarray:
    """Read-only float64 view of a set of samples shaped (n, C, *extents).

    Extents are of rank 1 or 2. Zero samples and non-finite values raise
    ConfigError; any other shape (a ragged sequence included) raises
    ShapeError. The caller's array is not modified.
    """
    try:
        stack = np.ascontiguousarray(samples, dtype=np.float64).view()
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"a set is one (n, C, *extents) array of numbers: {exc}") from exc
    if stack.shape[:1] == (0,):
        raise ConfigError("a set needs at least one sample")
    if stack.ndim not in (3, 4) or 0 in stack.shape:
        raise ShapeError(f"a set is one (n, C, *extents) stack, got shape {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise ConfigError("signal values must be finite")
    stack.flags.writeable = False
    return stack


def check_pair(a: Signal, b: Signal) -> None:
    """ShapeError unless two signals have the same extents and channel count."""
    if a.shape != b.shape or a.channels != b.channels:
        raise ShapeError(f"shape mismatch: {a.shape}x{a.channels} vs {b.shape}x{b.channels}")


def full_lag(extents) -> tuple[int, ...]:
    """Twice each extent: the grid on which every linear lag has its own bin."""
    return tuple(2 * n for n in extents)


@dataclass(frozen=True, eq=False)
class LagFilter:
    """Real grid over centered lags, one plane per channel: ``data`` is shaped
    (channels, *extents), extents of rank 1 or 2, with zero lag at
    floor(extent/2) in each dimension."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim not in (2, 3) or 0 in data.shape:
            raise ShapeError(f"a lag filter is (channels, *extents) of rank 1 or 2: {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ConfigError("filter values must be finite")
        object.__setattr__(self, "data", data)

    @classmethod
    def from_raw(cls, raw: np.ndarray) -> "LagFilter":
        """Center raw-layout planes (channels, *extents): the zero-lag bin moves
        from the origin corner to ``zero_lag_index``."""
        zero = tuple(n // 2 for n in np.shape(raw)[1:])
        return cls(np.roll(raw, zero, axis=tuple(range(1, len(zero) + 1))))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def zero_lag_index(self) -> tuple[int, ...]:
        return tuple(n // 2 for n in self.data.shape[1:])

    def zero_lag_values(self) -> np.ndarray:
        """Zero-lag coefficient per channel."""
        return self.data[(slice(None),) + self.zero_lag_index]


@dataclass(frozen=True)
class WindowSpec:
    """Diagonal per-lag weight window parameterization.

    family "laplace": w(tau) = epsilon + exp(-||tau||_1 / b), peaked at zero-lag.
    family "inverted_laplace": w(tau) = 1 - exp(-||tau||_1 / b), zero at zero-lag.
    """

    family: str
    b: float
    epsilon: float = 0.0

    def __post_init__(self):
        if self.family not in ("laplace", "inverted_laplace"):
            raise ConfigError(f"unknown window family {self.family!r}")
        if not (self.b > 0 and math.isfinite(self.b)):
            raise ConfigError(f"window scale b must be finite and > 0, got {self.b}")
        if not (0 <= self.epsilon < math.inf):
            raise ConfigError(f"window floor epsilon must be finite and >= 0, got {self.epsilon}")


def make_window(spec: WindowSpec, extents) -> np.ndarray:
    """The weight window of the signals of `extents`, in raw lag layout: shaped
    ``full_lag(extents)``, with |lag| = min(k, n - k) at bin k of an axis of
    n bins. Every step runs in one grid buffer."""
    padded = full_lag(extents)
    w = np.zeros(padded)
    for axis, n in enumerate(padded):
        k = np.arange(n)
        w += np.minimum(k, n - k).reshape((n,) + (1,) * (len(padded) - 1 - axis))
    np.negative(w, out=w)
    with np.errstate(over="ignore"):  # a tiny b sends l1 / b to inf: exp(-inf) = 0
        w /= spec.b
    np.exp(w, out=w)
    if spec.family == "laplace":
        w += spec.epsilon
    else:
        np.subtract(1.0, w, out=w)
    return w
