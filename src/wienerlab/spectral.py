"""Shape-safe real grids, full-lag padding, centered-lag indexing and weight windows.

Everything downstream works on signals padded to twice their extent per
dimension, so that the circular convolution implied by the Fourier path
approximates linear convolution; ``full_lag`` is the one place that doubles
extents. The transforms themselves live in one
place, ``wiener.QuotientKernel`` (real FFTs: forward unnormalized, inverse
scaled by 1/N, padding implied by the transform size). Inside the library
filters, windows and penalties are kept in raw lag layout, zero lag at the
origin corner: ``make_window`` builds each window that way, once, where its
extents are known. A filter handed out is centered instead, zero lag at
``zero_lag_index``, floor(extent/2) in each dimension; ``centered`` is the
one conversion.

One signal (an image or a vector) is a float64 array shaped (C, *extents),
and every *set* of samples (a training set, a defining set, a kNN set, the
states of all Langevin chains) is one float64 stack shaped (n, C, *extents).
``as_stack`` is the one place that validates samples: ``as_pair`` checks
each signal of a pair as the stack of itself alone, then compares their
shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

__all__ = [
    "WindowSpec",
    "as_pair",
    "as_stack",
    "centered",
    "full_lag",
    "make_window",
    "zero_lag_index",
]


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
    if not np.isfinite(stack).all():
        raise ConfigError("signal values must be finite")
    stack.flags.writeable = False
    return stack


def as_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two signals as read-only float64 arrays shaped (C, *extents), each
    validated by ``as_stack`` as the stack of itself alone. ShapeError
    unless their shapes are equal."""
    a, b = (as_stack([x])[0] for x in (a, b))
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def full_lag(extents) -> tuple[int, ...]:
    """Twice each extent: the grid on which every linear lag has its own bin."""
    return tuple(2 * n for n in extents)


def zero_lag_index(extents) -> tuple[int, ...]:
    """The zero-lag bin of a centered lag grid of `extents`: floor(n/2) per axis."""
    return tuple(n // 2 for n in extents)


def centered(raw: np.ndarray) -> np.ndarray:
    """Raw-layout planes (C, *extents) centered: the zero-lag bin moves from
    the origin corner to ``zero_lag_index(extents)``."""
    zero = zero_lag_index(np.shape(raw)[1:])
    return np.roll(raw, zero, axis=tuple(range(1, len(zero) + 1)))


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
