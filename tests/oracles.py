"""Verification harnesses: the dense matching-filter oracle, the identity
spike and finite differences.

Nothing in the package imports this module, and it takes no FFT and nothing
from ``wienerlab.wiener``: the dense circulant solve is independent of the
spectral fast path by construction. ``central_differences`` is the one
finite-difference loop, over a signal's values (``check_gradient``) or a
model's parameters (``grad_check_model``). A signal is one float64 array
shaped (C, *extents), as in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from wienerlab.errors import ConfigError, SingularSystemError, WienerlabError
from wienerlab.spectral import as_pair, centered, full_lag, make_window, zero_lag_index
from wienerlab.trainer import (
    DenseAutoencoder,
    TrainConfig,
    _backward_matrix,
    _batch_loss_and_grad,
    _kernel_rows,
    _sample_matrix,
)

ORACLE_SIZE_CAP = 4096  # padded elements per channel; dense solve is O(n^3)


class OracleSizeError(WienerlabError, ValueError):
    """Dense reference solver asked to factor a system above its size cap."""


def pad_to_full_lag(s: np.ndarray) -> np.ndarray:
    """Zero-pad each lag axis of the signal `s` (C, *extents) to twice its
    extent, content kept at the origin corner."""
    out = np.zeros(s.shape[:1] + full_lag(s.shape[1:]))
    out[(slice(None),) + tuple(slice(0, n) for n in s.shape[1:])] = s
    return out


def delta_filter(extents: tuple[int, ...], channels: int = 1) -> np.ndarray:
    """Unit spike at the zero-lag bin of centered filter planes (channels,
    *extents): the convolutional identity, which the filter of any signal
    against itself must equal."""
    data = np.zeros((channels,) + tuple(extents))
    data[(slice(None),) + zero_lag_index(extents)] = 1.0
    return data


def _circulant_1d(s: np.ndarray) -> np.ndarray:
    n = s.size
    i = np.arange(n)
    return s[(i[:, None] - i[None, :]) % n]


def _circulant_2d(s: np.ndarray) -> np.ndarray:
    h, w = s.shape
    r = np.arange(h)
    c = np.arange(w)
    dr = (r[:, None] - r[None, :]) % h  # (h, h)
    dc = (c[:, None] - c[None, :]) % w  # (w, w)
    # Y[(r,c),(r',c')] = s[(r-r')%h, (c-c')%w], flattened row-major
    return s[dr[:, None, :, None], dc[None, :, None, :]].reshape(h * w, h * w)


def wiener_filter_direct(target, source, lam: float) -> np.ndarray:
    """Dense circulant least-squares reference for ``wiener_filter``.

    Solves (Y^T Y + lam I) v = Y^T x + lam * delta by LU factorization, with Y
    the circulant convolution matrix of the padded source. Kept deliberately
    independent of the spectral path.
    """
    target, source = as_pair(target, source)
    t = pad_to_full_lag(target)
    s = pad_to_full_lag(source)
    n = int(np.prod(t.shape[1:]))
    if n > ORACLE_SIZE_CAP:
        raise OracleSizeError(f"padded size {n} exceeds dense-solve cap {ORACLE_SIZE_CAP}")
    delta = np.zeros(n)
    delta[0] = 1.0  # zero lag in raw (uncentered) layout
    out = np.empty_like(t)
    for c in range(t.shape[0]):
        plane = s[c]
        Y = _circulant_1d(plane) if plane.ndim == 1 else _circulant_2d(plane)
        A = Y.T @ Y + lam * np.eye(n)
        b = Y.T @ t[c].ravel() + lam * delta
        try:
            v = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"dense system is singular: {exc}") from exc
        out[c] = v.reshape(t.shape[1:])
    return centered(out)


@dataclass(frozen=True)
class GradientCheckReport:
    max_rel_error: float
    mean_rel_error: float
    n_elements: int


def central_differences(
    f: Callable[[np.ndarray], float], analytic: np.ndarray, x: np.ndarray, h: float
) -> GradientCheckReport:
    """Central finite differences of f at the flat vector x, element by element,
    against the analytic gradient there.

    rel = |a - n| / max(|a|, |n|, 1e-12). Report only; never raises on error
    magnitude. f is called with one reused probe vector, so it must not keep it.
    """
    if h <= 0:
        raise ConfigError(f"step h must be > 0, got {h}")
    numeric = np.empty_like(x)
    probe = x.copy()
    for i in range(x.size):
        probe[i] = x[i] + h
        up = f(probe)
        probe[i] = x[i] - h
        numeric[i] = (up - f(probe)) / (2.0 * h)
        probe[i] = x[i]
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    rel = np.abs(analytic - numeric) / scale
    return GradientCheckReport(float(rel.max()), float(rel.mean()), x.size)


def check_gradient(
    f: Callable[[np.ndarray], float], analytic: np.ndarray, x: np.ndarray, h: float = 1e-5
) -> GradientCheckReport:
    """``central_differences`` over the values of the signal `x`, `analytic`
    shaped like it. Meaningful for inputs scaled to order one."""
    x = np.asarray(x, dtype=np.float64)
    return central_differences(
        lambda data: f(data.reshape(x.shape)), np.ravel(analytic), x.ravel(), h
    )


def grad_check_model(
    model: DenseAutoencoder, batch, cfg: TrainConfig, h: float = 1e-6
) -> GradientCheckReport:
    """Finite-difference check of end-to-end parameter gradients on a stack of
    samples (n, C, *extents) (report only)."""
    if model.n_params > 5000:
        raise ConfigError(f"{model.n_params} parameters exceeds the 5k grad-check cap")
    X, shape = _sample_matrix(model, batch)
    w_raw = kernel_rows = None
    if cfg.loss == "wiener":
        w_raw = make_window(cfg.whitening, shape[1:])
        kernel_rows = _kernel_rows(X.reshape((len(X),) + shape), cfg.lam, len(X))
    every = slice(None)
    loss, d_out, A, D = _batch_loss_and_grad(model, X, every, shape, cfg, w_raw, kernel_rows)
    analytic = _backward_matrix(model, A, D, d_out)

    probe = DenseAutoencoder(model.widths, model.activation)

    def loss_at(theta: np.ndarray) -> float:
        probe.set_flat_params(theta)
        return _batch_loss_and_grad(probe, X, every, shape, cfg, w_raw, kernel_rows)[0]

    return central_differences(loss_at, analytic, model.flat_params(), h)
