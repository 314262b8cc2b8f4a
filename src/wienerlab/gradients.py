"""Analytic gradients of the filter-based functionals, plus a finite-difference harness.

The matching filter depends on the differentiated signal only through the
spectral numerator, which is linear in it. Every gradient here is therefore
one adjoint pass through the fixed side's ``QuotientKernel``: the raw-layout
per-lag cotangent is carried back through the inverse real transform by
multiplying with conj(K) = S / (|S|^2 + lam) (the adjoint of the forward
quotient, S being the half spectrum of the padded fixed signal), then
cropped to the unpadded extents (the adjoint of zero padding). Weight
windows are converted to raw layout once, so no step shifts lags.
Derivation in docs/gradient_note.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigError, ShapeError, UndefinedQuotientError
from .spectral import LagFilter, Signal
from .wiener import QuotientKernel, WienerConfig, whitened_residual

if TYPE_CHECKING:
    from .diffusion import EnergyModel

__all__ = [
    "GradientResult",
    "EnergyBreakdown",
    "grad_wiener_loss",
    "energy_breakdown",
    "grad_energy",
    "check_gradient",
    "GradientCheckReport",
]


@dataclass(frozen=True, eq=False)
class GradientResult:
    """Gradient with respect to the varying signal plus the functional's value there."""

    grad: Signal
    value: float


def loss_and_grad(
    kernel: QuotientKernel, varying: np.ndarray, w_raw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Whitened filter-identity loss and its gradient for a batch of varying planes.

    `varying` is (*batch, channels, *extents) and `w_raw` the raw-layout
    whitening window; values sum over channels and lags, one per batch entry.
    """
    weighted = whitened_residual(kernel, varying, w_raw)
    values = 0.5 * np.sum(weighted**2, axis=(-1 - len(kernel.shape),) + kernel.axes)
    return values, kernel.pullback(w_raw * weighted)


def grad_wiener_loss(
    prediction: Signal, target: Signal, whitening: LagFilter, cfg: WienerConfig
) -> GradientResult:
    """Analytic gradient of the whitened filter-identity loss wrt the prediction.

    The loss is a convex quadratic in the prediction (the filter is linear in
    it), so this gradient vanishes exactly at prediction == target.
    """
    if prediction.shape != target.shape or prediction.channels != target.channels:
        raise ShapeError(
            f"shape mismatch: prediction {prediction.shape}x{prediction.channels} "
            f"vs target {target.shape}x{target.channels}"
        )
    kernel = QuotientKernel(target.planes, target.shape, cfg.lam)
    value, grad = loss_and_grad(kernel, prediction.planes, whitening.raw)
    return GradientResult(Signal(grad.ravel(), prediction.shape, prediction.channels), float(value))


@dataclass(frozen=True, eq=False)
class EnergyBreakdown:
    """Energy value, its gradient, and per-defining-sample diagnostics."""

    value: float
    grad: Signal
    sample_energies: np.ndarray
    sample_concentrations: np.ndarray


def energy_breakdown(x: Signal, model: "EnergyModel") -> EnergyBreakdown:
    """Evaluate the dataset energy sum, its gradient, and per-sample terms.

    Each defining sample contributes half its penalty quotient plus the
    zero-lag amplitude correction gamma/2 * (v0 - 1)^2. All samples are
    processed as one stacked batch; the reported order is the dataset index
    order.
    """
    ref = model.defining_samples[0]
    if x.shape != ref.shape or x.channels != ref.channels:
        raise ShapeError(
            f"signal shape {x.shape}x{x.channels} does not match defining samples "
            f"{ref.shape}x{ref.channels}"
        )
    gamma = model.gamma
    pen = model.penalty.raw  # (1, *padded)
    kernel = model.kernel  # fixed side: the defining set, (n, C, *extents)
    axes = kernel.axes
    zero = (...,) + (0,) * len(axes)

    v = kernel.filters(x.planes)  # (n, C, *padded), raw layout
    norms = np.sum(v**2, axis=axes, keepdims=True)
    if np.any(norms == 0.0):
        raise UndefinedQuotientError("all-zero matching filter in energy sum")
    quot = np.sum((pen * v) ** 2, axis=axes, keepdims=True) / norms
    v0 = v[zero]  # (n, C)
    energies = 0.5 * np.mean(quot, axis=(1,) + axes) + 0.5 * gamma * np.mean(
        (v0 - 1.0) ** 2, axis=1
    )
    concentrations = np.mean(v0**2 / norms[zero], axis=1)

    # d(R/2)/dv = (pen^2 v - R v) / ||v||^2 ; amplitude term adds gamma (v0 - 1) at zero lag
    g_v = (pen**2 * v - quot * v) / norms / x.channels
    g_v[zero] += gamma * (v0 - 1.0) / x.channels
    grad_planes = np.sum(kernel.pullback(g_v), axis=0)

    value = float(np.sum(energies))
    grad = Signal(grad_planes.ravel(), x.shape, x.channels)
    return EnergyBreakdown(value, grad, energies, concentrations)


def grad_energy(x: Signal, model: "EnergyModel") -> GradientResult:
    """Gradient of the dataset energy with respect to the diffusing signal."""
    bd = energy_breakdown(x, model)
    return GradientResult(bd.grad, bd.value)


@dataclass(frozen=True)
class GradientCheckReport:
    max_rel_error: float
    mean_rel_error: float
    n_elements: int


def check_gradient(
    f: Callable[[Signal], float], analytic: Signal, x: Signal, h: float = 1e-5
) -> GradientCheckReport:
    """Central finite differences per element against a supplied analytic gradient.

    rel = |a - n| / max(|a|, |n|, 1e-12). Report only; never raises on error
    magnitude. Meaningful for inputs scaled to order one.
    """
    if h <= 0:
        raise ConfigError(f"step h must be > 0, got {h}")
    a = analytic.data
    num = np.empty_like(a)
    base = x.data
    for i in range(base.size):
        up = base.copy()
        up[i] += h
        dn = base.copy()
        dn[i] -= h
        num[i] = (
            f(Signal(up, x.shape, x.channels)) - f(Signal(dn, x.shape, x.channels))
        ) / (2.0 * h)
    rel = np.abs(a - num) / np.maximum(np.maximum(np.abs(a), np.abs(num)), 1e-12)
    return GradientCheckReport(float(rel.max()), float(rel.mean()), base.size)
