"""Analytic gradients of the filter-based functionals, on batches.

The matching filter depends on the differentiated signal only through the
spectral numerator, which is linear in it. Every gradient here is therefore
one adjoint pass through the fixed side's ``QuotientKernel``: the raw-layout
per-lag cotangent is carried back through the inverse real transform by
multiplying with conj(K) = S / (|S|^2 + lam) (the adjoint of the forward
quotient, S being the half spectrum of the padded fixed signal), then
cropped to the unpadded extents (the adjoint of zero padding). Weight
windows are built in raw layout (``spectral.make_window``), so no step
shifts lags. Values come from ``wiener.filter_identity_loss`` and
``wiener.zero_lag_fractions``. ``loss_and_grad`` is the one loss path and
``energy_terms`` the one energy path, each over a batch of signals; one
signal is a batch of one. Both form the filters, the residual and the
cotangent in the kernel's work arrays (``QuotientKernel._work``), so a
loop of steps on one kernel allocates no padded grid, and both return
fresh arrays only. The finite-difference checks that hold them to their
values live with the tests. Derivation in docs/gradient_note.md.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeError
from .wiener import QuotientKernel, filter_identity_loss, zero_lag_fractions

if TYPE_CHECKING:
    from .diffusion import EnergyModel

__all__ = ["loss_and_grad", "energy_terms"]


def loss_and_grad(
    kernel: QuotientKernel, varying: np.ndarray, w_raw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Whitened filter-identity loss and its gradient for a batch of varying planes.

    `varying` is (*batch, channels, *extents) and `w_raw` the whitening
    window from ``make_window``; values sum over channels and lags, one per
    batch entry.
    """
    values, residual = filter_identity_loss(kernel, kernel._work_filters(varying), w_raw)
    residual *= w_raw  # the cotangent W^2 * (v - delta), in the residual's own buffer
    return values, kernel.pullback(residual)


# Elements of the (signals, n_defining, C, *padded) filter stack evaluated at
# once; larger batches go through in chunks, so memory stays bounded.
ENERGY_CHUNK_ELEMENTS = 1 << 18


def energy_terms(
    model: "EnergyModel", X: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dataset energy, its gradient and the per-sample terms for a batch of signals.

    `X` is (batch, C, *extents). Each defining sample contributes half its
    penalty quotient plus the zero-lag amplitude correction gamma/2 * (v0 - 1)^2.
    Every (signal, defining sample) pair goes through the defining set's
    kernel in one filter pass and one pullback per chunk of signals; the
    pullback sums each signal's cotangents over the defining set before its
    inverse, so it inverts one gradient per signal. Returns
    the values (batch,), the gradients (batch, C, *extents), and the
    per-sample energies and zero-lag concentrations (batch, n_defining) in
    dataset index order. Overflow shows up as non-finite values, which the
    kernel and the callers turn into NumericalError.
    """
    sample = model.defining.shape[1:]
    if X.shape[1:] != sample:
        raise ShapeError(
            f"signal planes {X.shape[1:]} do not match defining sample planes {sample}"
        )
    elements = model.defining.size * 2 ** (len(sample) - 1)  # filters of one signal
    chunk = max(1, ENERGY_CHUNK_ELEMENTS // elements)
    if len(X) <= chunk:
        return _energy_chunk(model, X)
    n = len(model.defining)
    out = (np.empty(len(X)), np.empty(X.shape), *np.empty((2, len(X), n)))
    for i in range(0, len(X), chunk):  # each chunk's terms are copied in and let go
        for whole, part in zip(out, _energy_chunk(model, X[i : i + chunk])):
            whole[i : i + chunk] = part
    return out


def _energy_chunk(model: "EnergyModel", X: np.ndarray):
    gamma = model.gamma
    pen = model.penalty_window  # (*padded), raw layout
    kernel = model.kernel  # fixed side: the defining set, (n, C, *extents)
    axes = kernel.axes
    zero = (...,) + (0,) * len(axes)
    channels = X.shape[1]

    # channel means are sum / channels, as in np.mean; the ndarray methods skip
    # np.sum's dispatch, which costs as much as the sum on these small arrays
    varying = X[:, None]  # (batch, 1, C, *extents), broadcast over the defining set
    v = kernel._work_filters(varying)  # (batch, n, C, *padded), raw layout
    work = kernel._work("energy", v.shape)  # each full-size product below, in turn
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.multiply(v, v, out=work).sum(axis=axes, keepdims=True)
        v0 = v[zero].copy()  # (batch, n, C); v's buffer turns into the cotangent
        fractions = zero_lag_fractions(v0, norms[zero])
        # Rayleigh quotient ||pen * v||^2 / ||v||^2: where a filter's energy sits
        np.multiply(pen, v, out=work)
        quot = np.multiply(work, work, out=work).sum(axis=axes, keepdims=True) / norms
        energies = 0.5 * (quot.sum(axis=(2,) + axes) / channels) + 0.5 * gamma * (
            ((v0 - 1.0) ** 2).sum(axis=2) / channels
        )
        concentrations = fractions.sum(axis=2) / channels

        # d(R/2)/dv = (pen^2 v - R v) / ||v||^2 ; amplitude term adds gamma (v0 - 1) at zero lag
        g_v = np.multiply(quot, v, out=work)
        g_v = np.subtract(np.multiply(model.penalty_sq, v, out=v), g_v, out=v)
        g_v /= norms
        g_v /= channels
        g_v[zero] += gamma * (v0 - 1.0) / channels
    # the pullback sums over the defining set on the spectrum: one inverse per signal
    grads = kernel.pullback(g_v, varying.shape[: -len(axes)])[:, 0]
    return energies.sum(axis=1), grads, energies, concentrations
