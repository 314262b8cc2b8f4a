"""Minimal dense autoencoder with hand-written backpropagation.

Exists to exercise the filter-identity loss as a training criterion next to
plain MSE at desk scale. The loss gradient with respect to reconstructions
comes from one batched quotient-kernel pass per minibatch (or the MSE
residual) and is pushed through the dense stack by hand; the optimizer is
Adam. The targets are transformed once per run: each minibatch takes its
rows of one kernel over the training set (``_kernel_rows``).
Single-threaded and fully seeded, so runs are reproducible
parameter-for-parameter. ``train`` reads the [train] section (``config.TrainSection``).

All parameters live in one float64 vector ``theta`` (per layer: row-major
weights, then bias); ``weights[l]`` and ``biases[l]`` are views into it.
Gradients and Adam's moments share that layout, so each minibatch is one
vectorized Adam update. When a gradient will follow, the forward pass keeps
each hidden layer's act'(z), built from the activation's own intermediates;
forward-only passes compute no derivatives.

Data moves as one stack of samples shaped (n, C, *extents), validated once
by ``as_stack``; the dense layers see it as an (n, C*prod(extents)) matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DIVERGENCE_FACTOR, ConfigError, NumericalError, ShapeError, check_seed
from .spectral import WindowSpec, as_stack, make_window
from .wiener import QuotientKernel, loss_and_grad

__all__ = ["DenseAutoencoder", "TrainLog", "TrainingDivergedError", "forward", "train"]


# Each activation maps (z, prime) to (act(z), act'(z) if prime else None).
def _mish(z: np.ndarray, prime: bool):
    # softplus as max(z, 0) + log1p(exp(-|z|)), the formula of logaddexp(0, z)
    # in vectorized ufuncs (logaddexp itself runs a scalar loop)
    sp = np.exp(-np.abs(z))
    np.log1p(sp, out=sp)
    sp += np.maximum(z, 0.0)
    t = np.tanh(sp)
    # sigmoid(z) = 1 - exp(-softplus(z)) = -expm1(-sp)
    return z * t, (t - z * (1.0 - t * t) * np.expm1(-sp) if prime else None)


def _tanh(z: np.ndarray, prime: bool):
    a = np.tanh(z)
    return a, (1.0 - a**2 if prime else None)


def _relu(z: np.ndarray, prime: bool):
    return np.maximum(z, 0.0), ((z > 0.0).astype(float) if prime else None)


_ACTIVATIONS = {"mish": _mish, "tanh": _tanh, "relu": _relu}


def _layer_views(widths: tuple[int, ...], flat: np.ndarray):
    """Per-layer (weights, biases) views of a vector in theta's layout."""
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(flat[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in))
        pos += fan_out * fan_in
        biases.append(flat[pos : pos + fan_out])
        pos += fan_out
    return weights, biases


class DenseAutoencoder:
    """Fully connected stack, nonlinearity on hidden layers, linear output.

    ``theta`` (all zeros when omitted) is copied in and owned by the model;
    ``weights[l]`` (widths[l+1], widths[l]) and ``biases[l]`` view into it.
    """

    def __init__(self, widths: tuple[int, ...], activation: str = "mish", theta=None):
        self.widths = widths = tuple(int(w) for w in widths)
        if len(widths) < 2:
            raise ConfigError(f"layer widths {widths} need at least an input and an output layer")
        if min(widths) < 1:
            raise ConfigError(f"layer widths {widths} must all be >= 1")
        if activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        self.activation = activation
        n = self.param_count(widths)
        theta = np.zeros(n) if theta is None else np.array(theta, dtype=np.float64)
        if theta.shape != (n,):
            raise ShapeError(f"parameter vector shape {theta.shape}, expected ({n},)")
        if not np.all(np.isfinite(theta)):
            raise ConfigError("parameters must be finite")
        self.theta = theta
        self.weights, self.biases = _layer_views(widths, theta)

    @classmethod
    def initialize(cls, widths, activation: str = "mish", seed: int = 0) -> "DenseAutoencoder":
        """Fan-in-scaled uniform init, zero biases, seeded."""
        check_seed(seed)
        model = cls(widths, activation)
        rng = np.random.default_rng(seed)
        for w in model.weights:
            scale = 1.0 / np.sqrt(w.shape[1])
            w[...] = rng.uniform(-scale, scale, size=w.shape)
        return model

    @staticmethod
    def param_count(widths) -> int:
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths, widths[1:]))

    def flat_params(self) -> np.ndarray:
        return self.theta.copy()


class TrainLog:
    def __init__(self, losses=None, concentrations=None, initial_concentration=float("nan")):
        self.losses = [] if losses is None else losses  # per epoch
        self.concentrations = [] if concentrations is None else concentrations
        self.initial_concentration = initial_concentration


class TrainingDivergedError(NumericalError):
    """Loss became non-finite or exploded; carries the log up to the last good epoch."""

    def __init__(self, epoch: int, log: TrainLog):
        super().__init__(f"training diverged at epoch {epoch}")
        self.log = log


def _forward_matrix(model: DenseAutoencoder, X: np.ndarray, prime: bool = False):
    """Activations A (A[0] = X) and hidden-layer derivatives D (None unless prime)."""
    act = _ACTIVATIONS[model.activation]
    A, D = [X], []
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a, d = act(A[-1] @ w.T + b, prime)
        A.append(a)
        D.append(d)
    A.append(A[-1] @ model.weights[-1].T + model.biases[-1])  # linear output layer
    return A, D


def _backward_matrix(model: DenseAutoencoder, A, D, d_out: np.ndarray, grad=None) -> np.ndarray:
    """Parameter gradient in theta's layout, written into `grad` (new if None)."""
    grad = np.empty_like(model.theta) if grad is None else grad
    dW, db = _layer_views(model.widths, grad)
    delta = d_out
    for l in range(len(dW) - 1, -1, -1):
        np.matmul(delta.T, A[l], out=dW[l])
        np.sum(delta, axis=0, out=db[l])
        if l > 0:
            delta = delta @ model.weights[l]
            delta *= D[l - 1]
    return grad


def _sample_matrix(model: DenseAutoencoder, samples) -> tuple[np.ndarray, tuple[int, ...]]:
    """A validated stack (n, C, *extents) as an (n, width) matrix, plus the
    per-sample shape (C, *extents). The width must match both model ends."""
    stack = as_stack(samples)
    X = stack.reshape(len(stack), -1)
    if not X.shape[1] == model.widths[0] == model.widths[-1]:
        raise ShapeError(
            f"sample width {X.shape[1]} does not match model ends "
            f"{model.widths[0]}/{model.widths[-1]}"
        )
    return X, stack.shape[1:]


def forward(model: DenseAutoencoder, batch) -> np.ndarray:
    """Reconstructions of a stack of samples (n, C, *extents), in the same shape."""
    X, shape = _sample_matrix(model, batch)
    A, _ = _forward_matrix(model, X)
    return A[-1].reshape((len(X),) + shape)


KERNEL_CACHE_BYTES = 2**26  # spectra a run keeps; past this, kernels are built per minibatch


def _kernel_rows(stack: np.ndarray, lam: float, batch_size: int):
    """index -> the QuotientKernel of ``stack[index]``, `stack` shaped (n, C, *extents).

    The stack's K and L are priced before any transform
    (``QuotientKernel.plane_bytes``). Within KERNEL_CACHE_BYTES the stack is
    transformed once and each index is a row view of that one kernel. A
    larger stack is transformed here once, `batch_size` rows at a time, into
    kernels that are not kept, so a singular sample fails before training
    wherever it sits; each index then builds the kernel of its rows (equal
    bit for bit to the row view).
    """
    extents = stack.shape[2:]
    if math.prod(stack.shape[:2]) * QuotientKernel.plane_bytes(extents) <= KERNEL_CACHE_BYTES:
        return QuotientKernel(stack, extents, lam).rows
    for start in range(0, len(stack), batch_size):
        QuotientKernel(stack[start : start + batch_size], extents, lam)
    return lambda index: QuotientKernel(stack[index], extents, lam)


def _batch_loss_and_grad(model: DenseAutoencoder, X_all, idx, shape, cfg, w_raw, kernel_rows):
    """Mean loss over the batch X_all[idx] (one flattened sample of shape
    (C, *extents) per row), its gradient wrt the reconstructions and the
    forward pass (A, D) for backprop. Under the filter loss the batch's
    kernel is ``kernel_rows(idx)`` (see ``_kernel_rows``) and `w_raw` its
    whitening window; MSE reads neither."""
    X = X_all[idx]
    A, D = _forward_matrix(model, X, prime=True)
    out = A[-1]
    B = X.shape[0]
    if cfg.loss == "mse":
        diff = out - X
        loss = 0.5 * float(np.sum(diff**2)) / B
        d_out = diff / B
    else:
        planes = (B,) + shape
        vals, grads = loss_and_grad(kernel_rows(idx), out.reshape(planes), w_raw)
        loss = float(np.mean(vals))
        d_out = grads.reshape(B, -1) / B
    return loss, d_out, A, D


def _mean_concentration(model: DenseAutoencoder, X, shape, cfg, kernel_rows) -> float:
    """Mean zero-lag energy fraction of the reconstruction-target filters.

    ``kernel_rows(rows)`` is the kernel of X's rows (see ``_kernel_rows``).
    The fractions are read from the quotient spectra, one minibatch-sized
    chunk of rows at a time, with one forward transform per chunk and no
    inverse (``QuotientKernel.concentrations``); the kernel's spectra are
    those ``_kernel_rows`` keeps.
    """
    A, _ = _forward_matrix(model, X)
    out = A[-1].reshape((len(X),) + shape)
    fractions = []
    for i in range(0, len(X), cfg.batch_size):
        chunk = slice(i, min(i + cfg.batch_size, len(X)))  # kernel_rows may cover more rows
        fractions.append(kernel_rows(chunk).concentrations(out[chunk]))
    return float(np.mean(np.concatenate(fractions)))


def train(model: DenseAutoencoder, data, cfg, whitening: WindowSpec, lam: float) -> TrainLog:
    """Mini-batch Adam training on a stack of samples (n, C, *extents); model
    parameters are updated in place.

    `cfg` is the [train] section (``config.TrainSection``, which checks its
    keys), `whitening` the filter loss's window and `lam` the stabilizer,
    which the run's first kernel checks, under MSE too.

    The log records per-epoch mean loss and the mean reconstruction-target
    filter concentration on a fixed evaluation subset (the first 128 rows).
    The targets the run reads (every training row under the filter loss,
    the evaluation rows under MSE) are transformed once, before the first
    epoch, into one kernel whose rows the minibatches and the diagnostic
    take (``_kernel_rows``; past KERNEL_CACHE_BYTES, per-minibatch kernels).
    So a sample that leaves the system singular (a zero denominator bin at
    lambda = 0) raises SingularSystemError before the first epoch, wherever
    it sits. Raises TrainingDivergedError (log attached) when the loss stops
    being finite or exceeds DIVERGENCE_FACTOR times the first minibatch loss.
    """
    X_all, shape = _sample_matrix(model, data)
    n = len(X_all)
    n_eval = min(128, n)
    eval_X = X_all[:n_eval]
    rng = np.random.default_rng(cfg.seed)

    kept = n if cfg.loss == "wiener" else n_eval
    kernel_rows = _kernel_rows(X_all[:kept].reshape((kept,) + shape), lam, cfg.batch_size)
    w_raw = make_window(whitening, shape[1:]) if cfg.loss == "wiener" else None
    grad, m, v = (np.zeros_like(model.theta) for _ in range(3))
    step, first_loss = 0, None

    log = TrainLog()
    # a non-finite value ends the run through the loss guard or NumericalError,
    # so the step and the diagnostic raise no floating-point warnings first
    with np.errstate(over="ignore", invalid="ignore"):
        log.initial_concentration = _mean_concentration(model, eval_X, shape, cfg, kernel_rows)
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                try:
                    loss, d_out, A, D = _batch_loss_and_grad(
                        model, X_all, idx, shape, cfg, w_raw, kernel_rows
                    )
                except NumericalError:
                    loss = float("nan")
                if first_loss is None:
                    first_loss = loss
                if not (np.isfinite(loss) and loss <= DIVERGENCE_FACTOR * first_loss):
                    raise TrainingDivergedError(epoch, log)
                epoch_losses.append(loss)
                _backward_matrix(model, A, D, d_out, grad)
                step += 1
                m = cfg.beta1 * m + (1 - cfg.beta1) * grad
                v = cfg.beta2 * v + (1 - cfg.beta2) * grad * grad
                m_hat = m / (1 - cfg.beta1**step)
                v_hat = v / (1 - cfg.beta2**step)
                model.theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
            try:  # an epoch is logged whole: its loss and its concentration, or neither
                concentration = _mean_concentration(model, eval_X, shape, cfg, kernel_rows)
            except NumericalError:
                raise TrainingDivergedError(epoch, log)
            log.losses.append(float(np.mean(epoch_losses)))
            log.concentrations.append(concentration)
    return log
