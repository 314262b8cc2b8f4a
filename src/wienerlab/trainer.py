"""Minimal dense autoencoder with hand-written backpropagation.

Exists to exercise the filter-identity loss as a training criterion next to
plain MSE at desk scale. The loss gradient with respect to reconstructions
comes from one batched quotient-kernel pass per minibatch (or the MSE
residual) and is pushed through the dense stack by hand; the optimizer is
Adam. Single-threaded and fully seeded, so runs are reproducible
parameter-for-parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DIVERGENCE_FACTOR,
    ConfigError,
    NumericalError,
    ShapeError,
    UndefinedQuotientError,
)
from .gradients import GradientCheckReport, loss_and_grad
from .spectral import LagGrid, Signal, WindowSpec, make_window
from .wiener import QuotientKernel

__all__ = [
    "DenseAutoencoder",
    "TrainConfig",
    "TrainLog",
    "TrainingDivergedError",
    "forward",
    "train",
    "grad_check_model",
]


def _mish(z: np.ndarray) -> np.ndarray:
    return z * np.tanh(np.logaddexp(0.0, z))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _mish_prime(z: np.ndarray) -> np.ndarray:
    t = np.tanh(np.logaddexp(0.0, z))
    return t + z * (1.0 - t * t) * _sigmoid(z)


_ACTIVATIONS = {
    "mish": (_mish, _mish_prime),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(float)),
}


@dataclass(eq=False)
class DenseAutoencoder:
    """Fully connected stack, nonlinearity on hidden layers, linear output."""

    widths: tuple[int, ...]
    weights: list[np.ndarray]  # weights[l]: (widths[l+1], widths[l])
    biases: list[np.ndarray]
    activation: str = "mish"

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ConfigError("need at least an input and an output layer")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (self.widths[l + 1], self.widths[l]) or b.shape != (self.widths[l + 1],):
                raise ShapeError(f"layer {l} parameter shapes do not chain")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ConfigError("parameters must be finite")

    @classmethod
    def initialize(cls, widths, activation: str = "mish", seed: int = 0) -> "DenseAutoencoder":
        """Fan-in-scaled uniform init, zero biases, seeded."""
        rng = np.random.default_rng(seed)
        widths = tuple(int(w) for w in widths)
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            scale = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-scale, scale, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(widths, weights, biases, activation)

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def flat_params(self) -> np.ndarray:
        return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in zip(self.weights, self.biases)])

    def set_flat_params(self, theta: np.ndarray) -> None:
        pos = 0
        for w, b in zip(self.weights, self.biases):
            w[...] = theta[pos : pos + w.size].reshape(w.shape)
            pos += w.size
            b[...] = theta[pos : pos + b.size]
            pos += b.size
        if pos != theta.size:
            raise ShapeError(f"parameter vector length {theta.size}, expected {pos}")


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "mse"  # "mse" | "wiener"
    batch_size: int = 32
    learning_rate: float = 1e-3
    epochs: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    whitening: WindowSpec = field(default_factory=lambda: WindowSpec("laplace", b=2.0, epsilon=0.1))
    lam: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.loss not in ("mse", "wiener"):
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        if not (0 <= self.learning_rate < math.inf and 0 < self.eps < math.inf):
            raise ConfigError("learning_rate must be >= 0 and eps > 0, both finite")
        if not (0 <= self.lam < math.inf):
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("moment decays must lie in [0, 1)")


@dataclass(eq=False)
class TrainLog:
    losses: list[float] = field(default_factory=list)  # per epoch
    concentrations: list[float] = field(default_factory=list)
    initial_concentration: float = float("nan")
    diverged: bool = False


class TrainingDivergedError(NumericalError):
    """Loss became non-finite or exploded; carries the log up to the last good epoch."""

    def __init__(self, epoch: int, log: TrainLog):
        super().__init__(f"training diverged at epoch {epoch}")
        self.log = log


def _forward_matrix(model: DenseAutoencoder, X: np.ndarray):
    act, _ = _ACTIVATIONS[model.activation]
    A = [X]
    Z = []
    n_layers = len(model.weights)
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = A[-1] @ w.T + b
        Z.append(z)
        A.append(act(z) if l < n_layers - 1 else z)  # linear output layer
    return A, Z


def _backward_matrix(model: DenseAutoencoder, A, Z, d_out: np.ndarray):
    _, act_prime = _ACTIVATIONS[model.activation]
    n_layers = len(model.weights)
    dW = [None] * n_layers
    db = [None] * n_layers
    delta = d_out
    for l in range(n_layers - 1, -1, -1):
        dW[l] = delta.T @ A[l]
        db[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ model.weights[l]) * act_prime(Z[l - 1])
    return dW, db


def _to_matrix(batch: list[Signal], width: int) -> np.ndarray:
    X = np.stack([s.data for s in batch])
    if X.shape[1] != width:
        raise ShapeError(f"input width {X.shape[1]} != first layer width {width}")
    return X


def forward(model: DenseAutoencoder, batch: list[Signal]) -> list[Signal]:
    """Reconstruction per sample, shapes preserved."""
    if not batch:
        return []
    X = _to_matrix(batch, model.widths[0])
    A, _ = _forward_matrix(model, X)
    ref = batch[0]
    return [Signal(row, ref.shape, ref.channels) for row in A[-1]]


def _batch_loss_and_grad(model: DenseAutoencoder, X: np.ndarray, ref: Signal, cfg: TrainConfig):
    """Mean loss over the batch and its gradient wrt the reconstructions."""
    A, Z = _forward_matrix(model, X)
    out = A[-1]
    B = X.shape[0]
    if cfg.loss == "mse":
        diff = out - X
        loss = 0.5 * float(np.sum(diff**2)) / B
        d_out = diff / B
    else:
        planes = (B, ref.channels) + ref.shape
        kernel = QuotientKernel(X.reshape(planes), ref.shape, cfg.lam)
        w_raw = make_window(cfg.whitening, LagGrid(kernel.padded)).raw
        vals, grads = loss_and_grad(kernel, out.reshape(planes), w_raw)
        loss = float(np.mean(vals))
        d_out = grads.reshape(B, -1) / B
    return loss, d_out, A, Z


def _mean_concentration(
    model: DenseAutoencoder, X: np.ndarray, ref: Signal, cfg: TrainConfig
) -> float:
    """Mean zero-lag energy fraction of the reconstruction-target filters.

    Filters are evaluated one minibatch-sized chunk at a time, so the
    diagnostic's memory is bounded by the batch size, as training's is.
    """
    A, _ = _forward_matrix(model, X)
    planes = (len(X), ref.channels) + ref.shape
    out, targets = A[-1].reshape(planes), X.reshape(planes)
    fractions = []
    for i in range(0, len(X), cfg.batch_size):
        chunk = slice(i, i + cfg.batch_size)
        v = QuotientKernel(targets[chunk], ref.shape, cfg.lam).filters(out[chunk])
        flat = v.reshape(v.shape[:2] + (-1,))
        norms = np.sum(flat**2, axis=-1)
        if np.any(norms == 0.0):
            raise UndefinedQuotientError("concentration undefined for an all-zero filter")
        fractions.append(flat[..., 0] ** 2 / norms)
    return float(np.mean(np.concatenate(fractions)))


def train(model: DenseAutoencoder, data: list[Signal], cfg: TrainConfig) -> TrainLog:
    """Mini-batch Adam training; model parameters are updated in place.

    The log records per-epoch mean loss and the mean reconstruction-target
    filter concentration on a fixed evaluation subset. Raises
    TrainingDivergedError (log attached) when the loss stops being finite or
    exceeds DIVERGENCE_FACTOR times the first minibatch loss.
    """
    if not data:
        raise ConfigError("empty training set")
    ref = data[0]
    width = ref.data.size
    if width != model.widths[0] or model.widths[-1] != width:
        raise ShapeError(
            f"sample width {width} does not match model ends {model.widths[0]}/{model.widths[-1]}"
        )
    X_all = np.stack([s.data for s in data])
    eval_X = X_all[: min(128, len(data))]
    rng = np.random.default_rng(cfg.seed)

    m = [np.zeros_like(w) for w in model.weights] + [np.zeros_like(b) for b in model.biases]
    v = [np.zeros_like(w) for w in model.weights] + [np.zeros_like(b) for b in model.biases]
    n_layers = len(model.weights)
    step = 0
    first_loss = None

    log = TrainLog()
    log.initial_concentration = _mean_concentration(model, eval_X, ref, cfg)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(data))
        epoch_losses = []
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            X = X_all[idx]
            try:
                loss, d_out, A, Z = _batch_loss_and_grad(model, X, ref, cfg)
            except NumericalError:
                loss = float("nan")
            if first_loss is None:
                first_loss = loss
            if not (np.isfinite(loss) and loss <= DIVERGENCE_FACTOR * first_loss):
                log.diverged = True
                raise TrainingDivergedError(epoch, log)
            epoch_losses.append(loss)
            dW, db = _backward_matrix(model, A, Z, d_out)
            grads = dW + db
            params = model.weights + model.biases
            step += 1
            for j, (p, g) in enumerate(zip(params, grads)):
                m[j] = cfg.beta1 * m[j] + (1 - cfg.beta1) * g
                v[j] = cfg.beta2 * v[j] + (1 - cfg.beta2) * g * g
                m_hat = m[j] / (1 - cfg.beta1**step)
                v_hat = v[j] / (1 - cfg.beta2**step)
                p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
        log.losses.append(float(np.mean(epoch_losses)))
        try:
            log.concentrations.append(_mean_concentration(model, eval_X, ref, cfg))
        except NumericalError:
            log.diverged = True
            raise TrainingDivergedError(epoch, log)
    return log


def grad_check_model(
    model: DenseAutoencoder, batch: list[Signal], cfg: TrainConfig, h: float = 1e-6
) -> GradientCheckReport:
    """Finite-difference check of end-to-end parameter gradients (report only)."""
    if model.n_params > 5000:
        raise ConfigError(f"{model.n_params} parameters exceeds the 5k grad-check cap")
    ref = batch[0]
    X = _to_matrix(batch, model.widths[0])

    loss, d_out, A, Z = _batch_loss_and_grad(model, X, ref, cfg)
    dW, db = _backward_matrix(model, A, Z, d_out)
    analytic = np.concatenate(
        [np.concatenate([w.ravel(), b]) for w, b in zip(dW, db)]
    )

    theta0 = model.flat_params()
    numeric = np.empty_like(theta0)
    probe = DenseAutoencoder(
        model.widths,
        [w.copy() for w in model.weights],
        [b.copy() for b in model.biases],
        model.activation,
    )
    for i in range(theta0.size):
        up = theta0.copy()
        up[i] += h
        probe.set_flat_params(up)
        lp = _batch_loss_and_grad(probe, X, ref, cfg)[0]
        dn = theta0.copy()
        dn[i] -= h
        probe.set_flat_params(dn)
        lm = _batch_loss_and_grad(probe, X, ref, cfg)[0]
        numeric[i] = (lp - lm) / (2.0 * h)
    rel = np.abs(analytic - numeric) / np.maximum(
        np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12
    )
    return GradientCheckReport(float(rel.max()), float(rel.mean()), theta0.size)
