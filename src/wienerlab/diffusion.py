"""Non-parametric Langevin generator driven by the dataset energy.

No model is trained: the energy is a sum of filter penalties against a fixed
defining set, and samples come from gradient steps plus scheduled Gaussian
noise. Per-chain RNG streams are derived from the master seed by chain
index, so chains are independent and the whole run is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError
from .gradients import EnergyBreakdown, energy_breakdown
from .spectral import LagFilter, Signal
from .wiener import QuotientKernel, WienerConfig

__all__ = [
    "EnergyModel",
    "Schedule",
    "Trajectory",
    "cosine_schedule",
    "energy",
    "langevin_step",
    "run_diffusion",
    "nearest_defining_sample",
]


@dataclass(frozen=True, eq=False)
class EnergyModel:
    """Defining samples plus the penalty window and scalars that shape the energy.

    The quotient kernel of the (fixed) defining set is built at construction;
    the per-step energy and gradient then cost one batched filter pass and
    one pullback.
    """

    defining_samples: list[Signal]
    penalty: LagFilter
    gamma: float
    wiener_cfg: WienerConfig

    def __post_init__(self):
        if not self.defining_samples:
            raise ConfigError("energy model needs at least one defining sample")
        first = self.defining_samples[0]
        for s in self.defining_samples[1:]:
            if s.shape != first.shape or s.channels != first.channels:
                raise ShapeError("defining samples must share one shape")
        if not (self.gamma >= 0):
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        expected = tuple(2 * n for n in first.shape)
        if self.penalty.grid.extents != expected:
            raise ShapeError(
                f"penalty extents {self.penalty.grid.extents} != padded extents {expected}"
            )
        planes = np.stack([s.planes for s in self.defining_samples])
        object.__setattr__(self, "kernel", QuotientKernel(planes, first.shape, self.wiener_cfg.lam))


@dataclass(frozen=True, eq=False)
class Schedule:
    """Per-step Langevin step sizes and noise variances."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.float64)
        beta = np.asarray(self.beta, dtype=np.float64)
        if alpha.shape != beta.shape or alpha.ndim != 1:
            raise ConfigError("alpha and beta must be 1-d arrays of equal length")
        if np.any(alpha <= 0):
            raise ConfigError("step sizes must be positive")
        if np.any(beta < 0):
            raise ConfigError("noise variances must be nonnegative")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def steps(self) -> int:
        return int(self.alpha.size)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-chain log: strided snapshots plus per-step energy and focus diagnostics."""

    samples: list[Signal]
    energies: list[float]
    concentrations: list[float]
    snapshot_steps: list[int]

    @property
    def final(self) -> Signal:
        return self.samples[-1]


def cosine_schedule(T: int, start: float, end: float) -> np.ndarray:
    """Half-cosine interpolation from start to end with exact endpoint attainment."""
    if T < 2:
        raise ConfigError(f"schedule needs at least 2 steps, got {T}")
    t = np.arange(T, dtype=np.float64)
    w = (1.0 + np.cos(np.pi * (t / (T - 1)))) / 2.0  # w[0] = 1, w[T-1] = 0 exactly
    return start * w + end * (1.0 - w)


def energy(x: Signal, model: EnergyModel) -> float:
    """Dataset energy sum at x, accumulated in dataset index order."""
    return energy_breakdown(x, model).value


def langevin_step(
    x: Signal,
    model: EnergyModel,
    alpha_t: float,
    beta_t: float,
    rng: np.random.Generator,
) -> Signal:
    """One update x - (alpha_t/2) * dE/dx + z, with z ~ N(0, beta_t I)."""
    if alpha_t <= 0:
        raise ConfigError(f"alpha_t must be > 0, got {alpha_t}")
    if beta_t < 0:
        raise ConfigError(f"beta_t must be >= 0, got {beta_t}")
    bd = energy_breakdown(x, model)
    data = x.data - (alpha_t / 2.0) * bd.grad.data
    if beta_t > 0:
        data = data + rng.normal(0.0, math.sqrt(beta_t), size=data.shape)
    return Signal(data, x.shape, x.channels)


def run_diffusion(
    model: EnergyModel,
    schedule: Schedule,
    n_samples: int,
    init_variance: float,
    seed: int,
    snapshot_stride: int = 20,
    k_nearest: int = 1,
) -> list[Trajectory]:
    """Run independent Langevin chains and log their trajectories.

    Each chain starts at x0 ~ N(0, init_variance I) under its own RNG stream.
    Energies and the mean concentration of the k energy-nearest matching
    filters are recorded at every step (entry 0 describes x0); snapshots are
    kept every `snapshot_stride` steps plus the final state.
    """
    if n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
    if init_variance < 0:
        raise ConfigError(f"init_variance must be >= 0, got {init_variance}")
    if snapshot_stride < 1:
        raise ConfigError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    ref = model.defining_samples[0]
    k = max(1, min(k_nearest, len(model.defining_samples)))
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_samples)]
    T = schedule.steps

    trajectories = []
    # overflow in a diverging chain is reported by the chain/step guard below
    with np.errstate(over="ignore", invalid="ignore"):
        for chain, rng in enumerate(streams):
            x = Signal(
                rng.normal(0.0, math.sqrt(init_variance), size=ref.data.size),
                ref.shape,
                ref.channels,
            )
            samples = [x]
            snapshot_steps = [0]
            energies = []
            concentrations = []
            for t in range(T):
                bd = _chain_breakdown(x, model, chain, t)
                energies.append(bd.value)
                nearest = np.argsort(bd.sample_energies, kind="stable")[:k]
                concentrations.append(float(np.mean(bd.sample_concentrations[nearest])))
                data = x.data - (schedule.alpha[t] / 2.0) * bd.grad.data
                if schedule.beta[t] > 0:
                    data = data + rng.normal(0.0, math.sqrt(schedule.beta[t]), size=data.shape)
                if not np.all(np.isfinite(data)):
                    raise NumericalError(f"chain {chain} diverged at step {t}: non-finite state")
                x = Signal(data, x.shape, x.channels)
                if (t + 1) % snapshot_stride == 0 and (t + 1) != T:
                    samples.append(x)
                    snapshot_steps.append(t + 1)
            final_bd = _chain_breakdown(x, model, chain, T)
            energies.append(final_bd.value)
            nearest = np.argsort(final_bd.sample_energies, kind="stable")[:k]
            concentrations.append(float(np.mean(final_bd.sample_concentrations[nearest])))
            samples.append(x)
            snapshot_steps.append(T)
            trajectories.append(Trajectory(samples, energies, concentrations, snapshot_steps))
    return trajectories


def _chain_breakdown(x: Signal, model: EnergyModel, chain: int, step: int) -> EnergyBreakdown:
    """energy_breakdown that names the chain and step when the energy or its
    gradient stops being finite."""
    try:
        bd = energy_breakdown(x, model)
    except NumericalError as exc:
        raise NumericalError(f"chain {chain} diverged at step {step}: {exc}") from exc
    if not np.isfinite(bd.value):
        raise NumericalError(f"chain {chain} diverged at step {step}: non-finite energy")
    return bd


def nearest_defining_sample(x: Signal, model: EnergyModel) -> tuple[int, float]:
    """Index of, and Euclidean distance to, the closest defining sample."""
    dists = [float(np.linalg.norm(x.data - y.data)) for y in model.defining_samples]
    idx = int(np.argmin(dists))
    return idx, dists[idx]
