"""Non-parametric Langevin generator driven by the dataset energy.

No model is trained: the energy is a sum of filter penalties against a fixed
defining set, and samples come from gradient steps plus scheduled Gaussian
noise. All chains advance in lockstep, in the style of annealed Langevin
dynamics (Song & Ermon 2019, arXiv:1907.05600): their states form one
(chains, C, *extents) array, and each step is one batched energy and
gradient pass through the defining set's quotient kernel. The defining set
is a stack too, and a run's output is one ``Trajectory`` record of arrays
over all chains. The energy of one state is ``gradients.energy_terms`` on a
batch of one. Per-chain RNG streams are derived from the master seed by
chain index. Each chain draws its step noise from its own stream in blocks
of steps, in the same stream order as one draw per step of a chain run
alone, so chains are independent and the whole run is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DIVERGENCE_FACTOR, ConfigError, NumericalError, check_seed
from .gradients import energy_terms
from .spectral import WindowSpec, as_stack, make_window
from .wiener import QuotientKernel

__all__ = [
    "EnergyModel",
    "Schedule",
    "Trajectory",
    "check_chain_args",
    "check_gamma",
    "cosine_schedule",
    "run_diffusion",
    "nearest_defining_sample",
]

NOISE_BLOCK_ELEMENTS = 1 << 12  # standard normals pre-drawn at once, over all chains


@dataclass(frozen=True, eq=False)
class EnergyModel:
    """The defining set plus the penalty window and scalars that shape the energy.

    ``defining`` is the set as one stack (n, C, *extents), kept as the
    read-only view that ``as_stack`` validates. The quotient kernel of this
    fixed set, the penalty window on its full-lag grid (``penalty_window``,
    raw layout) and its square are built at construction; the per-step
    energy and gradient then cost one filter pass and one pullback.
    """

    defining: np.ndarray
    penalty: WindowSpec
    gamma: float
    lam: float

    def __post_init__(self):
        defining = as_stack(self.defining)
        check_gamma(self.gamma)
        extents = defining.shape[2:]
        window = make_window(self.penalty, extents)
        object.__setattr__(self, "defining", defining)
        object.__setattr__(self, "kernel", QuotientKernel(defining, extents, self.lam))
        object.__setattr__(self, "penalty_window", window)
        object.__setattr__(self, "penalty_sq", window**2)


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
        if not np.all((0 < alpha) & (alpha < math.inf)):
            raise ConfigError("step sizes must be finite and positive")
        if not np.all((0 <= beta) & (beta < math.inf)):
            raise ConfigError("noise variances must be finite and nonnegative")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def steps(self) -> int:
        return int(self.alpha.size)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Every chain's log: strided snapshots plus per-step energy and focus diagnostics.

    ``samples`` holds each chain's states at the int array ``snapshot_steps``,
    shaped (chains, snapshots, C, *extents); ``energies`` and
    ``concentrations`` are shaped (chains, T+1), entry 0 describing x0.
    """

    samples: np.ndarray
    energies: np.ndarray
    concentrations: np.ndarray
    snapshot_steps: np.ndarray

    @property
    def final(self) -> np.ndarray:
        """Every chain's state after the last step, shaped (chains, C, *extents)."""
        return self.samples[:, -1]


def cosine_schedule(T: int, start: float, end: float) -> np.ndarray:
    """Half-cosine interpolation from start to end with exact endpoint attainment."""
    if T < 2:
        raise ConfigError(f"schedule needs at least 2 steps, got {T}")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ConfigError(f"schedule endpoints must be finite, got {start} and {end}")
    t = np.arange(T, dtype=np.float64)
    w = (1.0 + np.cos(np.pi * (t / (T - 1)))) / 2.0  # w[0] = 1, w[T-1] = 0 exactly
    return start * w + end * (1.0 - w)


def _update(
    X: np.ndarray, grads: np.ndarray, alpha_t: float, beta_t: float, noise: np.ndarray | None
) -> np.ndarray:
    """X - (alpha_t/2) * grads + sqrt(beta_t) * noise, `noise` being standard normals
    or None; the same numbers as rng.normal(0, sqrt(beta_t)) = 0 + sqrt(beta_t) * z."""
    with np.errstate(over="ignore", invalid="ignore"):
        X = X - (alpha_t / 2.0) * grads
        if noise is not None:
            X += math.sqrt(beta_t) * noise
    return X


def _step_noise(streams: list[np.random.Generator], beta: np.ndarray, sample: tuple[int, ...]):
    """Yield each step's standard normals (chains, *sample), or None where beta_t = 0.

    Each chain fills its rows of a block of steps (at most NOISE_BLOCK_ELEMENTS
    numbers, one step at least) from its own stream, in per-step draw order.
    """
    block = max(1, NOISE_BLOCK_ELEMENTS // (len(streams) * math.prod(sample)))
    for start in range(0, beta.size, block):
        noisy = beta[start : start + block] > 0
        Z = np.empty((len(streams), int(noisy.sum()), *sample))
        for rng, z in zip(streams, Z):
            rng.standard_normal(out=z)
        rows = iter(np.moveaxis(Z, 1, 0))
        for is_noisy in noisy:
            yield next(rows) if is_noisy else None


def check_gamma(gamma: float) -> None:
    """ConfigError unless the zero-lag amplitude weight gamma is finite and >= 0."""
    if not (0 <= gamma < math.inf):
        raise ConfigError(f"gamma must be finite and >= 0, got {gamma}")


def check_chain_args(
    n_samples: int, init_variance: float, snapshot_stride: int, k_nearest: int = 1
) -> None:
    """ConfigError unless run_diffusion's chain arguments are in range."""
    if n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
    if not (0 <= init_variance < math.inf):
        raise ConfigError(f"init_variance must be finite and >= 0, got {init_variance}")
    if snapshot_stride < 1:
        raise ConfigError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    if k_nearest < 1:
        raise ConfigError(f"k_nearest must be >= 1, got {k_nearest}")


def run_diffusion(
    model: EnergyModel,
    schedule: Schedule,
    n_samples: int,
    init_variance: float,
    seed: int,
    snapshot_stride: int = 20,
    k_nearest: int = 1,
) -> Trajectory:
    """Run independent Langevin chains in lockstep and log them in one record.

    Chain c starts at x0 ~ N(0, init_variance I) and takes its step noise
    from its own stream, SeedSequence(seed).spawn(n_samples)[c], in blocks of
    steps, so its path does not depend on how many chains run beside it. The
    state of all chains is one (chains, C, *extents) array, and each step is
    one batched energy and gradient pass. Energies and the mean concentration
    of the k_nearest (at most all) energy-nearest matching filters are
    recorded at every step (entry 0 describes x0); snapshots are kept every
    `snapshot_stride` steps plus the final state.

    A chain diverges at step t when its state x_t, its energy or its
    gradient there is not finite, or its energy exceeds DIVERGENCE_FACTOR
    times its step-0 energy. The NumericalError names the earliest such
    step and, at that step, the lowest diverging chain.
    """
    check_chain_args(n_samples, init_variance, snapshot_stride, k_nearest)
    check_seed(seed)
    k = min(k_nearest, len(model.defining))
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_samples)]
    T = schedule.steps

    sample = model.defining.shape[1:]
    X = np.stack([rng.normal(0.0, math.sqrt(init_variance), size=sample) for rng in streams])
    snapshots = [X]
    snapshot_steps = [0]
    energies = np.empty((n_samples, T + 1))
    concentrations = np.empty((n_samples, T + 1))
    limit = np.full(n_samples, np.inf)
    chains = np.arange(n_samples)[:, None]
    noise = _step_noise(streams, schedule.beta, sample)
    for t in range(T + 1):
        values, grads, sample_energies, sample_concentrations = _lockstep_terms(
            model, X, t, limit
        )
        energies[:, t] = values
        nearest = np.argsort(sample_energies, axis=1, kind="stable")[:, :k]
        concentrations[:, t] = sample_concentrations[chains, nearest].sum(axis=1) / k  # their mean
        if t == 0:
            with np.errstate(over="ignore"):  # an infinite limit is never exceeded
                limit = DIVERGENCE_FACTOR * values
        if t == T:
            break
        X = _update(X, grads, schedule.alpha[t], schedule.beta[t], next(noise))
        if (t + 1) % snapshot_stride == 0 or (t + 1) == T:
            snapshots.append(X)
            snapshot_steps.append(t + 1)

    return Trajectory(np.stack(snapshots, 1), energies, concentrations, np.array(snapshot_steps))


def _lockstep_terms(model: EnergyModel, X: np.ndarray, step: int, limit: np.ndarray):
    """``energy_terms`` of every chain at `step`, or a NumericalError naming the
    lowest chain that diverges there. `limit` bounds each chain's energy."""
    try:
        terms = energy_terms(model, X)
    except NumericalError:
        pass
    else:
        if (np.isfinite(terms[0]) & (terms[0] <= limit)).all():
            return terms
    # a failure is rare: find the lowest failing chain by evaluating each alone
    for chain, x in enumerate(X):
        reason = _chain_failure(model, x, limit[chain])
        if reason is not None:
            raise NumericalError(f"chain {chain} diverged at step {step}: {reason}")
    raise NumericalError(f"a chain diverged at step {step}")


def _chain_failure(model: EnergyModel, x: np.ndarray, limit: float) -> str | None:
    """Why one chain's state fails the divergence guard, or None."""
    if not np.all(np.isfinite(x)):
        return "non-finite state"
    try:
        value = energy_terms(model, x[None])[0][0]
    except NumericalError as exc:
        return str(exc)
    if not np.isfinite(value):
        return "non-finite energy"
    if value > limit:
        return f"energy {value:.3g} exceeds {DIVERGENCE_FACTOR:g} times its step-0 energy"
    return None


def nearest_defining_sample(x: np.ndarray, model: EnergyModel) -> tuple[int, float]:
    """Index of, and Euclidean distance to, the defining sample closest to the
    state x, shaped (C, *extents). A distance that overflows reads inf."""
    x = np.ravel(x)
    with np.errstate(over="ignore"):
        dists = [float(np.linalg.norm(x - y.ravel())) for y in model.defining]
    idx = int(np.argmin(dists))
    return idx, dists[idx]
