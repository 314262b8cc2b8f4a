"""Non-parametric Langevin generator driven by the dataset energy.

No model is trained: the energy is a sum of filter penalties against a fixed
defining set, and samples come from gradient steps plus scheduled Gaussian
noise. All chains advance in lockstep, in the style of annealed Langevin
dynamics (Song & Ermon 2019, arXiv:1907.05600): their states form one
(chains, C, *extents) array, and each step is one batched energy and
gradient pass through the defining set's quotient kernel. The defining set
is a stack too, and a run's output is one ``Trajectory`` record of arrays
over all chains. Per-chain RNG streams are derived from the master seed by
chain index. Each chain draws its step noise from its own stream in blocks
of steps, in the same stream order as one draw per step of a chain run
alone, so chains are independent and the whole run is reproducible.

``energy_terms`` is the one energy path, over a batch of states; the energy
of one state is a batch of one. The penalty window and its square are built
once, with the defining set's kernel, by ``EnergyModel``. Each filter is
linear in the state, so the gradient is one adjoint pass through that
kernel (``QuotientKernel.pullback``, which multiplies by conj(K)). The
filters and the cotangent are formed in the kernel's work arrays, so a
loop of steps allocates no padded grid. Derivation in docs/gradient_note.md.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DIVERGENCE_FACTOR, ConfigError, Frozen, NumericalError, ShapeError, check_seed,
)
from .spectral import WindowSpec, as_stack, make_window
from .wiener import QuotientKernel, zero_lag_fractions

__all__ = [
    "EnergyModel",
    "Schedule",
    "Trajectory",
    "check_chain_args",
    "check_gamma",
    "cosine_schedule",
    "energy_terms",
    "run_diffusion",
    "nearest_defining_sample",
]

NOISE_BLOCK_ELEMENTS = 1 << 12  # standard normals pre-drawn at once, over all chains
# Elements of the (signals, n_defining, C, *padded) filter stack evaluated at
# once; larger batches go through in chunks, so memory stays bounded.
ENERGY_CHUNK_ELEMENTS = 1 << 18


class EnergyModel(Frozen):
    """The defining set plus the penalty window and scalars that shape the energy.

    ``defining`` is the set as one stack (n, C, *extents), kept as the
    read-only view that ``as_stack`` validates. The quotient kernel of this
    fixed set, the penalty window on its full-lag grid (``penalty_window``,
    raw layout) and its square are built at construction; the per-step
    energy and gradient then cost one filter pass and one pullback.
    """

    def __init__(self, defining: np.ndarray, penalty: WindowSpec, gamma: float, lam: float):
        self._set(defining=defining, penalty=penalty, gamma=gamma, lam=lam)
        self.__post_init__()

    def __post_init__(self):  # the build, a method of its own so perfbench can time it
        defining = as_stack(self.defining)
        check_gamma(self.gamma)
        extents = defining.shape[2:]
        window = make_window(self.penalty, extents)
        kernel = QuotientKernel(defining, extents, self.lam)
        self._set(defining=defining, kernel=kernel, penalty_window=window, penalty_sq=window**2)


def energy_terms(
    model: EnergyModel, X: np.ndarray
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
    elements = math.prod(model.defining.shape[:2] + model.kernel.padded)  # filters of one signal
    chunk = max(1, ENERGY_CHUNK_ELEMENTS // elements)
    if len(X) <= chunk:
        return _energy_chunk(model, X)
    n = len(model.defining)
    out = (np.empty(len(X)), np.empty(X.shape), *np.empty((2, len(X), n)))
    for i in range(0, len(X), chunk):  # each chunk's terms are copied in and let go
        for whole, part in zip(out, _energy_chunk(model, X[i : i + chunk])):
            whole[i : i + chunk] = part
    return out


def _energy_chunk(model: EnergyModel, X: np.ndarray):
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


class Schedule(Frozen):
    """Per-step Langevin step sizes and noise variances."""

    def __init__(self, alpha: np.ndarray, beta: np.ndarray):
        alpha = np.asarray(alpha, dtype=np.float64)
        beta = np.asarray(beta, dtype=np.float64)
        if alpha.shape != beta.shape or alpha.ndim != 1:
            raise ConfigError("alpha and beta must be 1-d arrays of equal length")
        if not np.all((0 < alpha) & (alpha < math.inf)):
            raise ConfigError("step sizes must be finite and positive")
        if not np.all((0 <= beta) & (beta < math.inf)):
            raise ConfigError("noise variances must be finite and nonnegative")
        self._set(alpha=alpha, beta=beta)

    @property
    def steps(self) -> int:
        return int(self.alpha.size)


class Trajectory(Frozen):
    """Every chain's log: strided snapshots plus per-step energy and focus diagnostics.

    ``samples`` holds each chain's states at the int array ``snapshot_steps``,
    shaped (chains, snapshots, C, *extents); ``energies`` and
    ``concentrations`` are shaped (chains, T+1), entry 0 describing x0.
    """

    def __init__(
        self, samples: np.ndarray, energies: np.ndarray, concentrations: np.ndarray,
        snapshot_steps: np.ndarray,
    ):
        self._set(
            samples=samples, energies=energies, concentrations=concentrations,
            snapshot_steps=snapshot_steps,
        )

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
