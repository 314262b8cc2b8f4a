"""Data-matching full-lag filters and the comparison functionals built on them.

The matching filter between two equally shaped signals is the convolutional
filter v minimizing ||Y v - x||^2, where Y is circular convolution with the
padded source. ``QuotientKernel`` solves it as the spectral quotient
(conj(S)*X + lam) / (|S|^2 + lam) with real FFTs, O(N log N). Every filter,
loss, gradient, energy and TI distance in the library goes through it;
``wiener_filter`` is the centered single-pair wrapper. The dense circulant
solve that cross-checks it lives with the tests, apart from this module.

The stabilizer ``lam``, a float, is added to numerator and denominator so
that identical inputs always yield the unit zero-lag spike (the convolutional
identity), for every lam >= 0; ``check_lambda``, the one rule for it, is the
first thing every ``QuotientKernel`` does, so every entry point rejects any other.
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    NumericalError,
    ShapeError,
    SingularSystemError,
    UndefinedQuotientError,
)
from .spectral import WindowSpec, as_pair, as_stack, centered, full_lag, make_window, zero_lag_index

__all__ = [
    "check_lambda",
    "QuotientKernel",
    "wiener_filter",
    "wiener_loss",
    "ti_distance",
    "pair_report",
    "concentration",
]

TI_CHUNK_ELEMENTS = 2**16  # spatial filter elements per tile of QuotientKernel's TI passes


def _tile_cells(cell: int) -> int:
    """How many cells of `cell` filter elements one TI tile holds (at least one)."""
    return max(1, TI_CHUNK_ELEMENTS // cell)


def check_lambda(lam: float) -> None:
    """ConfigError unless the stabilizer lambda is finite and >= 0: the one
    lambda rule, which every quotient kernel applies first."""
    if not (0 <= lam < math.inf):
        raise ConfigError(f"lambda must be finite and >= 0, got {lam}")


class QuotientKernel:
    """The spectral quotient against a fixed side, shared by every functional.

    ``fixed`` holds real planes whose trailing axes have extents ``shape``,
    behind any leading batch axes. Its half spectrum S = rfftn(fixed, s=2*shape)
    is taken once, and only K = conj(S)/D and lam/D are kept, D = |S|^2 + lam.
    The quotient is conjugate-symmetric, so the inverse real transform is
    exact and nothing imaginary is dropped. Padding is implied by the
    transform size. Filters and cotangents are in raw lag layout (zero lag
    at the origin corner); varying batches broadcast against the fixed one.
    Floating-point warnings are silenced inside: every non-finite result
    raises NumericalError instead. Every quotient spectrum K * X + L is
    one ``_quotient`` product, so ``filters``, ``filters_with_ti``,
    ``ti_bounds`` and ``ti_values_at`` round it alike at every size.

    ``_forward`` is the one forward transform and ``_inverse`` the one
    inverse, irfftn's own 1-D inverses; it is pruned there alone, for
    ``pullback``: each leading lag axis is cropped once it is inverted.
    ``concentrations`` (the trainer's diagnostic) reads each filter's
    zero-lag energy fraction from Q by Parseval and inverts nothing.

    ``rows(index)`` is the kernel of ``fixed[index]`` over the leading axis,
    sharing K and L with no transform, so a loop over subsets of one fixed
    set (the trainer's minibatches) transforms the set once. ``pullback``
    sums a broadcast varying side's gradient on the spectrum, before any
    inverse, and forms conj(K) as it multiplies: a kernel holds K and L alone.
    Every method that takes the varying side takes its ``spectrum`` as well,
    so a varying batch met by many kernels (the kNN's training blocks) is
    transformed once.

    A plane's TI value takes its mean from the DC bin and its spread from
    Parseval over the non-DC bins of the half spectrum, and reads only the
    maximum from the spatial domain (``_ti``). ``filters_with_ti`` gives
    them for a small batch. ``ti_bounds`` walks a large one in tiles of
    about TI_CHUNK_ELEMENTS spatial elements over its first two axes, stops
    the inverse after ``_unwind`` and bounds each plane's value from below,
    with no exact moments. ``ti_values_at`` finishes chosen planes only, so
    a search that needs only the smallest values (the kNN vote) inverts few
    filters whole; its values equal ``filters_with_ti``' bit for bit.
    """

    def __init__(self, fixed: np.ndarray, shape: tuple[int, ...], lam: float):
        check_lambda(lam)
        self.shape = tuple(shape)
        self.padded = full_lag(self.shape)
        self.axes = tuple(range(-len(self.shape), 0))
        if np.shape(fixed)[-len(self.shape):] != self.shape:
            raise ShapeError(f"fixed {np.shape(fixed)} does not end in extents {self.shape}")
        S = self._forward(fixed)
        with np.errstate(over="ignore", invalid="ignore"):
            den = S.real**2
            den += S.imag**2
            den += lam
        if not np.all(np.isfinite(den)):
            raise NumericalError("non-finite spectral power |S|^2 + lambda")
        if np.any(den == 0.0):
            raise SingularSystemError("zero denominator bin with lambda = 0")
        self.K = np.divide(np.conjugate(S, out=S), den, out=S)  # in place: S is not kept
        self.L = lam / den

    def rows(self, index) -> "QuotientKernel":
        """The kernel of ``fixed[index]``, `index` an index array or slice over the
        fixed side's leading axis. It shares this kernel's K and L (a slice
        views them, an index array copies its rows) and transforms nothing."""
        if self.K.ndim == len(self.shape):
            raise ShapeError("rows of a kernel need a leading batch axis on the fixed side")
        sub = object.__new__(QuotientKernel)
        sub.shape, sub.padded, sub.axes = self.shape, self.padded, self.axes
        sub.K, sub.L = self.K[index], self.L[index]
        return sub

    def filters(self, varying: np.ndarray) -> np.ndarray:
        """Raw-layout matching filters (*batch, *padded), varying side in the numerator."""
        return self._inverse(self._quotient(self.K, self.L, self.spectrum(varying)))

    def filters_with_ti(self, varying: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``filters``, the negative maximum of each standardized filter plane,
        shaped (*batch,), and a mask of the constant planes, whose value is 0
        by convention, from one forward and one inverse transform of
        `varying`. Untiled, so meant for a small batch such as one pair."""
        Q = self._quotient(self.K, self.L, self.spectrum(varying))
        v = self._inverse(Q)
        return (v, *self._ti(Q, v))

    @staticmethod
    def _quotient(K: np.ndarray, L: np.ndarray, X: np.ndarray) -> np.ndarray:
        """K * X + L, the one quotient product. Both factors are named, so it
        rounds one way at every size: NumPy may write a product into the
        buffer of an unnamed temporary factor, with the factors swapped."""
        with np.errstate(over="ignore", invalid="ignore"):
            Q = K * X
            Q += L
        return Q

    def spectrum(self, varying: np.ndarray) -> np.ndarray:
        """rfftn of the varying side on the padded grid. A complex `varying` is
        taken to be that spectrum already and is returned as it is, so every
        method here accepts a spectrum in place of its signals: a caller that
        meets several kernels of the same extents transforms them once."""
        spectral = np.iscomplexobj(varying)
        extents = self.K.shape[-len(self.shape):] if spectral else self.shape
        if np.shape(varying)[-len(self.shape):] != extents:
            raise ShapeError(f"varying {np.shape(varying)} does not end in extents {extents}")
        return varying if spectral else self._forward(varying)

    def ti_bounds(self, varying: np.ndarray) -> np.ndarray:
        """A lower bound on each plane's TI value, shaped (*batch,), with no
        exact moments and no real inverse.

        The batch is walked in tiles of about TI_CHUNK_ELEMENTS filter
        elements over its first two axes (whole rows of the second axis when
        one fits). Each tile holds Q with the half-spectrum axis first among
        the lag axes, so the leading lag axes, which ``_unwind`` inverts as
        ``irfftn`` does first, are contiguous: the spectrum of `varying` is
        transposed once, and each tile's slices of K and L in turn, so no
        whole copy of them is kept. With a = |Y| of that partial inverse
        and c = 2/w per half-spectrum bin, 1/w on the zero and Nyquist
        columns (w the padded last extent):

        * the real inverse of each row of Y is at most sum(c * a) over the
          row (the triangle inequality), so the plane's maximum is at most
          P, the largest row sum. The bound is tight for a spike filter, such as
          that of an exact translate, so P is raised by a relative 1e-9 to
          cover rounding;
        * sum(c * a^2) over the plane is its sum of squares (Parseval per
          row), so with N padded bins N^2 sigma^2 is at least
          N * (1 - eps) * sum(c * a^2) - |Q[0]|^2, the slack eps = 1e-10
          covering the rounding of the cancellation.

        The bound is -max(P - mu, 0) / sigma_lo with the exact mean
        mu = Q[0].real / N, and -inf where sigma_lo is not positive, which
        includes every constant plane. ``ti_values_at`` takes the exact
        moments of the planes it finishes.
        """
        rank = len(self.shape)
        N = math.prod(self.padded)
        c = self._row_weights
        batch, tiled, factors = self._leading(varying)
        # the transposed spectrum replaces the first, which is let go
        factors = [np.moveaxis(f, -1, -rank) for f in factors]
        factors[2] = np.ascontiguousarray(factors[2])
        n0, n1 = tiled[:2]
        cells = _tile_cells(N * math.prod(tiled[2:]))
        step1 = min(n1, cells)
        step0 = max(1, cells // step1)
        peak, mu, var_lo = (np.empty(tiled) for _ in range(3))  # row bound P, mean, N^2 sigma_lo^2
        for i in range(0, n0, step0):
            for j in range(0, n1, step1):
                tile = (slice(i, i + step0), slice(j, j + step1))
                Q = self._quotient(*(  # C-ordered factors, so Q is C-ordered too
                    np.ascontiguousarray(f[tuple(t if n > 1 else slice(None)
                                                 for t, n in zip(tile, f.shape))])
                    for f in factors
                ))
                with np.errstate(over="ignore", invalid="ignore"):
                    Y = self._unwind(Q, range(1 - rank, 0))
                    a = np.abs(Y).reshape(Y.shape[:-rank] + (len(c), -1))  # (..., bins, rows)
                    peak[tile] = (c @ a).max(axis=-1)
                    a *= a
                    dc = Q[(...,) + (0,) * rank]
                    mu[tile] = dc.real / N
                    var_lo[tile] = N * (1 - 1e-10) * (c @ a).sum(axis=-1) - abs(dc) ** 2
                del Q, Y, a, dc  # freed before the next tile's arrays are made
        peak, mu, var_lo = (x.reshape(batch) for x in (peak, mu, var_lo))
        if not np.all(np.isfinite(var_lo)):
            raise NumericalError("non-finite spectral power of the matching filter")
        with np.errstate(divide="ignore", invalid="ignore"):
            lower = -np.maximum(peak * (1 + 1e-9) - mu, 0.0) * N / np.sqrt(var_lo)
        return np.where(var_lo > 0.0, lower, -np.inf)

    def ti_values_at(self, varying: np.ndarray, index: tuple) -> np.ndarray:
        """The TI values of the planes at `index`, a pair of index arrays into
        the first two axes of the broadcast batch, shaped (p, *rest). Each
        plane's moments are taken here, from the same quotient bins as in
        ``filters_with_ti``, and summed over that plane alone, so each value
        equals ``filters_with_ti``' bit for bit. The p entries are inverted in
        chunks of at most TI_CHUNK_ELEMENTS / 2 filter elements: a chunk also
        holds its entries' gathered K, L and spectrum."""
        _, tiled, factors = self._leading(varying)
        step = _tile_cells(2 * math.prod(self.padded) * math.prod(tiled[2:]))
        values = np.empty((len(index[0]),) + tiled[2:])
        for start in range(0, len(values), step):
            pick = tuple(i[start : start + step] for i in index)
            Q = self._quotient(
                *(a[tuple(i if n > 1 else 0 for i, n in zip(pick, a.shape))] for a in factors)
            )
            values[start : start + step] = self._ti(Q)[0]
        return values

    def _leading(self, varying: np.ndarray) -> tuple[tuple, tuple, tuple]:
        """The broadcast batch of the fixed side and `varying`, that batch with
        length-1 axes put in front until it has two, and K, L and the spectrum
        of `varying`, each reshaped to the padded batch's rank."""
        rank = len(self.shape)
        X = self.spectrum(varying)
        batch = np.broadcast_shapes(self.K.shape[:-rank], X.shape[:-rank])
        lead = max(len(batch), 2)
        factors = tuple(
            a.reshape((1,) * (lead + rank - a.ndim) + a.shape) for a in (self.K, self.L, X)
        )
        return batch, (1,) * (lead - len(batch)) + batch, factors

    def _ti(self, Q: np.ndarray, v: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """TI values and the constant-plane mask of the filters v = irfftn(Q),
        inverted here unless given. ``_moments`` raises unless every bin of Q
        is finite, which bounds every filter value, so v needs no scan."""
        mu, sigma = self._moments(Q)
        v = self._inverse(Q, check=False) if v is None else v
        constant = sigma == 0.0  # its value -(max - mu) / inf is 0
        return -(v.max(axis=self.axes) - mu) / np.where(constant, np.inf, sigma), constant

    @cached_property
    def _column_weights(self) -> np.ndarray:
        """How many bins of the full spectrum each half-spectrum column stands
        for: 2, and 1 on the zero and Nyquist columns, their own mirror images."""
        weights = np.full(self.K.shape[-1], 2.0)
        weights[0] = weights[-1] = 1.0
        return weights

    @cached_property
    def _row_weights(self) -> np.ndarray:
        """The weights c of ``ti_bounds``' row bound and sum of squares."""
        return self._column_weights / self.padded[-1]

    @cached_property
    def _parseval_weights(self) -> np.ndarray:
        """Weights of the interleaved (real, imaginary) half-spectrum parts in
        ``_moments``: the column weights, and 0 at DC."""
        rank = len(self.shape)
        weights = np.broadcast_to(self._column_weights, self.K.shape[-rank:]).copy()
        weights[(0,) * rank] = 0.0
        return np.repeat(weights, 2, axis=-1).ravel()

    def concentrations(self, varying: np.ndarray) -> np.ndarray:
        """Each filter plane's zero-lag energy fraction v[0]^2 / sum(v^2), shaped
        (*batch,), from one forward transform of `varying` and no inverse.

        With N padded bins and w the column weights, N * v[0] = sum(w * Re Q)
        and N * sum(v^2) = sum(w * |Q|^2) (Parseval) over the half spectra Q
        of the filters. NumericalError unless every bin of Q is finite;
        ``zero_lag_fractions`` rejects an all-zero filter.
        """
        Q = self._quotient(self.K, self.L, self.spectrum(varying))
        w = self._column_weights
        lag = tuple(range(1 - len(self.shape), 0))  # the lag axes left once w reduces the last
        with np.errstate(over="ignore", invalid="ignore"):
            power = Q.real**2
            power += Q.imag**2
            sums = (power @ w).sum(axis=lag)
            zero = (Q.real @ w).sum(axis=lag)
        if not np.all(np.isfinite(sums)):
            raise NumericalError("non-finite spectral power of the matching filter")
        N = math.prod(self.padded)
        return zero_lag_fractions(zero / N, sums / N)

    def _moments(self, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and standard deviation of each spatial plane of the half spectra Q.

        With N padded bins the mean is Q[0].real / N (the DC bin) and the
        variance is sum(|Q|^2 over the other bins) / N^2 (Parseval), each
        half-spectrum bin counted twice unless it is its own mirror image
        (the zero and Nyquist columns). Nothing cancels, and a constant plane
        has spread exactly 0. Each plane's weighted squares are summed on
        their own, along its contiguous bins, so its moments do not depend on
        how many planes Q holds. Raises NumericalError unless every bin of Q
        is finite.
        """
        rank = len(self.shape)
        parts = np.ascontiguousarray(Q).view(np.float64)  # real and imaginary parts interleaved
        with np.errstate(over="ignore", invalid="ignore"):
            sq = (parts * parts).reshape(Q.shape[:-rank] + (-1,))
            sq *= self._parseval_weights
            sumsq = np.add.reduce(sq, axis=-1)
        dc = Q[(...,) + (0,) * rank]
        if not (np.all(np.isfinite(sumsq)) and np.all(np.isfinite(dc))):
            raise NumericalError("non-finite spectral power of the matching filter")
        N = math.prod(self.padded)
        return dc.real / N, np.sqrt(sumsq) / N

    def pullback(self, cotangent: np.ndarray, batch: tuple[int, ...] | None = None) -> np.ndarray:
        """Adjoint of ``filters``' linear part: raw-layout cotangent on the padded
        grid -> gradient on the unpadded extents. The multiplier is conj(K),
        formed inside the product, so a kernel keeps K and L alone.

        `batch` is the varying side's shape before its lag axes, of the same
        rank as the cotangent's, when ``filters`` broadcast it: the adjoint
        of that broadcast sums the axes where `batch` is 1 and the cotangent
        is not. The sum is taken on the spectrum, before the inverse, so the
        inverse runs once per entry of `batch`.
        """
        rank = len(self.shape)
        if np.shape(cotangent)[-rank:] != self.padded:
            raise ShapeError(f"cotangent {np.shape(cotangent)} does not end in {self.padded}")
        lead = np.shape(cotangent)[:-rank]
        summed = ()
        if batch is not None:
            if len(batch) != len(lead) or any(n not in (1, m) for n, m in zip(batch, lead)):
                raise ShapeError(f"varying batch {tuple(batch)} does not broadcast to {lead}")
            summed = tuple(i for i, (n, m) in enumerate(zip(batch, lead)) if n < m)
        G = self._forward(cotangent)
        with np.errstate(over="ignore", invalid="ignore"):
            # in place, conj(K) first: NumPy's complex multiply can round the
            # two factor orders apart, and `K * temporary` may swap them
            np.multiply(np.conj(self.K), G, out=G)
            if summed:
                G = G.sum(axis=summed, keepdims=True)
        return self._inverse(G, crop=True)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        """rfftn of the real planes `x` on the padded grid: the one forward transform."""
        with np.errstate(over="ignore", invalid="ignore"):
            return np.fft.rfftn(x, s=self.padded, axes=self.axes)

    def _unwind(self, Y: np.ndarray, axes, crop: bool = False) -> np.ndarray:
        """irfftn's leading steps: one ifft per lag axis in `axes`. With `crop`,
        each axis is cut to its unpadded extent as soon as it is inverted."""
        for axis, n, m in zip(axes, self.shape, self.padded):
            Y = np.fft.ifft(Y, m, axis)
            Y = Y[(...,) + (slice(0, n if crop else m),) + (slice(None),) * (-1 - axis)]
        return Y

    def _inverse(self, Q: np.ndarray, crop: bool = False, check: bool = True) -> np.ndarray:
        """irfftn of the half spectra Q on the padded grid: the one inverse.
        With `crop` it is pruned to the unpadded extents: each leading lag
        axis is cropped as soon as ``_unwind`` inverts it, so later inverses
        skip the dropped rows, and irfftn makes the same 1-D inverses, so the
        kept values are the full inverse's bit for bit. With `check`,
        NumericalError unless every value is finite."""
        lead = len(self.shape) - 1 if crop else 0
        with np.errstate(over="ignore", invalid="ignore"):
            Q = self._unwind(Q, self.axes[:lead], crop)
            out = np.fft.irfftn(Q, s=self.padded[lead:], axes=self.axes[lead:])
        if crop:
            out = out[..., : self.shape[-1]]
        if check and not np.isfinite(out).all():
            raise NumericalError("non-finite values in the matching filter or its pullback")
        return out


def wiener_filter(target, source, lam: float) -> np.ndarray:
    """Per-channel filter that convolves `source` to best approximate `target`,
    both shaped (C, *extents).

    Both inputs are padded to full-lag size internally; the result, shaped
    (C, *padded), lives on the centered lag grid of the padded extents.
    """
    target, source = as_pair(target, source)
    kernel = QuotientKernel(source, source.shape[1:], lam)
    return centered(kernel.filters(target))


def filter_identity_loss(
    kernel: QuotientKernel, filters: np.ndarray, w_raw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Loss 0.5 * sum((W * (v - delta))^2) over channels and lags per batch entry
    of the kernel's raw filters v = `filters` (*batch, C, *padded), and the
    whitened residual W * (v - delta), formed in place in `filters`.
    NumericalError unless every value is finite."""
    rank = len(kernel.shape)
    if w_raw.shape[-rank:] != kernel.padded:
        raise ShapeError(f"whitening extents {w_raw.shape[-rank:]} != padded extents {kernel.padded}")
    residual = filters
    residual[(...,) + (0,) * rank] -= 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        residual *= w_raw
        flat = residual.reshape(residual.shape[: -1 - rank] + (-1,))  # channels and lags
        values = 0.5 * np.einsum("...i,...i->...", flat, flat)  # no squared grid
    if not np.all(np.isfinite(values)):
        raise NumericalError("non-finite filter loss: the whitened residual overflows")
    return values, residual


def wiener_loss(prediction, target, whitening: WindowSpec, lam: float) -> float:
    """Half the squared whitened distance between the matching filter and the identity.

    The filter maps the target onto the prediction. Zero exactly when
    prediction == target; channels reduce by sum.
    """
    prediction, target = as_pair(prediction, target)
    kernel = QuotientKernel(target, target.shape[1:], lam)
    w_raw = make_window(whitening, target.shape[1:])
    return float(filter_identity_loss(kernel, kernel.filters(prediction), w_raw)[0])


def ti_distance(a, b, lam: float) -> float:
    """Negative maximum of the standardized matching filter.

    Sensitive to how focused the filter's energy is. At lambda = 0 it is
    blind to where the focus sits: a translate of either signal that stays
    inside the zero margin shifts the filter circularly and keeps the value.
    For lambda > 0 it is not translation-invariant: the lambda/D term of the
    filter stays at zero lag while the matched part moves with the shift, so
    the value changes with the shift. Lower means more similar; the
    self-distance -sqrt(nbins - 1) is the global minimum.
    Each plane's mean and spread come from the filter's spectrum (the DC bin
    and Parseval over the other bins); only the maximum is read from the
    spatial domain. See ``QuotientKernel.filters_with_ti``.
    """
    a, b = as_pair(a, b)
    return _mean_ti(*QuotientKernel(b, b.shape[1:], lam).filters_with_ti(a)[1:])


def _mean_ti(values: np.ndarray, constant: np.ndarray) -> float:
    if np.any(constant):
        warnings.warn("constant matching filter; distance defaulting to 0", RuntimeWarning)
    return float(np.mean(values))


def pair_report(prediction, target, whitening: WindowSpec, lam: float) -> dict[str, float]:
    """``wiener_loss``, ``ti_distance`` and the ``concentration`` of
    ``wiener_filter(prediction, target)`` from the target's one kernel and
    one filter of the prediction (``QuotientKernel.filters_with_ti``): two
    forward real transforms and one inverse, where the three functions take
    six and three. The loss, the TI value and the concentration equal
    theirs bit for bit."""
    prediction, target = as_pair(prediction, target)
    kernel = QuotientKernel(target, target.shape[1:], lam)
    raw, values, constant = kernel.filters_with_ti(prediction)
    focus = concentration(centered(raw))
    w_raw = make_window(whitening, target.shape[1:])
    return {
        "wiener_loss": float(filter_identity_loss(kernel, raw, w_raw)[0]),  # consumes raw
        "ti_distance": _mean_ti(values, constant),
        "filter_concentration": focus,
    }


def zero_lag_fractions(zero: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Each filter plane's squared energy fraction at zero lag, zero^2 / norms,
    from its zero-lag value and its squared norm, however they were taken:
    summed over the spatial plane (``concentration``, the Langevin energy) or
    read from its spectrum (``QuotientKernel.concentrations``).
    UndefinedQuotientError for an all-zero plane."""
    if (norms == 0.0).any():
        raise UndefinedQuotientError("zero-lag energy fraction undefined for an all-zero filter")
    return zero**2 / norms


def concentration(v) -> float:
    """Fraction of squared filter energy at the zero-lag bin, in [0, 1], averaged
    over channels, of centered filter planes (C, *extents) such as
    ``wiener_filter`` returns: zero lag sits at ``zero_lag_index(extents)``."""
    v = as_stack([v])[0]
    norms = (v**2).sum(axis=tuple(range(1, v.ndim)))
    return float(np.mean(zero_lag_fractions(v[(...,) + zero_lag_index(v.shape[1:])], norms)))
