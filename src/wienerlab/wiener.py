"""Data-matching full-lag filters and the comparison functionals built on them.

The matching filter between two equally shaped signals is the convolutional
filter v minimizing ||Y v - x||^2, where Y is circular convolution with the
padded source. ``QuotientKernel`` solves it as the spectral quotient
(conj(S)*X + lam) / (|S|^2 + lam) with real FFTs, O(N log N). Every filter,
loss, gradient, energy and TI distance in the library goes through it;
``wiener_filter`` is the centered single-pair wrapper. The dense circulant
solve that cross-checks it lives with the tests, apart from this module.

The filter depends on the varying signal only through the numerator, which
is linear in it, so a gradient is one adjoint pass through the fixed side's
kernel (``QuotientKernel.pullback``): the raw-layout per-lag cotangent is
carried back through the inverse real transform by multiplying with
conj(K) = S / (|S|^2 + lam), then cropped to the unpadded extents (the
adjoint of zero padding). ``loss_and_grad`` is the one loss path, over a
batch of varying signals (one signal is a batch of one); it forms the
filters, the whitened residual and the cotangent in the kernel's work
arrays and returns fresh arrays only. Derivation in docs/gradient_note.md.

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
    "loss_and_grad",
    "ti_distance",
    "concentration",
]

TI_CHUNK_ELEMENTS = 2**16  # spatial filter elements per tile of QuotientKernel's TI passes
WORK_ARRAYS = 8  # work arrays a kernel and its row views keep; the least recently used goes first

# the floating-point state of QuotientKernel's entry points, as a decorator: a
# non-finite result raises NumericalError there instead of warning
_quiet = np.errstate(over="ignore", invalid="ignore")


def _tile_cells(cell: int) -> int:
    """How many cells of `cell` filter elements one TI tile holds (at least one)."""
    return max(1, TI_CHUNK_ELEMENTS // cell)


def _half_extents(padded: tuple[int, ...]) -> tuple[int, ...]:
    """Extents of the half spectrum of a real transform on the grid `padded`."""
    return padded[:-1] + (padded[-1] // 2 + 1,)


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
    one ``_quotient`` product, so ``filters``, ``ti_values``,
    ``ti_bounds`` and ``ti_values_at`` round it alike at every size.

    ``_forward`` is the one forward transform, rfftn's own stages with the
    zero margin written before the complex stage, so no padded axis goes
    through NumPy's per-line copy; ``_inverse`` is the one inverse,
    irfftn's own 1-D inverses, run in the spectrum's buffer. It is pruned
    there alone, for ``pullback``: each leading lag axis is cropped once it
    is inverted.
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

    The step paths run in work arrays that a kernel keeps per batch shape
    (``_work``) and shares with its row views: ``pullback`` forms its
    spectrum there and returns a fresh gradient, and ``_work_filters``
    leaves the quotient and the filters there, for a step that is done with
    them before it returns (``loss_and_grad``, ``diffusion.energy_terms``).
    So a loop of steps on one kernel allocates no padded grid, and those two
    are not for use by two threads at once on one kernel. ``filters`` forms
    a fresh quotient per call.

    A plane's TI value takes its mean from the DC bin and its spread from
    Parseval over the non-DC bins of the half spectrum, and reads only the
    maximum from the spatial domain (``_ti``). ``ti_values`` gives
    them for a small batch. ``ti_bounds`` walks a large one in tiles of
    about TI_CHUNK_ELEMENTS spatial elements over its first two axes, stops
    the inverse after ``_unwind`` and bounds each plane's value from below,
    with no exact moments. ``ti_values_at`` finishes chosen planes only, so
    a search that needs only the smallest values (the kNN vote) inverts few
    filters whole; its values equal ``ti_values``' bit for bit.
    """

    @_quiet
    def __init__(self, fixed: np.ndarray, shape: tuple[int, ...], lam: float):
        check_lambda(lam)
        self.shape = tuple(shape)
        self.padded = full_lag(self.shape)
        self.half = _half_extents(self.padded)
        self.axes = tuple(range(-len(self.shape), 0))
        # where ``_forward`` writes a signal's rows, and the zero margin it zeroes
        # on each leading lag axis
        lead, rank = self.shape[:-1], len(self.shape)
        self._rows = (...,) + tuple(map(slice, lead)) + (slice(None),)
        self._margins = [
            (...,) + (slice(None),) * i + (slice(n, None),) + (slice(None),) * (rank - 1 - i)
            for i, n in enumerate(lead)
        ]
        if np.shape(fixed)[-len(self.shape):] != self.shape:
            raise ShapeError(f"fixed {np.shape(fixed)} does not end in extents {self.shape}")
        S = self._forward(fixed)
        den = S.real**2
        den += S.imag**2
        den += lam
        if not math.isfinite(den.max()):  # den >= 0, and a NaN propagates
            raise NumericalError("non-finite spectral power |S|^2 + lambda")
        if den.min() == 0.0:
            raise SingularSystemError("zero denominator bin with lambda = 0")
        self.K = np.divide(np.conjugate(S, out=S), den, out=S)  # in place: S is not kept
        self.L = lam / den
        self._arrays = {}  # (name, shape) -> work array, shared with the row views

    @staticmethod
    def plane_bytes(shape: tuple[int, ...]) -> int:
        """Bytes that K and L hold per fixed plane of extents `shape`, known
        before any transform: a complex and a real value per half-spectrum bin."""
        return 24 * math.prod(_half_extents(full_lag(shape)))

    def rows(self, index) -> "QuotientKernel":
        """The kernel of ``fixed[index]``, `index` an index array or slice over the
        fixed side's leading axis. It shares this kernel's K and L (a slice
        views them, an index array copies its rows) and transforms nothing."""
        if self.K.ndim == len(self.shape):
            raise ShapeError("rows of a kernel need a leading batch axis on the fixed side")
        sub = object.__new__(QuotientKernel)
        sub.__dict__.update(self.__dict__)  # the work arrays' dict included
        sub.K, sub.L = self.K[index], self.L[index]
        return sub

    def _work(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """The work array `name` of `shape`, made on first use and reused after,
        holding whatever its last user left. At most WORK_ARRAYS are kept, so
        a new one lets go of the least recently used."""
        key = (name, shape)
        work = self._arrays.pop(key, None)
        if work is None:
            if len(self._arrays) >= WORK_ARRAYS:
                del self._arrays[next(iter(self._arrays))]
            work = np.empty(shape, dtype)
        self._arrays[key] = work  # the most recently used last
        return work

    @_quiet
    def filters(self, varying: np.ndarray) -> np.ndarray:
        """Raw-layout matching filters (*batch, *padded), varying side in the numerator."""
        return self._inverse(self._quotient(self.K, self.L, self.spectrum(varying)))

    @_quiet
    def _work_filters(self, varying: np.ndarray) -> np.ndarray:
        """``filters``, written to the work array of their batch, which the
        next call overwrites. The quotient is formed in the work spectrum of
        the broadcast batch; a real `varying` of that batch is transformed
        straight into it and multiplied in place."""
        rank = len(self.shape)
        fixed, own = self.K.shape[:-rank], np.shape(varying)[:-rank]
        lead = own if own == fixed else np.broadcast_shapes(fixed, own)
        Q = self._work("spectrum", lead + self.half, np.complex128)
        X = self.spectrum(varying, out=Q if own == lead else None)
        Q = self._quotient(self.K, self.L, X, out=Q)
        return self._inverse(Q, out=self._work("filters", lead + self.padded))

    @_quiet
    def ti_values(self, varying: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The negative maximum of each standardized filter plane, shaped
        (*batch,), and a mask of the constant planes, whose value is 0 by
        convention, from one forward and one inverse transform of `varying`.
        Untiled, so meant for a small batch such as one pair."""
        return self._ti(self._quotient(self.K, self.L, self.spectrum(varying)))

    @staticmethod
    def _quotient(
        K: np.ndarray, L: np.ndarray, X: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """K * X + L, the one quotient product, into `out` if given (which may
        be X). K is always the first factor, so it rounds one way at every
        size: NumPy may write a product into the buffer of an unnamed
        temporary factor, with the factors swapped."""
        Q = np.multiply(K, X, out=out)
        Q += L
        return Q

    @_quiet
    def spectrum(self, varying: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """rfftn of the varying side on the padded grid, into `out` if given.
        A complex `varying` is taken to be that spectrum already and is
        returned as it is, so every method here accepts a spectrum in place
        of its signals: a caller that meets several kernels of the same
        extents transforms them once."""
        spectral = np.iscomplexobj(varying)
        extents = self.half if spectral else self.shape
        if np.shape(varying)[-len(self.shape):] != extents:
            raise ShapeError(f"varying {np.shape(varying)} does not end in extents {extents}")
        return varying if spectral else self._forward(varying, out)

    @_quiet
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
                dc = Q[(...,) + (0,) * rank].copy()  # read before Q is unwound in place
                Y = self._unwind(Q, range(1 - rank, 0))
                a = np.abs(Y).reshape(Y.shape[:-rank] + (len(c), -1))  # (..., bins, rows)
                peak[tile] = (c @ a).max(axis=-1)
                a *= a
                mu[tile] = dc.real / N
                var_lo[tile] = N * (1 - 1e-10) * (c @ a).sum(axis=-1) - abs(dc) ** 2
                del Q, Y, a, dc  # freed before the next tile's arrays are made
        peak, mu, var_lo = (x.reshape(batch) for x in (peak, mu, var_lo))
        if not np.all(np.isfinite(var_lo)):
            raise NumericalError("non-finite spectral power of the matching filter")
        with np.errstate(divide="ignore", invalid="ignore"):
            lower = -np.maximum(peak * (1 + 1e-9) - mu, 0.0) * N / np.sqrt(var_lo)
        return np.where(var_lo > 0.0, lower, -np.inf)

    @_quiet
    def ti_values_at(self, varying: np.ndarray, index: tuple) -> np.ndarray:
        """The TI values of the planes at `index`, a pair of index arrays into
        the first two axes of the broadcast batch, shaped (p, *rest). Each
        plane's moments are taken here, from the same quotient bins as in
        ``ti_values``, and summed over that plane alone, so each value
        equals ``ti_values``' bit for bit. The p entries are inverted in
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

    def _ti(self, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """TI values and the constant-plane mask of the filters v = irfftn(Q),
        inverted here, in Q's buffer. ``_moments`` raises unless every bin of
        Q is finite, which bounds every filter value, so v needs no scan."""
        mu, sigma = self._moments(Q)
        v = self._inverse(Q, check=False)
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

    @_quiet
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

    @_quiet
    def pullback(self, cotangent: np.ndarray, batch: tuple[int, ...] | None = None) -> np.ndarray:
        """Adjoint of ``filters``' linear part: raw-layout cotangent on the padded
        grid -> gradient on the unpadded extents. The product conj(K) * G is
        formed as conj(K * conj(G)) in the work spectrum G, which rounds the
        same, so a kernel keeps K and L alone and no conj(K) is made.

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
        G = self._forward(cotangent, self._work("spectrum", lead + self.half, np.complex128))
        np.conjugate(G, out=G)
        np.multiply(self.K, G, out=G)
        np.conjugate(G, out=G)
        if summed:
            G = G.sum(axis=summed, keepdims=True)
        return self._inverse(G, crop=True)

    def _forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """rfftn of the real planes `x` on the padded grid, into `out` if given:
        the one forward transform, in rfftn's own 1-D steps. The real
        transforms along the last axis fill the rows of `x`, the rows of the
        zero margin are zeroed, and the complex transforms down the leading
        lag axes run in place on rows already zero-filled, so NumPy pads no
        axis line by line. Each bin equals rfftn(x, s=padded)'s bit for bit."""
        rank = len(self.shape)
        if out is None:
            out = np.empty(np.shape(x)[:-rank] + self.half, np.complex128)
        signal = np.shape(x)[-1] == self.shape[-1]  # not a cotangent, already padded
        np.fft.rfft(x, self.padded[-1], out=out[self._rows] if signal else out)
        for margin in self._margins if signal else ():
            out[margin] = 0
        for axis in self.axes[-2::-1]:  # rfftn's order: the last leading axis first
            np.fft.fft(out, axis=axis, out=out)
        return out

    def _unwind(self, Y: np.ndarray, axes, crop: bool = False) -> np.ndarray:
        """irfftn's leading steps, in Y's own buffer: one ifft per lag axis in
        `axes`. With `crop`, each axis is cut to its unpadded extent as soon
        as it is inverted."""
        for axis, n, m in zip(axes, self.shape, self.padded):
            Y = np.fft.ifft(Y, m, axis, out=Y)
            if crop:
                Y = Y[(...,) + (slice(0, n),) + (slice(None),) * (-1 - axis)]
        return Y

    def _inverse(
        self, Q: np.ndarray, crop: bool = False, check: bool = True, out: np.ndarray | None = None
    ) -> np.ndarray:
        """irfftn of the half spectra Q on the padded grid, into `out` if given:
        the one inverse. Its complex steps (``_unwind``) overwrite Q, so a
        caller that reads Q again passes a copy. With `crop` it is pruned to
        the unpadded extents: each leading lag axis is cropped as soon as
        ``_unwind`` inverts it, so later inverses skip the dropped rows, and
        irfftn makes the same 1-D inverses, so the kept values are the full
        inverse's bit for bit. With `check`, NumericalError unless every
        value is finite."""
        Y = self._unwind(Q, self.axes[:-1], crop)
        v = np.fft.irfft(Y, self.padded[-1], out=out)
        if crop:
            v = v[..., : self.shape[-1]]
        if check and not np.isfinite(v).all():
            raise NumericalError("non-finite values in the matching filter or its pullback")
        return v


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
    if not np.isfinite(values).all():
        raise NumericalError("non-finite filter loss: the whitened residual overflows")
    return values, residual


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
    spatial domain. See ``QuotientKernel.ti_values``.
    """
    a, b = as_pair(a, b)
    values, constant = QuotientKernel(b, b.shape[1:], lam).ti_values(a)
    if np.any(constant):
        warnings.warn("constant matching filter; distance defaulting to 0", RuntimeWarning)
    return float(np.mean(values))


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
