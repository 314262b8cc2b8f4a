import re
import warnings

import numpy as np
import pytest
import hypothesis
from hypothesis import strategies as st

from oracles import OracleSizeError, delta_filter, wiener_filter_direct
from wienerlab.errors import (
    ConfigError,
    NumericalError,
    ShapeError,
    SingularSystemError,
    UndefinedQuotientError,
)
from wienerlab.spectral import WindowSpec, make_window
from wienerlab import wiener
from wienerlab.wiener import (
    QuotientKernel,
    check_lambda,
    concentration,
    ti_distance,
    wiener_filter,
    wiener_loss,
)


def random_signal(shape, seed):
    return np.random.default_rng(seed).random(shape)[None]


def margin_image(n, margin, seed):
    """Image with a zero border so translations never wrap in padded space."""
    img = np.zeros((n, n))
    img[: n - margin, : n - margin] = np.random.default_rng(seed).random((n - margin, n - margin))
    return img


def _lambda_entry_points():
    from wienerlab.diffusion import EnergyModel
    from wienerlab.knn import LabeledSet, evaluate_accuracy
    from wienerlab.trainer import TrainConfig

    x, y = random_signal((6, 6), 5), random_signal((6, 6), 6)
    w = WindowSpec("laplace", 2.0)
    pen = WindowSpec("inverted_laplace", 1.0)
    return {
        "QuotientKernel": lambda lam: QuotientKernel(x, (6, 6), lam),
        "wiener_filter": lambda lam: wiener_filter(x, y, lam),
        "wiener_loss": lambda lam: wiener_loss(x, y, w, lam),
        "ti_distance": lambda lam: ti_distance(x, y, lam),
        "pair_report": lambda lam: wiener.pair_report(x, y, w, lam),
        "EnergyModel": lambda lam: EnergyModel(y[None], pen, 1.0, lam),
        "evaluate_accuracy": lambda lam: evaluate_accuracy(
            LabeledSet(y[None], [0]), LabeledSet(x[None], [0]), 1, "wiener_ti", lam
        ),
        "TrainConfig": lambda lam: TrainConfig(lam=lam),
    }


LAMBDA_ENTRY_POINTS = _lambda_entry_points()


class TestWienerFilter:
    @pytest.mark.parametrize("lam", [1e-3, 1.0, 250.0])
    def test_identity_gives_delta(self, lam):
        y = random_signal((9, 9), 10)
        v = wiener_filter(y, y, lam)
        assert np.abs(v - delta_filter(v.shape[1:])).max() < 1e-10

    def test_translation_gives_shifted_delta(self):
        img = margin_image(16, 5, 11)
        y = img[None]
        x = np.roll(img, (2, 4), axis=(0, 1))[None]
        v = wiener_filter(x, y, 1e-12)
        expected = np.roll(delta_filter(v.shape[1:]), (2, 4), axis=(1, 2))
        assert np.abs(v - expected).max() < 1e-9

    def test_matches_direct_oracle_1d(self):
        rng = np.random.default_rng(12)
        for lam in (0.5,):
            n = 12
            x = rng.random(n)[None]
            y = rng.random(n)[None]
            vf = wiener_filter(x, y, lam)
            vd = wiener_filter_direct(x, y, lam)
            scale = np.abs(vd).max()
            assert np.abs(vf - vd).max() / scale < 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            wiener_filter(random_signal((4, 4), 0), random_signal((5, 5), 1), 1.0)

    def test_lambda_zero_zero_bin_is_singular(self):
        y = np.zeros((1, 8))
        x = random_signal((8,), 3)
        with pytest.raises(SingularSystemError):
            wiener_filter(x, y, 0.0)

    def test_lambda_zero_zero_bin_is_one_error_class_everywhere(self):
        # filter, loss, gradient, energy and kNN all share the kernel's check
        from wienerlab.diffusion import EnergyModel
        from wienerlab.gradients import loss_and_grad
        from wienerlab.knn import LabeledSet, evaluate_accuracy

        y = np.zeros((1, 8))
        x = random_signal((8,), 3)
        lam = 0.0
        w = WindowSpec("laplace", 2.0)
        pen = WindowSpec("inverted_laplace", 1.0)
        calls = [
            lambda: wiener_loss(x, y, w, lam),
            lambda: loss_and_grad(
                QuotientKernel(y, y.shape[1:], lam), x, make_window(w, y.shape[1:])
            ),
            lambda: EnergyModel(y[None], pen, 1.0, lam),
            lambda: evaluate_accuracy(
                LabeledSet(y[None], [0]), LabeledSet(x[None], [0]), 1, "wiener_ti", lam
            ),
        ]
        for call in calls:
            with pytest.raises(SingularSystemError):
                call()

    def test_overflowing_finite_input_is_numerical(self):
        # |S|^2 overflows for finite inputs near 1e200: a numerical failure, not a config error
        big = np.full((1, 8), 1e200)
        with pytest.raises(NumericalError):
            wiener_filter(random_signal((8,), 4), big, 1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_invalid_lambda_rejected(self, lam):
        with pytest.raises(ConfigError, match=re.escape(f"lambda must be finite and >= 0, got {lam}")):
            check_lambda(lam)

    @pytest.mark.parametrize("entry", sorted(LAMBDA_ENTRY_POINTS))
    @pytest.mark.parametrize("lam", [-0.5, float("nan"), float("inf")])
    def test_invalid_lambda_is_a_config_error_at_every_entry_point(self, entry, lam):
        # the kernel applies the rule first: a negative lambda would build a
        # kernel, and a non-finite one would end in NumericalError
        with pytest.raises(ConfigError, match="lambda must be finite and >= 0"):
            LAMBDA_ENTRY_POINTS[entry](lam)

    def test_multichannel_filters_are_per_plane(self):
        rng = np.random.default_rng(13)
        planes = rng.random((3, 6, 6))
        v = wiener_filter(planes, planes, 1.0)
        assert v.shape == (3, 12, 12)
        for c in range(3):
            single = wiener_filter(planes[c][None], planes[c][None], 1.0)
            np.testing.assert_allclose(v[c], single[0], atol=1e-14)


class TestDirectOracle:
    def test_identity_any_lambda(self):
        y = random_signal((6,), 20)
        v = wiener_filter_direct(y, y, 3.0)
        assert np.abs(v - delta_filter(v.shape[1:])).max() < 1e-10

    def test_size_cap(self):
        big = random_signal((64, 64), 21)  # padded 128x128 = 16384 > 4096
        with pytest.raises(OracleSizeError):
            wiener_filter_direct(big, big, 1.0)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 250.0])
    def test_oracle_equivalence_1d_sweep(self, lam):
        rng = np.random.default_rng(22)
        for _ in range(5):
            n = int(rng.integers(8, 33))
            x = rng.random(n)[None]
            y = rng.random(n)[None]
            vf = wiener_filter(x, y, lam)
            vd = wiener_filter_direct(x, y, lam)
            assert np.abs(vf - vd).max() / np.abs(vd).max() < 1e-8

    def test_oracle_equivalence_2d(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            x = rng.random((6, 6))[None]
            y = rng.random((6, 6))[None]
            vf = wiener_filter(x, y, 1.0)
            vd = wiener_filter_direct(x, y, 1.0)
            assert np.abs(vf - vd).max() / np.abs(vd).max() < 1e-8


def rayleigh_quotient(v: np.ndarray, penalty: np.ndarray) -> float:
    """The dataset energy's penalty quotient ||penalty * v||^2 / ||v||^2 of raw
    filter planes (channels, *padded), averaged over channels, formed as
    gradients._energy_chunk forms it: over norms that
    wiener.zero_lag_fractions has checked, rejecting an all-zero filter."""
    axes = tuple(range(1, v.ndim))
    zero = (...,) + (0,) * len(axes)
    norms = (v**2).sum(axis=axes, keepdims=True)
    wiener.zero_lag_fractions(v[zero], norms[zero])
    return float(np.mean(((penalty * v) ** 2).sum(axis=axes, keepdims=True) / norms))


class TestRayleighQuotient:
    def test_delta_with_zero_center_penalty_is_zero(self):
        v = np.zeros((1, 8, 8))
        v[0, 0, 0] = 1.0  # the raw identity spike
        pen = make_window(WindowSpec("inverted_laplace", b=2.0), (4, 4))
        assert rayleigh_quotient(v, pen) == 0.0

    def test_one_hot_off_center(self):
        v = np.zeros((1, 8))
        v[0, 2] = 2.5  # lag +2
        pen = make_window(WindowSpec("inverted_laplace", b=2.0), (4,))
        expect = (1.0 - np.exp(-1.0)) ** 2
        assert rayleigh_quotient(v, pen) == pytest.approx(expect, rel=1e-12)

    def test_two_bin_example(self):
        v = np.array([[1.0, 1.0]])
        pen = np.array([0.0, 0.7])
        assert rayleigh_quotient(v, pen) == pytest.approx(0.7**2 / 2)

    def test_zero_filter_undefined(self):
        with pytest.raises(UndefinedQuotientError):
            rayleigh_quotient(np.zeros((1, 4)), np.ones(4))

    @hypothesis.given(c=st.floats(-10, 10).filter(lambda c: abs(c) > 1e-3), seed=st.integers(0, 99))
    def test_scale_invariance(self, c, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((1, 12))
        pen = make_window(WindowSpec("inverted_laplace", b=1.5), (6,))
        assert rayleigh_quotient(c * v, pen) == pytest.approx(rayleigh_quotient(v, pen), rel=1e-9)


class TestWienerLoss:
    def test_zero_at_equality(self):
        y = random_signal((8, 8), 30)
        w = WindowSpec("laplace", 2.0, 0.1)
        assert wiener_loss(y, y, w, 5.0) == pytest.approx(0.0, abs=1e-25)

    def test_shift_by_three_frozen_value(self):
        # translated pair -> filter is a delta at lag 3; with inverted_laplace(b=2)
        # whitening the loss is (1 - exp(-1.5))^2 / 2 = 0.30176...; frozen after
        # computing it with both the fast path and the quadrature-free formula
        rng = np.random.default_rng(31)
        y = np.zeros(16)
        y[:12] = rng.random(12)
        x = np.roll(y, 3)
        w = WindowSpec("inverted_laplace", b=2.0)
        loss = wiener_loss(x[None], y[None], w, 1e-12)
        assert loss == pytest.approx(0.5 * (1.0 - np.exp(-1.5)) ** 2, abs=1e-9)
        assert loss == pytest.approx(0.301763, abs=5e-7)

    def test_nonnegative_and_zero_only_at_delta(self):
        rng = np.random.default_rng(32)
        w = WindowSpec("laplace", 2.0, 0.1)
        for _ in range(50):
            a = rng.random((6, 6))[None]
            b = rng.random((6, 6))[None]
            val = wiener_loss(a, b, w, 1.0)
            assert val >= 0.0
            assert val > 1e-8  # random pairs never produce the identity filter


class TestTiDistance:
    def test_self_distance_hits_global_minimum(self):
        y = random_signal((12, 12), 40)
        val = ti_distance(y, y, 1.0)
        nbins = 24 * 24
        assert val == pytest.approx(-np.sqrt(nbins - 1), rel=1e-9)

    def test_translation_invariance(self):
        img = margin_image(16, 5, 41)
        y = img[None]
        lam = 1e-12
        base = ti_distance(y, y, lam)
        for k in [(1, 0), (0, 3), (4, 4), (5, 2)]:
            shifted = np.roll(img, k, axis=(0, 1))[None]
            assert ti_distance(shifted, y, lam) == pytest.approx(base, abs=1e-9)

    def test_translates_keep_the_value_only_at_lambda_zero(self):
        # the README's 16x16 pair: at lambda = 0 a translate inside the zero
        # margin shifts the filter circularly and reads the pair's own value;
        # at lambda = 1 the lambda/D term stays at zero lag while the matched
        # part moves, so the value drifts with the shift
        plane = np.zeros((16, 16))
        plane[:12, :12] = np.random.default_rng(0).random((12, 12))
        y = plane[None]

        def values(lam):
            moved = [
                ti_distance(np.roll(plane, s, axis=(0, 1))[None], y, lam)
                for s in [(2, 3), (1, 0), (4, 4), (0, 1)]
            ]
            return ti_distance(y, y, lam), np.array(moved)

        base, moved = values(0.0)
        assert base == pytest.approx(-np.sqrt(32 * 32 - 1), rel=1e-12)
        np.testing.assert_allclose(moved, base, rtol=1e-12)
        base, moved = values(1.0)
        assert base == pytest.approx(-np.sqrt(32 * 32 - 1), rel=1e-12)
        assert np.all(moved - base > 2.0), (base, moved)  # -29.2 to -29.8 against -31.98
        assert np.ptp(moved) > 0.5, moved  # and each shift reads its own value

    def test_noise_is_farther_than_self(self):
        rng = np.random.default_rng(42)
        lam = 1.0
        wins = 0
        for _ in range(100):
            y = rng.random((12, 12))[None]
            noise = rng.random((12, 12))[None]
            wins += int(ti_distance(y, y, lam) <= ti_distance(noise, y, lam))
        assert wins >= 99

    def test_constant_filter_returns_zero_with_warning(self):
        # all-zero target with lam=0 produces the all-zero (constant) filter
        a = np.zeros((1, 8))
        b = random_signal((8,), 43)
        with pytest.warns(RuntimeWarning):
            val = ti_distance(a, b, 0.0)
        assert val == 0.0


def spatial_ti_values(v: np.ndarray, rank: int) -> np.ndarray:
    """Reference: standardize each filter plane in the spatial domain."""
    flat = v.reshape(v.shape[: v.ndim - rank] + (-1,))
    return -(flat.max(axis=-1) - flat.mean(axis=-1)) / flat.std(axis=-1)


def every_plane(kernel: QuotientKernel, varying: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``ti_values_at`` of every plane of the broadcast batch, shaped like `values`."""
    lead = (1,) * max(0, 2 - values.ndim) + values.shape
    index = tuple(i.ravel() for i in np.indices(lead[:2]))
    return kernel.ti_values_at(varying, index).reshape(values.shape)


class TestTiValues:
    @pytest.mark.parametrize(
        "fixed_shape, varying_shape, extents",
        [
            ((7, 1, 10), (1, 10), (10,)),  # rank 1
            ((11, 1, 6, 5), (1, 6, 5), (6, 5)),  # rank 2
            ((9, 3, 4, 6), (3, 4, 6), (4, 6)),  # multi-channel
            ((2, 4, 6), (5, 2, 4, 6), (4, 6)),  # the varying side has the leading batch axis
        ],
    )
    def test_chunks_change_no_bit_and_values_match_the_spatial_reference(
        self, monkeypatch, fixed_shape, varying_shape, extents
    ):
        rng = np.random.default_rng(50)
        kernel = QuotientKernel(rng.random(fixed_shape), extents, 0.5)
        varying = rng.random(varying_shape)
        _, whole, whole_flat = kernel.filters_with_ti(varying)
        bounds = kernel.ti_bounds(varying)
        assert every_plane(kernel, varying, whole).tobytes() == whole.tobytes()
        # a chunk of 2 leading rows at most, and no set size above is a multiple of it
        padded = int(np.prod(kernel.padded))
        monkeypatch.setattr(wiener, "TI_CHUNK_ELEMENTS", 2 * padded * int(np.prod(whole.shape[1:])))
        assert kernel.ti_bounds(varying).tobytes() == bounds.tobytes()
        assert every_plane(kernel, varying, whole).tobytes() == whole.tobytes()
        reference = spatial_ti_values(kernel.filters(varying), len(extents))
        assert whole.shape == reference.shape
        np.testing.assert_allclose(whole, reference, rtol=1e-12, atol=0)
        assert not whole_flat.any()

    def test_tiles_over_both_leading_axes_change_no_bit(self, monkeypatch):
        # fixed (7, 1, C) against varying (5, C): batch (7, 5, C), tiled over 7 and 5
        rng = np.random.default_rng(54)
        fixed = rng.random((7, 2, 4, 6))
        kernel = QuotientKernel(fixed[:, np.newaxis], (4, 6), 0.5)
        varying = rng.random((5, 2, 4, 6))
        whole = kernel.filters_with_ti(varying)[1]
        assert whole.shape == (7, 5, 2)
        bounds = kernel.ti_bounds(varying)
        cell = 2 * int(np.prod(kernel.padded))
        for budget in (3 * 5 * cell, 2 * cell, cell):  # 3x5, 1x2 and 1x1 tiles
            monkeypatch.setattr(wiener, "TI_CHUNK_ELEMENTS", budget)
            assert kernel.ti_bounds(varying).tobytes() == bounds.tobytes()
            assert every_plane(kernel, varying, whole).tobytes() == whole.tobytes()
        for i, j in [(0, 0), (3, 4), (6, 2)]:  # a plane's value is its single-pair value
            single = QuotientKernel(fixed[i], (4, 6), 0.5).filters_with_ti(varying[j])[1]
            np.testing.assert_array_equal(single, whole[i, j])

    @pytest.mark.parametrize("shape", [(12,), (6, 5), (4, 7)])
    def test_spectral_moments_match_spatial_mean_and_std(self, shape):
        rng = np.random.default_rng(51)
        kernel = QuotientKernel(rng.random(shape), shape, 1.0)
        filters = rng.standard_normal((6,) + kernel.padded) + 3.0
        Q = np.fft.rfftn(filters, axes=kernel.axes)
        mu, sigma = kernel._moments(Q)
        flat = filters.reshape(6, -1)
        np.testing.assert_allclose(mu, flat.mean(axis=1), rtol=1e-12, atol=0)
        np.testing.assert_allclose(sigma, flat.std(axis=1), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shape", [(6, 5), (96, 96), (128, 100)])
    def test_moments_of_a_plane_do_not_depend_on_the_planes_beside_it(self, shape):
        # half spectra of 144, 37248 and 51712 floats a plane: below and
        # above the 8192-element blocks NumPy may split a reduction into
        rng = np.random.default_rng(58)
        kernel = QuotientKernel(rng.random(shape), shape, 1.0)
        Q = np.fft.rfftn(rng.standard_normal((5,) + kernel.padded) + 0.5, axes=kernel.axes)
        mu, sigma = kernel._moments(Q)
        parts = [(Q[i], i) for i in range(5)] + [(Q[:2], slice(0, 2)), (Q[2:], slice(2, 5))]
        for part, at in parts:
            alone = kernel._moments(part)
            assert alone[0].tobytes() == mu[at].tobytes()
            assert alone[1].tobytes() == sigma[at].tobytes()
        gathered = kernel._moments(Q[[4, 1, 3]])
        assert gathered[1].tobytes() == sigma[[4, 1, 3]].tobytes()

    @pytest.mark.parametrize("bad_bin", [(0, 0), (0, 3), (2, 1), (4, 3)])
    def test_any_non_finite_bin_raises(self, bad_bin):
        # the DC bin carries no Parseval weight, so it is checked on its own;
        # a finite Q is what lets ti_values_at skip scanning the spatial filter
        kernel = QuotientKernel(np.ones((4, 6)), (4, 6), 1.0)
        Q = np.ones((2,) + kernel.K.shape, dtype=complex)
        Q[(1,) + bad_bin] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                kernel._moments(Q)

    def test_constant_plane_is_zero_and_flagged(self):
        kernel = QuotientKernel(np.random.default_rng(52).random((3, 1, 8)), (8,), 0.0)
        _, values, constant = kernel.filters_with_ti(np.zeros((1, 8)))
        assert constant.shape == (3, 1) and constant.all()
        assert np.all(values == 0.0)

    def test_overflowing_query_raises_numerical_error(self):
        kernel = QuotientKernel(np.random.default_rng(53).random((4, 1, 6, 6)), (6, 6), 1.0)
        query = np.full((1, 6, 6), 1e200)
        query[0, 0, 0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                kernel.filters_with_ti(query)
            with pytest.raises(NumericalError):
                kernel.ti_values_at(query, (np.arange(4), np.zeros(4, int)))


class TestTiBounds:
    @pytest.mark.parametrize(
        "fixed_shape, varying_shape, extents",
        [
            ((7, 1, 1, 10), (4, 1, 10), (10,)),  # rank 1
            ((11, 1, 1, 6, 5), (3, 1, 6, 5), (6, 5)),  # rank 2
            ((9, 1, 3, 4, 6), (5, 3, 4, 6), (4, 6)),  # multi-channel
        ],
    )
    def test_bounds_below_values_and_exact_values_at_any_index(
        self, monkeypatch, fixed_shape, varying_shape, extents
    ):
        rng = np.random.default_rng(55)
        kernel = QuotientKernel(rng.random(fixed_shape), extents, 0.5)
        varying = rng.random(varying_shape)
        cell = int(np.prod(kernel.padded)) * varying_shape[1]
        # the library's budget; tiles of 1 x 3 pairs and pass-2 chunks of 1;
        # pass-2 chunks of 3, which do not divide the 8 pairs picked below
        for budget in (None, 3 * cell, 6 * cell):
            if budget is not None:
                monkeypatch.setattr(wiener, "TI_CHUNK_ELEMENTS", budget)
            values = kernel.filters_with_ti(varying)[1]
            lower = kernel.ti_bounds(varying)
            assert lower.shape == values.shape
            assert np.all(lower <= values)
            rows = rng.integers(0, fixed_shape[0], size=8)
            cols = rng.integers(0, varying_shape[0], size=8)
            at = kernel.ti_values_at(varying, (rows, cols))
            assert at.tobytes() == values[rows, cols].tobytes()

    @pytest.mark.parametrize("extents, shift", [((8,), (3,)), ((6, 8), (2, 3))])
    def test_bound_is_tight_for_a_spike_filter(self, extents, shift):
        # an exact translate: with lambda 0 the filter is a shifted unit spike
        rng = np.random.default_rng(56)
        plane = np.zeros(extents)
        plane[tuple(slice(0, e // 2) for e in extents)] = 0.5 + rng.random(
            tuple(e // 2 for e in extents)
        )
        kernel = QuotientKernel(plane[np.newaxis], extents, 0.0)
        moved = np.roll(plane, shift, axis=tuple(range(len(extents))))[np.newaxis]
        values = kernel.filters_with_ti(moved)[1]
        lower = kernel.ti_bounds(moved)
        assert np.all(lower <= values)
        np.testing.assert_allclose(lower, values, rtol=1e-8)

    def test_constant_plane_bound_is_minus_infinity(self):
        kernel = QuotientKernel(np.random.default_rng(57).random((3, 1, 8)), (8,), 0.0)
        lower = kernel.ti_bounds(np.zeros((1, 8)))
        constant = kernel.filters_with_ti(np.zeros((1, 8)))[2]
        assert np.all(lower == -np.inf) and np.all(constant)
        index = (np.arange(3), np.zeros(3, int))
        at = kernel.ti_values_at(np.zeros((1, 8)), index)
        assert np.all(at == 0.0)


    def test_a_spectrum_stands_in_for_its_signals(self):
        # the kNN transforms its queries once and meets every training block
        # with their spectrum: each TI result is the same bits
        rng = np.random.default_rng(59)
        kernel = QuotientKernel(rng.random((6, 1, 2, 5, 6)), (5, 6), 0.5)
        varying = rng.random((4, 2, 5, 6))
        X = kernel.spectrum(varying)
        assert X.shape == (4, 2, 10, 7) and kernel.spectrum(X) is X
        index = (np.array([5, 0, 3]), np.array([1, 3, 0]))
        assert kernel.ti_bounds(X).tobytes() == kernel.ti_bounds(varying).tobytes()
        assert (kernel.ti_values_at(X, index).tobytes()
                == kernel.ti_values_at(varying, index).tobytes())
        with pytest.raises(ShapeError):  # a spectrum on another grid
            kernel.spectrum(X[..., :6])


class TestConcentration:
    def test_delta_is_one(self):
        assert concentration(delta_filter((8, 8))) == pytest.approx(1.0)

    def test_uniform_is_one_over_n(self):
        assert concentration(np.full((1, 10), 0.3)) == pytest.approx(0.1)

    def test_shifted_delta_is_zero(self):
        data = np.zeros((1, 8))
        data[0, 2] = 1.0
        assert concentration(data) == 0.0

    def test_zero_filter_undefined(self):
        with pytest.raises(UndefinedQuotientError):
            concentration(np.zeros((1, 8)))


class TestSpectralConcentrations:
    @pytest.mark.parametrize("extents", [(1,), (7,), (9,), (5, 7), (3, 9), (1, 5)])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 1e8])
    def test_equal_the_spatial_fractions_of_the_filters(self, extents, channels, lam):
        # Parseval on the quotient spectra against the zero-lag value and the
        # squared norm summed over each inverted filter plane
        rng = np.random.default_rng(64)
        kernel = QuotientKernel(rng.random((4, channels) + extents), extents, lam)
        varying = rng.random((4, channels) + extents)
        v = kernel.filters(varying)
        want = wiener.zero_lag_fractions(
            v[(...,) + (0,) * len(extents)], (v**2).sum(axis=kernel.axes)
        )
        got = kernel.concentrations(varying)
        assert got.shape == (4, channels)
        np.testing.assert_allclose(got, want, rtol=1e-9)


class TestKernelRows:
    @pytest.mark.parametrize(
        "fixed_shape, extents",
        [((10, 2, 5, 6), (5, 6)), ((10, 1, 9), (9,)), ((10, 3, 4, 7), (4, 7))],
    )
    @pytest.mark.parametrize(
        "index",
        [np.array([4, 0, 6, 2]), np.array([9]), np.arange(10)[::-1], slice(3, 7), slice(8, 12)],
        ids=["array", "one-row", "reversed", "slice", "short-last-slice"],
    )
    def test_rows_equal_a_kernel_built_on_those_rows(self, fixed_shape, extents, index):
        rng = np.random.default_rng(60)
        fixed = rng.random(fixed_shape)
        sub = QuotientKernel(fixed, extents, 0.4).rows(index)
        ref = QuotientKernel(fixed[index], extents, 0.4)
        np.testing.assert_array_equal(sub.K, ref.K)
        np.testing.assert_array_equal(sub.L, ref.L)
        varying = rng.random(fixed[index].shape)
        v = sub.filters(varying)
        np.testing.assert_array_equal(v, ref.filters(varying))
        np.testing.assert_array_equal(sub.concentrations(varying), ref.concentrations(varying))
        g = rng.random(v.shape)
        np.testing.assert_array_equal(sub.pullback(g), ref.pullback(g))
        for got, want in zip(sub.filters_with_ti(varying), ref.filters_with_ti(varying)):
            np.testing.assert_array_equal(got, want)

    def test_rows_need_a_leading_axis(self):
        with pytest.raises(ShapeError):
            QuotientKernel(np.ones(6), (6,), 1.0).rows(slice(0, 1))

    @pytest.mark.parametrize("shape", [(128, 128), (96, 96), (12, 10), (9,)])
    def test_filters_invert_the_product_of_named_factors(self, shape):
        # 96 x 96 and up pad to a half spectrum past NumPy's 256 KB temporary-
        # elision size, where `K * <unnamed transform>` may swap the factors
        rng = np.random.default_rng(63)
        kernel = QuotientKernel(rng.random((1, *shape)), shape, 0.3)
        x = rng.random((1, *shape))
        X = np.fft.rfftn(x, s=kernel.padded, axes=kernel.axes)
        Q = kernel.K * X
        Q += kernel.L
        want = np.fft.irfftn(Q, s=kernel.padded, axes=kernel.axes)
        assert kernel.filters(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("planes", [(3, 5, 6), (1, 96, 96), (2, 9)])
    def test_filters_with_ti_is_filters_and_ti_values_at(self, planes):
        rng = np.random.default_rng(61)
        kernel = QuotientKernel(rng.random(planes), planes[1:], 0.3)
        varying = rng.random(planes)
        v, values, constant = kernel.filters_with_ti(varying)
        np.testing.assert_array_equal(v, kernel.filters(varying))
        assert every_plane(kernel, varying, values).tobytes() == values.tobytes()
        reference = spatial_ti_values(v, len(planes) - 1)
        np.testing.assert_allclose(values, reference, rtol=1e-12, atol=0)
        assert values.shape == constant.shape and not constant.any()

    @pytest.mark.parametrize(
        "shape, channels",
        [
            ((12, 10), 1), ((7,), 2), ((96, 96), 1), ((128, 100), 1), ((30, 20), 3),
            ((96, 96), 2), ((128, 100), 3), ((150, 97), 2),
        ],
    )
    def test_pair_report_equals_the_pairwise_functionals(self, shape, channels):
        # the multichannel planes at 96^2 and above differed in the last bits
        # while the moments' reduction depended on the number of planes
        rng = np.random.default_rng(62)
        n = int(np.prod(shape)) * channels
        a = rng.random(n).reshape((channels, *shape))
        b = rng.random(n).reshape((channels, *shape))
        lam = 0.6
        whitening = WindowSpec("laplace", 2.0, 0.2)
        report = wiener.pair_report(a, b, whitening, lam)
        assert report == {
            "wiener_loss": wiener_loss(a, b, whitening, lam),
            "ti_distance": ti_distance(a, b, lam),
            "filter_concentration": concentration(wiener_filter(a, b, lam)),
        }
