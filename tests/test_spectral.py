import re
import tracemalloc
import warnings

import numpy as np
import pytest
import hypothesis
from hypothesis import strategies as st

from oracles import pad_to_full_lag
from wienerlab.errors import ConfigError, NumericalError, ShapeError
from wienerlab.diffusion import EnergyModel
from wienerlab.knn import LabeledSet
from wienerlab.spectral import (
    WindowSpec,
    as_pair,
    as_stack,
    centered,
    make_window,
)
from wienerlab.trainer import DenseAutoencoder, TrainConfig, train
from wienerlab.wiener import QuotientKernel, concentration


class TestAsPair:
    def test_signals_come_back_read_only_in_float64_with_their_values(self):
        arr = np.arange(12).reshape(2, 2, 3)  # integers, two channels
        a, b = as_pair(arr, arr.tolist())
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape == (2, 2, 3)
        assert not (a.flags.writeable or b.flags.writeable)
        np.testing.assert_array_equal(a, arr)
        assert b[1, 1, 2] == 11.0

    @pytest.mark.parametrize("other", [np.zeros((1, 3, 2)), np.zeros((2, 2, 3)), np.zeros((1, 6))])
    def test_shape_mismatch_rejected_naming_both_shapes(self, other):
        with pytest.raises(ShapeError, match=rf"\(1, 2, 3\) vs {re.escape(str(other.shape))}"):
            as_pair(np.zeros((1, 2, 3)), other)

    @pytest.mark.parametrize("bad, error", [
        (np.array([[1.0, np.nan]]), ConfigError),
        (np.array([[np.inf, 0.0]]), ConfigError),
        (np.zeros(2), ShapeError),  # no channel axis
        (np.zeros((1, 1, 1, 2)), ShapeError),  # rank-3 extents
        (np.zeros((1, 0)), ShapeError),  # empty extent
        ([[1.0], [1.0, 2.0]], ShapeError),  # ragged
    ])
    def test_each_side_is_checked_as_a_stack_of_one(self, bad, error):
        good = np.zeros((1, 2))
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(error):
                as_pair(*pair)


# the malformed stacks of test_knn's LabeledSet test, with the class it raises
MALFORMED_STACKS = [
    (np.ones((0, 1, 3, 3)), ConfigError),  # zero samples
    (np.full((2, 1, 3), np.nan), ConfigError),  # non-finite
    (np.full((2, 1, 3), np.inf), ConfigError),
    (np.ones((2, 3)), ShapeError),  # no channel axis
    (np.ones((2, 1, 2, 2, 2)), ShapeError),  # rank-3 extents
    (np.ones((2, 1, 0)), ShapeError),  # empty extent
    ([np.ones((1, 3)), np.ones((1, 4))], ShapeError),  # ragged samples
    ([], ConfigError),  # an empty sequence
]


class TestAsStack:
    @pytest.mark.parametrize("stack, error", MALFORMED_STACKS)
    def test_every_set_consumer_raises_the_labeled_set_error(self, stack, error):
        labels = [0] * len(stack)
        pen = WindowSpec("inverted_laplace", 1.0)
        model = DenseAutoencoder.initialize((3, 2, 3), seed=0)
        consumers = [
            lambda: as_stack(stack),
            lambda: LabeledSet(stack, labels),
            lambda: EnergyModel(stack, pen, 1.0, 1.0),
            lambda: train(model, stack, TrainConfig(epochs=1)),
        ]
        for consume in consumers:
            with pytest.raises(error):
                consume()


class TestPadding:
    def test_28x28_pads_to_56x56_top_left(self):
        img = np.random.default_rng(1).random((28, 28))
        p = pad_to_full_lag(img[None])
        assert p.shape == (1, 56, 56)
        np.testing.assert_array_equal(p[0, :28, :28], img)
        assert np.all(p[0, 28:, :] == 0) and np.all(p[0, :, 28:] == 0)

    def test_length_1_signal(self):
        p = pad_to_full_lag(np.array([[5.0]]))
        np.testing.assert_array_equal(p, [[5.0, 0.0]])

    def test_mass_preserved(self):
        img = np.random.default_rng(2).random((8, 8))
        p = pad_to_full_lag(img[None])
        assert p.sum() == pytest.approx(img.sum(), abs=0)

    @hypothesis.given(
        rows=st.integers(1, 12), cols=st.integers(1, 12), seed=st.integers(0, 2**16)
    )
    def test_padding_only_appends_zeros(self, rows, cols, seed):
        img = np.random.default_rng(seed).random((rows, cols))
        p = pad_to_full_lag(img[None])
        np.testing.assert_array_equal(p[0, :rows, :cols], img)
        assert np.count_nonzero(p) == np.count_nonzero(img)


def spike_kernel(shape):
    """Kernel of the unit zero-lag spike with lam = 0: K = 1 and lam/D = 0 in every
    bin, so its filters are a bare forward/inverse real-transform roundtrip."""
    spike = np.zeros(shape)
    spike[(0,) * len(shape)] = 1.0
    return QuotientKernel(spike, shape, 0.0)


class TestFFT:
    def test_roundtrip_16x16(self):
        img = np.random.default_rng(3).random((16, 16))
        back = spike_kernel((16, 16)).filters(img)
        assert back.shape == (32, 32)
        assert np.abs(back[:16, :16] - img).max() < 1e-10
        assert np.abs(back[16:]).max() < 1e-10 and np.abs(back[:, 16:]).max() < 1e-10

    def test_constant_signal_dc_only(self):
        # the DC bin of the (unnormalized) forward transform holds the sum
        lam = 2.0
        k = QuotientKernel(np.full(32, 3.5), (32,), lam)
        dc = 32 * 3.5
        assert k.K[0] == pytest.approx(dc / (dc**2 + lam), rel=1e-14)
        assert k.L[0] == pytest.approx(lam / (dc**2 + lam), rel=1e-14)
        # and a filter's mean is its DC quotient over the padded size
        p = np.random.default_rng(0).random(32)
        v = k.filters(p)
        assert v.mean() == pytest.approx((k.K[0] * p.sum() + k.L[0]).real / 64, rel=1e-12)

    def test_parseval_under_convention(self):
        # the pullback is the adjoint of the filters' linear part: with the
        # forward transform unnormalized and the inverse scaled by 1/N,
        # <A u, g> = <u, A^T g> holds with multiplier conj(K)
        rng = np.random.default_rng(4)
        k = QuotientKernel(rng.random((3, 6, 5)), (6, 5), 0.7)
        u = rng.random((3, 6, 5))
        g = rng.random((3, 12, 10))
        Au = k.filters(u) - k.filters(np.zeros_like(u))
        lhs = np.sum(Au * g)
        rhs = np.sum(u * k.pullback(g))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("extents", [(7,), (8,), (5, 7), (6, 4)])
    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
    def test_pruned_pullback_is_the_adjoint_and_the_cropped_full_inverse(
        self, extents, channels, lead
    ):
        # odd and even extents of rank 1 and 2, behind channel and batch axes
        rng = np.random.default_rng(4)
        planes = lead + (channels,) + extents
        k = QuotientKernel(rng.random(planes), extents, 0.7)
        u = rng.random(planes)
        g = rng.random(lead + (channels,) + k.padded)
        Au = k.filters(u) - k.filters(np.zeros_like(u))
        pulled = k.pullback(g)
        assert pulled.shape == planes
        assert np.sum(u * pulled) == pytest.approx(np.sum(Au * g), rel=1e-12)
        # reference: the full inverse over the padded grid, then the crop
        full = np.fft.irfftn(np.conj(k.K) * np.fft.rfftn(g, axes=k.axes), s=k.padded, axes=k.axes)
        cropped = full[(...,) + tuple(slice(0, n) for n in extents)]
        np.testing.assert_allclose(pulled, cropped, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("extents", [(5, 7), (6, 4)])
    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_pullback_inverts_only_the_kept_rows(self, monkeypatch, extents, channels):
        # one forward transform, one complex inverse over all the padded rows,
        # then one real inverse over the extents[0] rows that the crop keeps
        rng = np.random.default_rng(7)
        k = QuotientKernel(rng.random((channels,) + extents), extents, 0.7)
        g = rng.random((channels,) + k.padded)
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            def spy(a, *args, _name=name, _original=getattr(np.fft, name), **kwargs):
                out = _original(a, *args, **kwargs)
                calls.append((_name, np.shape(a), out.shape))
                return out
            monkeypatch.setattr(np.fft, name, spy)
        k.pullback(g)
        half = (channels, k.padded[0], k.padded[1] // 2 + 1)
        kept = (channels, extents[0], k.padded[1] // 2 + 1)
        assert calls == [
            ("rfftn", g.shape, half),
            ("ifft", half, half),
            ("irfftn", kept, (channels, extents[0], k.padded[1])),
        ]

    @pytest.mark.parametrize("extents", [(7,), (8,), (5, 7), (6, 4)])
    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_pullback_sums_a_broadcast_varying_side_before_its_inverse(self, extents, channels):
        # filters broadcast a (batch, 1, C) varying side over an (n, C) fixed
        # set, so the adjoint sums the n cotangents of each varying entry
        rng = np.random.default_rng(5)
        k = QuotientKernel(rng.random((4, channels) + extents), extents, 0.7)
        g = rng.random((3, 4, channels) + k.padded)
        summed = k.pullback(g, (3, 1, channels))
        assert summed.shape == (3, 1, channels) + extents
        # the two orders round apart, so entries that cancel to near zero are
        # held to 1e-14 of the largest entry
        want = k.pullback(g).sum(axis=1)
        tol = 1e-14 * np.abs(want).max()
        np.testing.assert_allclose(summed[:, 0], want, rtol=1e-14, atol=tol)
        for batch in ((2, 1, channels), (1, channels)):
            with pytest.raises(ShapeError):
                k.pullback(g, batch)

    def test_a_kernel_holds_no_spectrum_besides_k_and_l(self):
        rng = np.random.default_rng(6)
        k = QuotientKernel(rng.random((2, 1, 6, 5)), (6, 5), 0.7)
        k.pullback(k.filters(rng.random((2, 1, 6, 5))))
        arrays = {name for name, value in vars(k).items() if isinstance(value, np.ndarray)}
        assert arrays == {"K", "L"}

    def test_nonfinite_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # NumericalError only, no numpy warning first
            with pytest.raises(NumericalError):
                QuotientKernel(np.array([1.0, np.inf, 0.0, 0.0]), (4,), 1.0)
            with pytest.raises(NumericalError):  # finite, but |S|^2 overflows
                QuotientKernel(np.full(4, 1e200), (4,), 1.0)
            k = QuotientKernel(np.ones(4), (4,), 1.0)
            with pytest.raises(NumericalError):
                k.filters(np.array([1.0, np.nan, 0.0, 0.0]))
            with pytest.raises(NumericalError):  # finite, but the spectrum overflows
                k.filters(np.full(4, 1e308))
            with pytest.raises(NumericalError):
                k.pullback(np.array([np.inf] + [0.0] * 7))

    @hypothesis.given(n=st.sampled_from([1, 2, 3, 5, 8, 17, 64, 128]), seed=st.integers(0, 2**16))
    @hypothesis.settings(deadline=None)
    def test_roundtrip_many_shapes(self, n, seed):
        img = np.random.default_rng(seed).random((n, n))
        back = spike_kernel((n, n)).filters(img)
        assert np.abs(back[:n, :n] - img).max() < 1e-10


class TestCentering:
    def test_length4_example(self):
        v = centered(np.array([[10.0, 11.0, 12.0, 13.0]]))
        np.testing.assert_array_equal(v[0], [12.0, 13.0, 10.0, 11.0])
        assert v[0][4 // 2] == 10.0

    def test_delta_moves_to_center(self):
        raw = np.zeros((1, 6, 6))
        raw[0, 0, 0] = 1.0
        assert centered(raw)[0][3, 3] == 1.0

    def test_centered_rolls_each_lag_axis_by_its_zero_lag_index(self):
        raw = np.random.default_rng(5).random((2, 6, 4))
        v = centered(raw)
        assert v.shape == (2, 6, 4)
        np.testing.assert_array_equal(np.roll(v, (-3, -2), axis=(1, 2)), raw)

    @pytest.mark.parametrize("data", [np.zeros(4), np.zeros((1, 2, 2, 2)), np.zeros((1, 0))])
    def test_rank_and_extents_of_centered_planes_checked(self, data):
        with pytest.raises(ShapeError):
            concentration(data)

    def test_non_finite_values_rejected(self):
        with pytest.raises(ConfigError):
            concentration(np.array([[0.0, np.nan]]))

    def test_zero_lag_index_is_floor_half(self):
        raw = np.zeros((1, 7, 4))
        raw[0, 0, 0] = 1.0
        assert np.argwhere(centered(raw)[0]).tolist() == [[3, 2]]

    def test_kernel_identity_is_raw_spike(self):
        # filters stay in raw layout inside: identical sides give the spike at
        # the origin corner, which ``centered`` moves to the center
        y = np.random.default_rng(6).random((5, 7))
        v = QuotientKernel(y, y.shape, 1.0).filters(y)
        spike = np.zeros((10, 14))
        spike[0, 0] = 1.0
        assert np.abs(v - spike).max() < 1e-12
        assert centered(v[None])[0][5, 7] == pytest.approx(1.0)


class TestWindows:
    def test_inverted_laplace_zero_at_zero_lag(self):
        w = make_window(WindowSpec("inverted_laplace", b=1.0), (4, 4))
        assert w.shape == (8, 8) and w[0, 0] == 0.0

    def test_laplace_value_at_l1_one(self):
        w = make_window(WindowSpec("laplace", b=1.0, epsilon=0.0), (4,))
        assert w[1] == w[-1] == pytest.approx(np.exp(-1.0))

    def test_inverted_laplace_value_at_l1_four(self):
        w = make_window(WindowSpec("inverted_laplace", b=2.0), (8,))
        assert w[4] == w[-4] == pytest.approx(1.0 - np.exp(-2.0))

    @staticmethod
    def _formula(spec, l1):
        decay = np.exp(-l1.astype(np.float64) / spec.b)
        return spec.epsilon + decay if spec.family == "laplace" else 1.0 - decay

    @pytest.mark.parametrize("family", ["laplace", "inverted_laplace"])
    @pytest.mark.parametrize("extents", [(7,), (8,), (5, 7), (6, 4), (1, 2)])
    def test_window_equals_the_meshgrid_formula_bit_for_bit(self, family, extents):
        # raw layout: |lag| = min(k, n - k) at bin k of an axis of n bins
        spec = WindowSpec(family, b=1.7, epsilon=0.3)
        padded = tuple(2 * n for n in extents)
        axes = [np.minimum(np.arange(n), n - np.arange(n)) for n in padded]
        want = self._formula(spec, sum(np.meshgrid(*axes, indexing="ij")))
        got = make_window(spec, extents)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        # centered, zero lag sits at floor(n/2) as on every filter handed out
        axes = [np.abs(np.arange(n) - n // 2) for n in padded]
        want = self._formula(spec, sum(np.meshgrid(*axes, indexing="ij")))
        assert centered(got[None])[0].tobytes() == want.tobytes()

    def test_window_is_built_in_one_grid(self):
        tracemalloc.start()
        try:
            make_window(WindowSpec("laplace", 2.0, 0.3), (256, 256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 512 * 512 * 8, f"peak {peak / (512 * 512 * 8):.2f} grids"

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            WindowSpec("gaussian", b=1.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ConfigError):
            WindowSpec("laplace", b=0.0)

    @pytest.mark.parametrize("b, epsilon", [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan)])
    def test_nonfinite_parameters_rejected(self, b, epsilon):
        with pytest.raises(ConfigError):
            WindowSpec("laplace", b=b, epsilon=epsilon)

    def test_inverted_laplace_strictly_increasing_with_decaying_steps(self):
        w = make_window(WindowSpec("inverted_laplace", b=2.0), (16,))
        right = w[:17]  # lags 0..16
        steps = np.diff(right)
        assert np.all(steps > 0)  # strictly increasing in |lag|
        assert np.all(np.diff(np.abs(steps)) < 0)  # gradient magnitude decays

    @hypothesis.given(
        family=st.sampled_from(["laplace", "inverted_laplace"]),
        b=st.floats(0.3, 10.0),
        n=st.sampled_from([6, 8, 12, 16]),
    )
    def test_window_symmetric_under_lag_negation(self, family, b, n):
        w = make_window(WindowSpec(family, b=b), (n // 2, n // 2))
        # in raw layout lag -tau sits at bin (n - tau) % n
        flipped = w[(-np.arange(n)) % n][:, (-np.arange(n)) % n]
        np.testing.assert_array_equal(w, flipped)
