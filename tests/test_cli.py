import collections
import configparser
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wienerlab import cli
from wienerlab.cli import _mask_aware_mean_fill, _recover_objective, main
from wienerlab.config import RecoverSection, load_config
from wienerlab.dataio import read_pgm, load_model, write_pgm
from wienerlab.datasets import make_digit_set
from wienerlab.diffusion import run_diffusion
from wienerlab.spectral import WindowSpec, make_window
from wienerlab.trainer import TrainConfig
from wienerlab.wiener import QuotientKernel, loss_and_grad

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SRC = ROOT / "src"
FFT_NAMES = (
    "fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn",
)

# 512 two-cluster latents of length 31 at lambda 0.1, with noise variances
# 0.01 -> 0.8; step sizes from 1 up make its chains diverge
LATENT_DIVERGING = (
    "[wiener]\nlambda = 0.1\n[diffusion]\nbeta_start = 0.01\nbeta_end = 0.8\n"
    "penalty_family = inverted_laplace\ndim = 31\nn_defining = 512\ninit_variance = 1.0\n"
)

# Each shipped config names the runs it supports in a "# Runs with:" line
# with the exit code they end in; the test runs each at these reduced sizes.
DOCUMENTED_RUN = re.compile(
    r"^# Runs with: wienerlab (\w+) --config configs/\S+ \(exit (\d)\)$", re.M
)
REDUCED_SIZES = {
    "diffusion": {"T": "20", "n_samples": "2"},
    "knn": {"n_test": "20"},
    "train": {"epochs": "1"},
}


@pytest.fixture
def digit_image(tmp_path):
    p = tmp_path / "digit.pgm"
    write_pgm(p, make_digit_set(1, size=16, seed=4).stack[0, 0])
    return p


def write_image(path, arr):
    write_pgm(path, np.asarray(arr, dtype=float))
    return path


class TestFilterCommand:
    def test_identical_inputs_give_identity_spike(self, tmp_path, digit_image):
        out = tmp_path / "run"
        assert main(["filter", str(digit_image), str(digit_image), "--out", str(out)]) == 0
        report = json.loads((out / "filter.json").read_text())
        assert report["argmax_lag"] == [0, 0]
        assert report["zero_lag_value"] == pytest.approx(1.0, abs=1e-6)
        assert report["concentration"] == pytest.approx(1.0, abs=1e-6)
        assert (out / "config.ini").exists()
        read_pgm(out / "filter.pgm")  # emitted image must parse back

    def test_shifted_input_moves_argmax(self, tmp_path):
        rng = np.random.default_rng(0)
        img = np.zeros((16, 16))
        img[:10, :10] = rng.random((10, 10))
        a = write_image(tmp_path / "a.pgm", np.roll(img, (2, 5), axis=(0, 1)))
        b = write_image(tmp_path / "b.pgm", img)
        out = tmp_path / "run"
        assert main(["filter", str(a), str(b), "--out", str(out)]) == 0
        report = json.loads((out / "filter.json").read_text())
        assert report["argmax_lag"] == [2, 5]

    def test_noise_pair_has_low_concentration(self, tmp_path, digit_image):
        rng = np.random.default_rng(1)
        noise = write_image(tmp_path / "n.pgm", rng.random((16, 16)))
        out = tmp_path / "run"
        assert main(["filter", str(noise), str(digit_image), "--out", str(out)]) == 0
        report = json.loads((out / "filter.json").read_text())
        assert report["concentration"] < 0.1


class TestLossCommand:
    def test_report_fields(self, tmp_path, digit_image):
        rng = np.random.default_rng(2)
        other = write_image(tmp_path / "o.pgm", rng.random((16, 16)))
        out = tmp_path / "run"
        assert main(["loss", str(other), str(digit_image), "--out", str(out)]) == 0
        report = json.loads((out / "loss.json").read_text())
        assert report["wiener_loss"] > 0
        assert set(report["metrics"]) == {"mae", "mse", "psnr", "ssim"}

    def test_overflowing_loss_exits_4_without_artifacts(self, tmp_path, digit_image, capsys):
        # a 1e308 window floor squares the whitened residual past the float range
        cfgf = tmp_path / "c.ini"
        cfgf.write_text("[window]\nepsilon = 1e308\n")
        out = tmp_path / "never"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the NumericalError
            rc = main(["loss", str(digit_image), str(digit_image), "--config", str(cfgf),
                       "--out", str(out)])
        assert rc == 4
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["recover", "train"])
    def test_overflowing_loss_is_a_divergence(self, tmp_path, digit_image, capsys, command):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text("[window]\nepsilon = 1e308\n[train]\nn_train = 20\nepochs = 1\n")
        images = [str(digit_image)] if command == "recover" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, *images, "--config", str(cfgf), "--out", str(tmp_path / "run")])
        assert rc == 4
        err = capsys.readouterr().err
        assert re.search(r"(recovery|training) diverged at (iteration|epoch) 0", err), err

    @staticmethod
    def _loss_fft_calls(tmp_path, monkeypatch, prediction, target) -> collections.Counter:
        calls = collections.Counter()
        for name in FFT_NAMES:
            def counted(*args, _name=name, _original=getattr(np.fft, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        assert main(["loss", str(prediction), str(target), "--out", str(tmp_path / "run")]) == 0
        return calls

    def test_one_kernel_and_one_filter(self, tmp_path, digit_image, monkeypatch):
        # the loss, the TI distance and the concentration share the target's
        # kernel and one filter: two forward transforms (each a real step
        # along the rows and a complex one down the columns) and one inverse
        other = write_image(tmp_path / "o.pgm", np.random.default_rng(3).random((16, 16)))
        calls = self._loss_fft_calls(tmp_path, monkeypatch, other, digit_image)
        assert calls == {"rfft": 2, "fft": 2, "ifft": 1, "irfft": 1}

    def test_one_inverse_past_the_temporary_elision_size(self, tmp_path, monkeypatch):
        # a 128 x 128 pair pads to a 256 x 129 half spectrum (about 528 KB), past
        # the size where NumPy may reuse an unnamed factor's buffer; the filter's
        # and the TI value's spectra are still one product, inverted once
        rng = np.random.default_rng(4)
        a, b = (write_image(tmp_path / f"{n}.pgm", rng.random((128, 128))) for n in "ab")
        calls = self._loss_fft_calls(tmp_path, monkeypatch, a, b)
        assert calls == {"rfft": 2, "fft": 2, "ifft": 1, "irfft": 1}

    def test_self_pair_is_zero_loss(self, tmp_path, digit_image):
        out = tmp_path / "run"
        assert main(["loss", str(digit_image), str(digit_image), "--out", str(out)]) == 0
        report = json.loads((out / "loss.json").read_text())
        assert report["wiener_loss"] == pytest.approx(0.0, abs=1e-18)
        assert report["metrics"]["psnr"] == "inf"


class TestRecoverCommand:
    def test_no_mask_recovers_immediately(self, tmp_path, digit_image):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text("[recover]\nstride = 1\niterations = 50\n")
        out = tmp_path / "run"
        assert main(["recover", str(digit_image), "--config", str(cfgf), "--out", str(out)]) == 0
        report = json.loads((out / "recover.json").read_text())
        assert report["final_loss"] < 1e-6

    @pytest.mark.parametrize("loss", ["mse", "wiener"])
    def test_stride2_improves_psnr(self, tmp_path, digit_image, loss):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(f"[recover]\nstride = 2\nloss = {loss}\niterations = 300\n")
        out = tmp_path / f"run-{loss}"
        assert main(["recover", str(digit_image), "--config", str(cfgf), "--out", str(out)]) == 0
        report = json.loads((out / "recover.json").read_text())
        assert report["psnr_recovered"] > report["psnr_masked"]
        for name in ("masked.pgm", "baseline.pgm", "recovered.pgm"):
            read_pgm(out / name)

    def test_mse_overflow_is_a_divergence_without_warnings(self, tmp_path, capsys):
        # a huge step squares the mse residual past the float range: the run
        # ends in one line on stderr, with no numpy warning before it
        image = write_image(tmp_path / "x.pgm", np.random.default_rng(5).random((16, 16)))
        cfgf = tmp_path / "c.ini"
        cfgf.write_text("[recover]\niterations = 50\nstep_size = 1e150\nloss = mse\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["recover", str(image), "--config", str(cfgf), "--out", str(tmp_path / "run")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: recovery diverged at iteration")
        assert err.count("\n") == 1, err

    def test_loss_curve_monotone_after_smoothing(self, tmp_path, digit_image):
        out = tmp_path / "run"
        assert main(["recover", str(digit_image), "--out", str(out)]) == 0
        rows = (out / "loss_curve.csv").read_text().strip().splitlines()[1:]
        vals = np.array([float(r.split(",")[1]) for r in rows])
        smoothed = np.convolve(vals, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(smoothed) <= 1e-12)


    def test_mean_fill_matches_windowed_reference(self):
        rng = np.random.default_rng(3)
        img = rng.random((11, 9))
        mask = (rng.random((11, 9)) < 0.2).astype(float)
        mask[:6, :5] = 0.0  # radius-1 windows in here hold no kept pixel
        masked = img * mask
        for r in (1, 2, 4):
            expected = masked.copy()
            h, w = img.shape
            for i in range(h):
                for j in range(w):
                    if mask[i, j]:
                        continue
                    block = np.s_[max(0, i - r) : i + r + 1, max(0, j - r) : j + r + 1]
                    total = mask[block].sum()
                    expected[i, j] = (masked[block] * mask[block]).sum() / total if total else 0.0
            got = _mask_aware_mean_fill(masked, mask, r)
            assert np.abs(got - expected).max() < 1e-12
        assert np.all(_mask_aware_mean_fill(masked, mask, 1)[1:4, 1:3] == 0.0)

    def test_cached_target_gradient_matches_a_fresh_kernel(self):
        rng = np.random.default_rng(4)
        target = rng.random((10, 12))[None]
        whitening = make_window(WindowSpec("laplace", 2.0, 0.3), target.shape[1:])
        lam = 0.5
        objective = _recover_objective(RecoverSection(loss="wiener"), target, whitening, lam)
        for _ in range(3):  # one kernel, several iterates
            x = rng.random((1, 10, 12))
            value, grad = objective(x)
            kernel = QuotientKernel(target, target.shape[1:], lam)
            ref_value, ref_grad = loss_and_grad(kernel, x, whitening)
            assert value == pytest.approx(float(ref_value), rel=1e-12)
            assert np.abs(grad - ref_grad).max() < 1e-12


class TestDiffuseCommand:
    def short_config(self, tmp_path):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(
            "[diffusion]\nT = 20\nn_samples = 4\nsnapshot_stride = 10\n"
        )
        return cfgf

    def test_reproducible_outputs(self, tmp_path):
        cfgf = self.short_config(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["diffuse", "--config", str(cfgf), "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("trajectory.csv", "samples.csv", "diffuse.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_csvs_match_a_row_by_row_reference(self, tmp_path, monkeypatch):
        # the CSVs are written from columns; each row must read as the
        # per-(chain, step) tuples written one value at a time
        runs = []

        def capture(*args, **kwargs):
            runs.append(run_diffusion(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "run_diffusion", capture)
        out = tmp_path / "run"
        cfgf = self.short_config(tmp_path)
        assert main(["diffuse", "--config", str(cfgf), "--out", str(out)]) == 0
        (run,) = runs
        rows = [
            (c, t, e, conc)
            for c, (energies, concentrations) in enumerate(
                zip(run.energies.tolist(), run.concentrations.tolist())
            )
            for t, (e, conc) in enumerate(zip(energies, concentrations))
        ]
        sample_rows = [
            (c, step) + tuple(x.ravel().tolist())
            for c, chain in enumerate(run.samples)
            for step, x in zip(run.snapshot_steps.tolist(), chain)
        ]
        dim = run.samples[0, 0].size
        sample_header = ["chain", "step"] + [f"x{i}" for i in range(dim)]
        for name, header, body in (
            ("trajectory.csv", ["chain", "step", "energy", "concentration"], rows),
            ("samples.csv", sample_header, sample_rows),
        ):
            lines = [",".join(header)]
            lines += [
                ",".join(repr(x) if isinstance(x, float) else str(x) for x in row) for row in body
            ]
            assert (out / name).read_text() == "\n".join(lines) + "\n", name

    def test_seed_changes_outputs(self, tmp_path):
        cfgf = self.short_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["diffuse", "--config", str(cfgf), "--out", str(a), "--seed", "1"]) == 0
        assert main(["diffuse", "--config", str(cfgf), "--out", str(b), "--seed", "2"]) == 0
        assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()

    def test_digits_dataset_writes_sample_grids(self, tmp_path):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(
            "[diffusion]\ndataset = digits\nT = 5\nn_samples = 2\nsnapshot_stride = 5\n"
            "alpha_start = 0.5\nalpha_end = 0.01\nbeta_start = 0.0001\nbeta_end = 0.001\n"
        )
        out = tmp_path / "run"
        assert main(["diffuse", "--config", str(cfgf), "--out", str(out)]) == 0
        grids = sorted(out.glob("samples_step*.pgm"))
        assert len(grids) == 2  # steps 0 and 5
        for g in grids:
            read_pgm(g)

    @pytest.mark.parametrize("chains", [4, 5, 7])  # 2x2, and 3x2 and 3x3 with empty tiles
    def test_sample_grids_match_a_chain_by_chain_reference(self, tmp_path, monkeypatch, chains):
        runs = []

        def capture(*args, **kwargs):
            runs.append(run_diffusion(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "run_diffusion", capture)
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(
            f"[diffusion]\ndataset = digits\nT = 4\nn_samples = {chains}\nsnapshot_stride = 3\n"
        )
        out = tmp_path / "run"
        assert main(["diffuse", "--config", str(cfgf), "--out", str(out)]) == 0
        (run,) = runs
        cols = int(np.ceil(np.sqrt(chains)))
        rows = int(np.ceil(chains / cols))
        h, w = run.samples.shape[-2:]
        assert run.snapshot_steps.tolist() == [0, 3, 4]
        for si, step in enumerate(run.snapshot_steps.tolist()):
            grid = np.zeros((rows * (h + 1) - 1, cols * (w + 1) - 1))
            for c in range(chains):
                r, q = divmod(c, cols)
                plane = np.clip(run.samples[c, si, 0], 0.0, 1.0)
                grid[r * (h + 1) : r * (h + 1) + h, q * (w + 1) : q * (w + 1) + w] = plane
            write_pgm(tmp_path / "reference.pgm", grid)
            name = f"samples_step{step:05d}.pgm"
            assert (out / name).read_bytes() == (tmp_path / "reference.pgm").read_bytes(), name


class TestKnnCommand:
    def test_small_experiment_reports_gap(self, tmp_path):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(
            "[knn]\nn_train = 40\nn_test = 10\nmax_shift = 2\npad = 2\nk = 5\nbaseline_k = 1\n"
        )
        out = tmp_path / "run"
        assert main(["knn", "--config", str(cfgf), "--out", str(out)]) == 0
        report = json.loads((out / "knn.json").read_text())
        assert report["gap"] == pytest.approx(
            report["wiener_ti"]["accuracy"] - report["baseline"]["accuracy"]
        )
        assert np.array(report["baseline"]["confusion"]).sum() == 10

    def test_summary_line_reports_the_exact_ti_fraction_outside_the_report(
        self, tmp_path, capsys
    ):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(
            "[knn]\nn_train = 60\nn_test = 6\nmax_shift = 2\npad = 2\nk = 3\nbaseline_k = 1\n"
        )
        out = tmp_path / "run"
        assert main(["knn", "--config", str(cfgf), "--out", str(out)]) == 0
        line = capsys.readouterr().out
        fraction = float(re.search(r"TI exact on ([0-9.]+)% of pairs", line).group(1))
        assert 0.0 < fraction <= 100.0
        assert "exact" not in (out / "knn.json").read_text()

    def test_wiener_lambda_is_the_ti_lambda(self, tmp_path):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(
            "[wiener]\nlambda = 250\n"
            "[knn]\nn_train = 20\nn_test = 5\nmax_shift = 1\npad = 1\nk = 3\nbaseline_k = 1\n"
        )
        out = tmp_path / "run"
        assert main(["knn", "--config", str(cfgf), "--out", str(out)]) == 0
        assert json.loads((out / "knn.json").read_text())["wiener_ti"]["lambda"] == 250.0
        echoed = (out / "config.ini").read_text()
        assert re.findall(r"^lambda = .*$", echoed, re.M) == ["lambda = 250.0"]


class TestTrainCommand:
    def test_zero_epochs_saves_initial_model(self, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--loss", "mse", "--epochs", "0", "--out", str(out)]) == 0
        model = load_model(out / "model.wnae")
        assert model.widths == (64, 32, 16, 32, 64)
        lines = (out / "train_log.csv").read_text().strip().splitlines()
        assert lines == ["epoch,loss,concentration"]

    def test_model_file_keeps_the_configured_activation(self, tmp_path):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text("[train]\nn_train = 40\nepochs = 1\nactivation = tanh\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfgf), "--out", str(out)]) == 0
        assert load_model(out / "model.wnae").activation == "tanh"

    def test_short_mse_run_logs_epochs(self, tmp_path):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text("[train]\nn_train = 60\nepochs = 2\nloss = mse\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfgf), "--out", str(out)]) == 0
        lines = (out / "train_log.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        report = json.loads((out / "train.json").read_text())
        assert report["epochs"] == 2

    def test_wiener_lambda_and_window_reach_train_config(self, tmp_path, monkeypatch):
        seen = []
        real_train = cli.train

        def recording_train(model, data, cfg):
            seen.append(cfg)
            return real_train(model, data, cfg)

        monkeypatch.setattr(cli, "train", recording_train)
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(
            "[wiener]\nlambda = 250\n[window]\nb = 3\n[train]\nn_train = 20\nepochs = 0\n"
        )
        assert main(["train", "--config", str(cfgf), "--out", str(tmp_path / "run")]) == 0
        assert seen == [
            TrainConfig(
                loss="wiener", batch_size=32, learning_rate=3e-3, epochs=0, beta1=0.9, beta2=0.999,
                eps=1e-8, whitening=WindowSpec("laplace", 3.0, 0.3), lam=250.0, seed=5,
            )
        ]


class TestErrorHandling:
    def test_unknown_config_key_exits_2_without_artifacts(self, tmp_path):
        # `direction` was a key once; it accepted one value and is gone
        for key in ("wavelength = 5", "direction = match_source_to_target"):
            cfgf = tmp_path / "c.ini"
            cfgf.write_text(f"[wiener]\n{key}\n")
            out = tmp_path / "never"
            assert main(["diffuse", "--config", str(cfgf), "--out", str(out)]) == 2
            assert not out.exists()

    @pytest.mark.parametrize("command", ["filter", "loss", "recover", "diffuse", "knn", "train"])
    def test_bad_window_fails_every_subcommand_at_load(self, tmp_path, digit_image, command):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text("[window]\nb = -1\n")
        images = {"filter": 2, "loss": 2, "recover": 1}.get(command, 0) * [str(digit_image)]
        out = tmp_path / "never"
        assert main([command, *images, "--config", str(cfgf), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["filter", "loss", "recover"])
    def test_seed_is_a_usage_error_where_no_seed_acts(self, tmp_path, capsys, command):
        argv = [command] + {"filter": 2, "loss": 2, "recover": 1}[command] * ["a.pgm"]
        argv += ["--out", str(tmp_path / "never")]
        assert main(argv) == 3  # parsed: the missing image is a data error
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("command", ["filter", "loss", "recover", "diffuse", "knn", "train"])
    def test_input_path_under_a_regular_file_exits_3_without_artifacts(
        self, tmp_path, capsys, command
    ):
        (tmp_path / "file").write_text("")
        path = tmp_path / "file" / "input"
        keys = {"diffuse": "[diffusion]\ndataset", "knn": "[knn]\ndata_images",
                "train": "[train]\ndata_images"}
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(f"{keys[command]} = {path}\n" if command in keys else "")
        images = {"filter": 2, "loss": 2, "recover": 1}.get(command, 0) * [str(path)]
        out = tmp_path / "never"
        assert main([command, *images, "--config", str(cfgf), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("data error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag, under", [("--out", False), ("--out", True), ("--config", True)])
    def test_out_or_config_path_at_a_regular_file_exits_3(
        self, tmp_path, capsys, digit_image, flag, under
    ):
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        path = blocker / "c.ini" if under else blocker
        argv = ["loss", str(digit_image), str(digit_image), flag, str(path)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("data error: ")
        assert blocker.read_text() == "kept"

    def test_reused_out_exits_3_and_keeps_the_first_run(self, tmp_path, capsys, digit_image):
        out = tmp_path / "run"
        argv = ["loss", str(digit_image), str(digit_image), "--out", str(out)]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("data error: --out ")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_empty_out_directory_is_used(self, tmp_path, digit_image):
        out = tmp_path / "run"
        out.mkdir()
        assert main(["loss", str(digit_image), str(digit_image), "--out", str(out)]) == 0
        assert (out / "loss.json").is_file()

    def test_missing_image_exits_3(self, tmp_path):
        assert main(["filter", str(tmp_path / "no.pgm"), str(tmp_path / "no.pgm")]) == 3

    def test_malformed_image_exits_3(self, tmp_path, digit_image):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\n\x00")
        assert main(["filter", str(bad), str(digit_image)]) == 3

    def test_shape_mismatch_exits_3(self, tmp_path, digit_image):
        small = write_image(tmp_path / "small.pgm", np.zeros((4, 4)))
        assert main(["filter", str(small), str(digit_image)]) == 3

    def test_loss_shape_mismatch_exits_3_without_artifacts(self, tmp_path, digit_image):
        small = write_image(tmp_path / "small.pgm", np.zeros((4, 4)))
        out = tmp_path / "never"
        assert main(["loss", str(small), str(digit_image), "--out", str(out)]) == 3
        assert not out.exists()

    def test_pgm_size_below_one_exits_3(self, tmp_path, digit_image, capsys):
        bad = tmp_path / "neg.pgm"
        bad.write_bytes(b"P5\n-3 2\n255\n" + b"\x00" * 10)
        assert main(["recover", str(bad), "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err.startswith("data error: ")
        assert not (tmp_path / "run").exists()

    def test_diverging_training_writes_only_the_error_line(self, tmp_path, capsys):
        # a step of 1e308 overflows the forward pass after the first update:
        # the run ends in its error line, with no numpy warning before it
        cfgf = tmp_path / "c.ini"
        cfgf.write_text("[train]\nn_train = 40\nepochs = 3\nlearning_rate = 1e308\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train", "--config", str(cfgf), "--out", str(tmp_path / "run")])
        assert rc == 4
        assert not caught, [f"{w.filename}:{w.lineno} {w.message}" for w in caught]
        assert capsys.readouterr().err == "numerical failure: training diverged at epoch 0\n"

    def test_diverging_training_exits_4(self, tmp_path):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text("[train]\nn_train = 60\nepochs = 30\nlearning_rate = 1e12\nloss = mse\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfgf), "--out", str(out)]) == 4
        assert (out / "train_log.csv").exists()  # diagnostics from last finite epochs


    @pytest.mark.parametrize("widths", ["64,0,64", "64,-3,64"])
    def test_nonpositive_train_width_exits_2_without_artifacts(self, tmp_path, capsys, widths):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(f"[train]\nn_train = 20\nepochs = 1\nwidths = {widths}\n")
        out = tmp_path / "never"
        assert main(["train", "--config", str(cfgf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err, err
        assert not out.exists()

    @pytest.mark.parametrize("widths", ["64,4,63", "63,4,64", "16,4,16"])
    def test_train_widths_off_the_sample_width_exit_2_without_artifacts(
        self, tmp_path, capsys, widths
    ):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(f"[train]\nn_train = 20\nepochs = 1\nwidths = {widths}\n")
        out = tmp_path / "never"
        assert main(["train", "--config", str(cfgf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [train] widths ") and "sample width 64" in err, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("n_samples", "0"), ("init_variance", "-1"), ("init_variance", "nan"),
         ("snapshot_stride", "0"), ("k_nearest", "-4")],
    )
    def test_bad_chain_setting_exits_2_without_artifacts(self, tmp_path, key, value):
        cfgf = tmp_path / "c.ini"
        settings = {"T": "5", "n_samples": "2", key: value}
        cfgf.write_text("[diffusion]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items()))
        out = tmp_path / "never"
        assert main(["diffuse", "--config", str(cfgf), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "[knn]\nk = 0\n",
            "[knn]\nn_train = 20\nbaseline_k = 50\n",
            "[wiener]\nlambda = nan\n",
            # the [diffusion] energy settings are checked at load, for knn too
            "[diffusion]\npenalty_family = nope\n",
            "[diffusion]\npenalty_b = -1\n",
            "[diffusion]\ngamma = -1\n",
            "[diffusion]\ngamma = nan\n",
            "[knn]\ndata_labels = nope\n",  # labels without images
        ],
        ids=["k-0", "baseline_k-50", "lambda-nan", "penalty_family-nope", "penalty_b--1",
             "gamma--1", "gamma-nan", "data_labels-nope"],
    )
    def test_bad_knn_setting_exits_2_without_artifacts(self, tmp_path, capsys, text):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(text)
        out = tmp_path / "never"
        assert main(["knn", "--config", str(cfgf), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value", [("loss", "huber"), ("iterations", "-3"), ("step_size", "nan")]
    )
    def test_bad_recover_setting_exits_2_without_artifacts(
        self, tmp_path, digit_image, key, value
    ):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(f"[recover]\n{key} = {value}\n")
        out = tmp_path / "never"
        assert main(["recover", str(digit_image), "--config", str(cfgf), "--out", str(out)]) == 2
        assert not out.exists()

    def test_log_every_zero_exits_2(self, tmp_path, digit_image):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text("[recover]\nlog_every = 0\n")
        assert main(["recover", str(digit_image), "--config", str(cfgf)]) == 2

    def test_diverging_latent_preset_exits_4_naming_chain_and_step(self, tmp_path, capsys):
        # step sizes 500 -> 1 against a 512-sample summed energy overflow the state
        cfgf = tmp_path / "latent.ini"
        cfgf.write_text(LATENT_DIVERGING + "alpha_start = 500\nalpha_end = 1\nn_samples = 3\n")
        assert main(["diffuse", "--config", str(cfgf), "--out", str(tmp_path / "run")]) == 4
        err = capsys.readouterr().err
        assert re.search(r"chain \d+ diverged at step \d+", err), err

    def test_finite_but_exploding_latent_chain_exits_4(self, tmp_path, capsys):
        # alpha 1 -> 0.01 keeps every value finite (energy ~1e103 by step 120),
        # but the energy soon exceeds DIVERGENCE_FACTOR times its step-0 value
        cfgf = tmp_path / "latent.ini"
        settings = "alpha_start = 1\nalpha_end = 0.01\nn_samples = 2\nT = 40\n"
        cfgf.write_text(LATENT_DIVERGING + settings)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the NumericalError
            rc = main(["diffuse", "--config", str(cfgf), "--out", str(tmp_path / "run")])
        assert rc == 4
        err = capsys.readouterr().err
        assert re.search(r"chain \d+ diverged at step \d+: energy \S+ exceeds", err), err


    @pytest.mark.parametrize(
        "key, value",
        [
            ("init_variance", "nan"),
            ("init_variance", "inf"),
            ("alpha_start", "nan"),
            ("alpha_end", "inf"),
            ("beta_end", "nan"),
            ("beta_start", "inf"),
            ("gamma", "inf"),
            ("gamma", "nan"),
        ],
    )
    def test_non_finite_diffusion_value_exits_2(self, tmp_path, capsys, key, value):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(f"[diffusion]\nT = 5\nn_samples = 2\n{key} = {value}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the ConfigError
            rc = main(["diffuse", "--config", str(cfgf), "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err, err


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.name)
def test_shipped_config_runs_with_its_documented_exit_code(tmp_path, path):
    runs = DOCUMENTED_RUN.findall(path.read_text())
    assert runs, f"{path.name} documents no run"
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read(path)
    for section, values in REDUCED_SIZES.items():
        if parser.has_section(section):
            parser[section].update(values)
    cfgf = tmp_path / path.name
    with open(cfgf, "w") as f:
        parser.write(f)
    for command, code in runs:
        out = tmp_path / command
        assert main([command, "--config", str(cfgf), "--out", str(out)]) == int(code), command


class TestExternalDataPaths:
    def _write_idx_pair(self, tmp_path, n=24, size=10, seed=0):
        import struct

        rng = np.random.default_rng(seed)
        imgs = (rng.random((n, size, size)) * 255).astype(np.uint8)
        labels = np.array([i % 10 for i in range(n)], dtype=np.uint8)
        img_path = tmp_path / "set-images-idx3-ubyte"
        lab_path = tmp_path / "set-labels-idx1-ubyte"
        img_path.write_bytes(
            struct.pack(">IIII", 0x00000803, n, size, size) + imgs.tobytes()
        )
        lab_path.write_bytes(struct.pack(">II", 0x00000801, n) + labels.tobytes())
        return img_path, lab_path

    def test_knn_reads_idx_dataset(self, tmp_path):
        img_path, lab_path = self._write_idx_pair(tmp_path)
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(
            f"[knn]\ndata_images = {img_path}\ndata_labels = {lab_path}\n"
            "n_train = 16\nn_test = 8\nmax_shift = 1\npad = 1\nk = 3\nbaseline_k = 1\n"
        )
        out = tmp_path / "run"
        assert main(["knn", "--config", str(cfgf), "--out", str(out)]) == 0
        report = json.loads((out / "knn.json").read_text())
        assert report["n_train"] == 16 and report["n_test"] == 8

    def test_knn_rejects_undersized_idx_dataset(self, tmp_path):
        img_path, lab_path = self._write_idx_pair(tmp_path, n=10)
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(
            f"[knn]\ndata_images = {img_path}\ndata_labels = {lab_path}\n"
            "n_train = 16\nn_test = 8\n"
        )
        assert main(["knn", "--config", str(cfgf), "--out", str(tmp_path / "x")]) == 2

    def test_knn_idx_label_outside_0_9_exits_3(self, tmp_path, capsys):
        img_path, lab_path = self._write_idx_pair(tmp_path)
        raw = bytearray(lab_path.read_bytes())
        raw[8 + 5] = 12  # the label of sample 5
        lab_path.write_bytes(bytes(raw))
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(
            f"[knn]\ndata_images = {img_path}\ndata_labels = {lab_path}\n"
            "n_train = 16\nn_test = 8\n"
        )
        assert main(["knn", "--config", str(cfgf), "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "label 12" in err, err
        assert not (tmp_path / "x").exists()

    def test_train_reads_idx_dataset(self, tmp_path):
        img_path, lab_path = self._write_idx_pair(tmp_path, n=20, size=8)
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(
            f"[train]\ndata_images = {img_path}\ndata_labels = {lab_path}\n"
            "n_train = 20\nepochs = 1\nloss = mse\nbatch_size = 10\n"
        )
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfgf), "--out", str(out)]) == 0
        report = json.loads((out / "train.json").read_text())
        assert report["n_train"] == 20

    def test_train_reads_images_without_a_labels_file(self, tmp_path):
        # train uses no labels, so a file whose name gives no labels path runs;
        # a data_labels file that is set is still checked against the images
        img_path, lab_path = self._write_idx_pair(tmp_path, n=20, size=8)
        plain = img_path.rename(tmp_path / "plain.idx")
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(f"[train]\ndata_images = {plain}\nn_train = 20\nepochs = 1\nloss = mse\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfgf), "--out", str(out)]) == 0
        assert json.loads((out / "train.json").read_text())["n_train"] == 20
        lab_path.write_bytes(lab_path.read_bytes()[:-1])  # one label short of the images
        with open(cfgf, "a") as f:
            f.write(f"data_labels = {lab_path}\n")
        assert main(["train", "--config", str(cfgf), "--out", str(tmp_path / "x")]) == 3
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, section, size", [
        ("diffuse", "[diffusion]\nT = 4\nn_samples = 2\nsnapshot_stride = 4\ndataset", "n_defining"),
        ("train", "[train]\nepochs = 1\nloss = mse\ndata_images", "n_train"),
    ], ids=["diffuse", "train"])
    @pytest.mark.parametrize("n", [0, -1, -5, -39])
    def test_set_size_below_1_of_an_idx_file_exits_2(
        self, tmp_path, capsys, command, section, size, n
    ):
        # a negative size once sliced the file from its end: -1 read 39 of 40 images
        img_path, _ = self._write_idx_pair(tmp_path, n=40, size=8)
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(f"{section} = {img_path}\n{size} = {n}\n")
        out = tmp_path / "never"
        assert main([command, "--config", str(cfgf), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["idx", "digits"])
    @pytest.mark.parametrize("key, n", [("n_test", -1), ("n_test", 0), ("n_test", -3), ("n_train", 0)])
    def test_knn_set_size_below_1_exits_2_naming_the_key(self, tmp_path, capsys, source, key, n):
        # these once failed later as "a set needs at least one sample" or
        # "need at least one sample", or blamed k for n_train = 0
        data = ""
        if source == "idx":
            img_path, lab_path = self._write_idx_pair(tmp_path, n=40)
            data = f"data_images = {img_path}\ndata_labels = {lab_path}\n"
        sizes = {"n_train": 16, "n_test": 8, key: n}
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(
            "[knn]\n" + data + "".join(f"{k} = {v}\n" for k, v in sizes.items())
            + "k = 3\nbaseline_k = 1\n"
        )
        out = tmp_path / "never"
        assert main(["knn", "--config", str(cfgf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [knn] {key} must be >= 1, got {n}"), err
        assert not out.exists()

    @pytest.mark.parametrize("zero_row", [3, 135])
    def test_singular_training_set_exits_4_before_the_first_epoch(self, tmp_path, capsys, zero_row):
        # lambda = 0 and one all-zero image, inside or beyond the 128 evaluation rows
        img_path, lab_path = self._write_idx_pair(tmp_path, n=140, size=8)
        raw = bytearray(img_path.read_bytes())
        raw[16 + 64 * zero_row : 16 + 64 * (zero_row + 1)] = bytes(64)
        img_path.write_bytes(bytes(raw))
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(
            f"[wiener]\nlambda = 0\n[train]\ndata_images = {img_path}\n"
            f"data_labels = {lab_path}\nn_train = 140\nepochs = 1\nloss = wiener\nbatch_size = 32\n"
        )
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfgf), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: zero denominator bin with lambda = 0"), err
        assert sorted(p.name for p in out.iterdir()) == ["config.ini"]

    def test_diffuse_reads_idx_dataset(self, tmp_path):
        img_path, _ = self._write_idx_pair(tmp_path, n=6, size=6)
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(
            f"[diffusion]\ndataset = {img_path}\nn_defining = 4\nT = 4\nn_samples = 2\n"
            "snapshot_stride = 4\nalpha_start = 0.2\nalpha_end = 0.01\n"
            "beta_start = 0.0001\nbeta_end = 0.001\n"
        )
        out = tmp_path / "run"
        assert main(["diffuse", "--config", str(cfgf), "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert len(sorted(out.glob("samples_step*.pgm"))) == 2


class TestEchoedConfigContract:
    def test_rerun_from_echoed_config_is_bit_identical(self, tmp_path):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text("[diffusion]\nT = 15\nn_samples = 3\nsnapshot_stride = 5\n")
        first = tmp_path / "first"
        assert main(["diffuse", "--config", str(cfgf), "--out", str(first), "--seed", "9"]) == 0
        # the echoed config must carry the applied seed and every default
        second = tmp_path / "second"
        assert main(["diffuse", "--config", str(first / "config.ini"), "--out", str(second)]) == 0
        for fname in ("trajectory.csv", "samples.csv", "diffuse.json"):
            assert (first / fname).read_bytes() == (second / fname).read_bytes()
        assert (first / "config.ini").read_text() == (second / "config.ini").read_text()

    def test_override_flags_are_echoed_and_checked(self, tmp_path):
        out = tmp_path / "run"
        argv = ["train", "--loss", "mse", "--epochs", "0", "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        echoed = load_config(out / "config.ini").train
        assert (echoed.loss, echoed.epochs, echoed.seed) == ("mse", 0, 3)
        assert main(["train", "--epochs", "-1", "--out", str(tmp_path / "never")]) == 2
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("command", ["diffuse", "knn", "train"])
    def test_a_negative_seed_override_exits_2(self, tmp_path, capsys, command):
        # the override builds its section and the config again, through their checks
        out = tmp_path / "never"
        assert main([command, "--seed", "-1", "--out", str(out)]) == 2
        assert re.fullmatch(r"config error: .*seed must be >= 0, got -1\n", capsys.readouterr().err)
        assert not out.exists()


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _allocator_tuned_by_env() -> bool:
    return "GLIBC_TUNABLES" in os.environ or any(k.startswith("MALLOC_") for k in os.environ)


# Minor page faults per call of one library step path, after a warm-up, in a
# fresh interpreter (so no other test has shaped its heap): a 128x128
# filter-loss step, and the energy of 50 chains against 512 defining samples
# of length 31
FAULT_RUN = """
import resource, sys
import numpy as np
from wienerlab.diffusion import EnergyModel, energy_terms
from wienerlab.spectral import WindowSpec, make_window
from wienerlab.wiener import QuotientKernel, loss_and_grad

rng = np.random.default_rng(0)
if sys.argv[1] == "loss_and_grad":
    kernel = QuotientKernel(rng.random((1, 128, 128)), (128, 128), 1.0)
    w_raw = make_window(WindowSpec("laplace", 2.0, 0.1), (128, 128))
    xs, calls = rng.random((2, 1, 128, 128)), 40
    step = lambda x: loss_and_grad(kernel, x, w_raw)
else:
    defining = rng.standard_normal((512, 1, 31))
    model = EnergyModel(defining, WindowSpec("inverted_laplace", 2.0), 1.0, 0.1)
    xs, calls = rng.standard_normal((2, 50, 1, 31)), 10
    step = lambda x: energy_terms(model, x)
for i in range(4):  # warm-up: the heap grows to the loop's working set once
    step(xs[i % 2])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(calls):
    step(xs[i % 2])
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls)
"""


@pytest.mark.skipif(not _on_glibc(), reason="the page counts are glibc's")
@pytest.mark.skipif(_allocator_tuned_by_env(), reason="glibc is tuned by the environment")
class TestStepFaults:
    @pytest.mark.parametrize("path", ["loss_and_grad", "energy_terms"])
    def test_step_paths_fault_in_no_fresh_pages(self, path):
        # Each step used to allocate its padded grids anew, and glibc returned
        # and faulted them in again: 340-420 minor faults per loss_and_grad
        # call and 8,800-14,300 per energy_terms call on these sizes.
        pytest.importorskip("resource")
        pythonpath = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=pythonpath)
        out = subprocess.run(
            [sys.executable, "-c", FAULT_RUN, path], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        per_call = float(out.stdout)
        assert per_call < 50, f"{per_call:.0f} minor faults per {path} call"

    def test_recover_steps_fault_in_no_fresh_pages(self, tmp_path):
        # A step's spectra and filters live in the kernel's work arrays, so
        # glibc has no 0.25-0.5 MB transform buffers to return and fault in
        # again (200-640 minor faults per 128x128 step when each step
        # allocated them); a step now reuses its heap (about 0).
        resource = pytest.importorskip("resource")
        spec = importlib.util.spec_from_file_location("_workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # dataclasses resolve their module by name
        try:
            spec.loader.exec_module(workloads)
        finally:
            del sys.modules[spec.name]
        image = workloads.write_pgm(tmp_path / "target.pgm", workloads.smooth_image(0))

        def faults(iterations: int) -> int:
            cfgf = tmp_path / f"{iterations}.ini"
            cfgf.write_text(f"[recover]\nloss = wiener\niterations = {iterations}\n")
            out = tmp_path / f"run{len(list(tmp_path.glob('run*')))}"  # --out is never reused
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert main(["recover", image, "--config", str(cfgf), "--out", str(out)]) == 0
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults(10)  # warm-up: the heap grows to the run's working set once
        short = faults(10)
        per_step = (faults(50) - short) / 40
        assert per_step < 50, f"{per_step:.0f} minor faults per recover step"
