"""Command-line surface: four experiments (recover, diffuse, knn, train) and two
pairwise tools (filter, loss).

    wienerlab <filter|loss|recover|diffuse|knn|train> [--config <ini>]
              [--out <dir>] [--seed <int>, diffuse|knn|train only] ...

Outputs land in --out (used verbatim; refused unless absent or an empty
directory) or a timestamped directory under ./runs. Every run directory
receives the effective config and the report `<command>.json`, and stdout
one summary line ending in `(<run dir>)`. Re-running with the same config
and seed reproduces all numeric outputs bit for bit on one NumPy/OpenBLAS
build; only the directory name varies. `knn.json`, `config.ini` and the
images of `recover` stay so under other SIMD levels and BLAS kernels, and
`recover.json`, `loss_curve.csv` and those of `diffuse` above SSE4; other
outputs move in the last bits, within the drift the README states. Exit
codes: 0 ok, 2 config error, 3 data/format error or any OS error on a
path, 4 numerical failure.

Importing this module before NumPy caps NumPy's BLAS at one thread: it sets
`OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS` and `MKL_NUM_THREADS` to 1, so no
idle BLAS worker spins beside the main thread. A user who sets any of them
or `GOTO_NUM_THREADS` keeps their own setting, and once NumPy is loaded the
environment is left alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# BLAS reads its thread count once, when NumPy loads it
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(
    key in os.environ for key in (*_BLAS_THREADS, "GOTO_NUM_THREADS")
):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config
from .dataio import ingest_idx, read_idx_images, read_pgm, save_model, write_csv, write_pgm
from .datasets import make_digit_set, two_cluster_latents
from .diffusion import (
    EnergyModel,
    Schedule,
    cosine_schedule,
    nearest_defining_sample,
    run_diffusion,
)
from .errors import ConfigError, FormatError, NumericalError, ShapeError, WienerlabError
from .knn import LabeledSet, evaluate_accuracy, make_translated_set
from .metrics import compute_metrics, psnr
from .spectral import WindowSpec, make_window, zero_lag_index
from .trainer import DenseAutoencoder, TrainingDivergedError, train
from .wiener import QuotientKernel, concentration, loss_and_grad, pair_report, wiener_filter

__all__ = ["main"]


def _jsonable(obj):
    if isinstance(obj, float):
        return "inf" if obj == float("inf") else obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _jsonable(float(obj))
    return obj


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _run_dir(args) -> Path:
    """--out, verbatim, or a fresh timestamped directory under ./runs. An --out
    that exists is refused unless it is an empty directory, so no run writes
    into another's files."""
    if args.out:
        run_dir = Path(args.out)
        if run_dir.exists() and not (run_dir.is_dir() and not any(run_dir.iterdir())):
            raise FileExistsError(f"--out {run_dir} exists and is not an empty directory")
        return run_dir
    stamp = time.strftime("%Y%m%d-%H%M%S")
    run_dir = Path("runs") / f"{args.command}-{stamp}"
    n = 1
    while run_dir.exists():
        run_dir = Path("runs") / f"{args.command}-{stamp}-{n}"
        n += 1
    return run_dir


def _run(args) -> int:
    """Run one subcommand. --out is checked before the config is loaded, then
    `args.command_fn` reads and checks every input and returns a writer, so
    a bad input or --out leaves no run directory; the directory then gets
    the effective config, the writer's artifacts (partial ones too, if it
    raises) and `<command>.json`, and stdout one summary line."""
    run_dir = _run_dir(args)
    cfg = _override(load_config(args.config), args)
    write = args.command_fn(args, cfg)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.ini").write_text(cfg.to_ini())
    report, summary = write(run_dir)
    _write_json(run_dir / f"{args.command}.json", report)
    print(f"{summary} ({run_dir})")
    return 0


# ---------------------------------------------------------------- filter


def _cmd_filter(args, cfg: ExperimentConfig):
    v = wiener_filter(read_pgm(args.image_a), read_pgm(args.image_b), cfg.wiener.lam)

    def write(run_dir):
        plane = v[0]
        lo, hi = float(plane.min()), float(plane.max())
        scale = hi - lo if hi > lo else 1.0
        write_pgm(run_dir / "filter.pgm", (plane - lo) / scale)

        center = zero_lag_index(plane.shape)
        argmax = np.unravel_index(int(np.argmax(plane)), plane.shape)
        report = {
            "zero_lag_value": float(plane[center]),
            "concentration": concentration(v),
            "argmax_lag": [int(a - c) for a, c in zip(argmax, center)],
            "normalization": {"min": lo, "max": hi},
            "lambda": cfg.wiener.lam,
        }
        return report, f"filter: concentration {report['concentration']:.4f}"

    return write


# ---------------------------------------------------------------- loss


def _cmd_loss(args, cfg: ExperimentConfig):
    prediction = read_pgm(args.image_a)
    target = read_pgm(args.image_b)
    report = pair_report(prediction, target, cfg.window, cfg.wiener.lam)
    report["metrics"] = compute_metrics(prediction, target)
    return lambda run_dir: (report, f"loss: wiener_loss {report['wiener_loss']:.6g}")


# ---------------------------------------------------------------- recover


def _stride_mask(shape, stride: int) -> np.ndarray:
    rows = np.arange(shape[0]) % stride == 0
    cols = np.arange(shape[1]) % stride == 0
    return np.outer(rows, cols).astype(float)


def _box_sum(a: np.ndarray, r: int) -> np.ndarray:
    """Sum of `a` over the (2r+1)^2 window around each pixel, clipped at the borders."""
    win = np.lib.stride_tricks.sliding_window_view
    rows = win(np.pad(a, ((r, r), (0, 0))), 2 * r + 1, axis=0).sum(axis=-1)
    return win(np.pad(rows, ((0, 0), (r, r))), 2 * r + 1, axis=1).sum(axis=-1)


def _mask_aware_mean_fill(masked: np.ndarray, mask: np.ndarray, stride: int) -> np.ndarray:
    """Fill unobserved pixels with the mean of kept pixels in a local window."""
    total = _box_sum(mask, stride)
    sums = _box_sum(masked * mask, stride)
    means = np.divide(sums, total, out=np.zeros_like(sums), where=total > 0)
    return np.where(mask != 0, masked, means)


def _recover_objective(rc, target: np.ndarray, w_raw: np.ndarray | None, lam: float):
    """x -> (loss, gradient) for the recovery descent, x shaped like target (1, H, W).

    The filter loss keeps the target's quotient kernel and `w_raw`, the raw
    whitening window (None for mse, which reads no window), for the whole
    run, so a step costs two forward real transforms, the filter's inverse
    and the gradient's pruned inverse (its real inverse runs over the kept
    half of the rows only). The whitened
    cotangent is formed in the residual's buffer, so a step allocates no
    copy of it, and the caller updates the iterate in place.
    """
    if rc.loss == "mse":

        def objective(x):  # an overflow ends the descent as a non-finite loss
            diff = x - target
            with np.errstate(over="ignore", invalid="ignore"):
                return 0.5 * float(np.sum(diff**2)), diff

        return objective
    kernel = QuotientKernel(target, target.shape[1:], lam)

    def objective(x):
        value, grad = loss_and_grad(kernel, x, w_raw)
        return float(value), grad

    return objective


def _cmd_recover(args, cfg: ExperimentConfig):
    plane = read_pgm(args.image)[0]
    if plane.max() > plane.min():  # min-max rescale so the target spans [0, 1]
        plane = (plane - plane.min()) / (plane.max() - plane.min())
    rc = cfg.recover
    w_raw = make_window(cfg.window, plane.shape) if rc.loss == "wiener" else None

    mask = _stride_mask(plane.shape, rc.stride)
    masked_plane = plane * mask
    target, masked = plane[None], masked_plane[None]  # the signals (1, H, W)
    baseline = _mask_aware_mean_fill(masked_plane, mask, rc.stride)[None]

    step = rc.step_size
    if step <= 0:
        step = 0.5 if rc.loss == "mse" else 2.0

    def write(run_dir):
        objective = _recover_objective(rc, target, w_raw, cfg.wiener.lam)
        x = masked.copy()
        logged, curve = [], []  # iterations and their losses
        for it in range(rc.iterations):
            try:
                loss_val, grad = objective(x)
            except NumericalError:
                loss_val = float("nan")
            if not np.isfinite(loss_val):
                write_pgm(run_dir / "recovered.pgm", np.clip(x[0], 0, 1))
                raise NumericalError(f"recovery diverged at iteration {it} (last iterate saved)")
            if it % rc.log_every == 0:
                logged.append(it)
                curve.append(loss_val)
            x -= step * grad
        recovered = np.clip(x, 0.0, 1.0)

        write_csv(run_dir / "loss_curve.csv", ["iteration", "loss"], [logged, curve])
        write_pgm(run_dir / "masked.pgm", masked_plane)
        write_pgm(run_dir / "baseline.pgm", baseline[0])
        write_pgm(run_dir / "recovered.pgm", recovered[0])
        report = {
            "loss": rc.loss,
            "stride": rc.stride,
            "iterations": rc.iterations,
            "step_size": step,
            "psnr_masked": psnr(masked, target),
            "psnr_baseline": psnr(baseline, target),
            "psnr_recovered": psnr(recovered, target),
            "final_loss": curve[-1] if curve else None,
        }
        return report, (
            f"recover: psnr masked {report['psnr_masked']:.2f} -> recovered "
            f"{report['psnr_recovered']:.2f}"
        )

    return write


# ---------------------------------------------------------------- diffuse


def _defining_set(cfg: ExperimentConfig) -> np.ndarray:
    """The defining set as a stack (n, C, *extents)."""
    d = cfg.diffusion
    if d.dataset == "toy":
        return two_cluster_latents(
            d.n_defining, dim=d.dim, separation=d.separation, spread=d.spread, seed=d.data_seed
        )[0]
    if d.dataset == "digits":
        return make_digit_set(d.n_defining, size=8, seed=d.data_seed).stack
    return read_idx_images(d.dataset, d.n_defining)[:, np.newaxis]


def _cmd_diffuse(args, cfg: ExperimentConfig):
    d = cfg.diffusion
    defining = _defining_set(cfg)
    model = EnergyModel(defining, WindowSpec(d.penalty_family, d.penalty_b), d.gamma, cfg.wiener.lam)
    schedule = Schedule(
        cosine_schedule(d.T, d.alpha_start, d.alpha_end),
        cosine_schedule(d.T, d.beta_start, d.beta_end),
    )

    def write(run_dir):
        run = run_diffusion(
            model, schedule, d.n_samples, d.init_variance, d.seed,
            snapshot_stride=d.snapshot_stride, k_nearest=d.k_nearest,
        )
        chains, steps = run.energies.shape
        write_csv(
            run_dir / "trajectory.csv",
            ["chain", "step", "energy", "concentration"],
            [
                np.repeat(np.arange(chains), steps),
                np.tile(np.arange(steps), chains),
                run.energies.ravel(),
                run.concentrations.ravel(),
            ],
        )

        if model.defining.ndim == 4:
            _write_sample_grids(run_dir, run)
        else:
            snapshots = run.snapshot_steps.size
            samples = run.samples.reshape(chains * snapshots, -1)
            write_csv(
                run_dir / "samples.csv",
                ["chain", "step"] + [f"x{i}" for i in range(samples.shape[1])],
                [
                    np.repeat(np.arange(chains), snapshots),
                    np.tile(run.snapshot_steps, chains),
                    *samples.T,
                ],
            )

        e0, eT = float(np.mean(run.energies[:, 0])), float(np.mean(run.energies[:, -1]))
        c0, cT = float(np.mean(run.concentrations[:, 0])), float(np.mean(run.concentrations[:, -1]))
        nearest = [nearest_defining_sample(x, model) for x in run.final]
        for chain, (_, dist) in enumerate(nearest):
            if not np.isfinite(dist):
                raise NumericalError(f"chain {chain}: its distance to the defining set overflows")
        report = {
            "n_chains": d.n_samples,
            "steps": d.T,
            "mean_energy_initial": e0,
            "mean_energy_final": eT,
            "mean_concentration_initial": c0,
            "mean_concentration_final": cT,
            "nearest_sample_counts": np.bincount(
                [i for i, _ in nearest], minlength=len(model.defining)
            ).tolist(),
            "mean_distance_to_nearest": float(np.mean([dist for _, dist in nearest])),
        }
        summary = f"diffuse: energy {e0:.3f} -> {eT:.3f}, concentration {c0:.3f} -> {cT:.3f}"
        return report, summary

    return write


def _write_sample_grids(run_dir: Path, run) -> None:
    """One tiled image per snapshot step: chains left to right, row-major, each
    tile padded by a one-pixel zero border that the last row and column drop."""
    n, snapshots, _, h, w = run.samples.shape
    cols = int(np.ceil(np.sqrt(n)))
    rows = int(np.ceil(n / cols))
    tiles = np.zeros((rows * cols, snapshots, h + 1, w + 1))
    tiles[:n, :, :h, :w] = np.clip(run.samples[:, :, 0], 0.0, 1.0)
    grids = tiles.reshape(rows, cols, snapshots, h + 1, w + 1).transpose(2, 0, 3, 1, 4)
    grids = grids.reshape(snapshots, rows * (h + 1), cols * (w + 1))[:, :-1, :-1]
    for step, grid in zip(run.snapshot_steps, grids):
        write_pgm(run_dir / f"samples_step{step:05d}.pgm", grid)


# ---------------------------------------------------------------- knn


def _knn_sets(cfg: ExperimentConfig) -> tuple[LabeledSet, LabeledSet]:
    k = cfg.knn
    if k.data_images:
        full = ingest_idx(k.data_images, k.data_labels or None, k.n_train + k.n_test)
        if len(full) < k.n_train + k.n_test:
            raise ConfigError(
                f"dataset has {len(full)} samples, need n_train+n_test = {k.n_train + k.n_test}"
            )
        base_train = LabeledSet(full.stack[: k.n_train], full.label_ids[: k.n_train])
        test_rows = slice(k.n_train, k.n_train + k.n_test)
        base_test = LabeledSet(full.stack[test_rows], full.label_ids[test_rows])
    else:
        base_train = make_digit_set(k.n_train, size=k.digit_size, seed=k.train_seed)
        base_test = make_digit_set(k.n_test, size=k.digit_size, seed=k.test_seed)
    train_set = make_translated_set(base_train, 0, k.pad, seed=1)
    test_set = make_translated_set(base_test, k.max_shift, k.pad, seed=k.shift_seed)
    return train_set, test_set


def _cmd_knn(args, cfg: ExperimentConfig):
    k = cfg.knn
    train_set, test_set = _knn_sets(cfg)

    def write(run_dir):
        baseline = evaluate_accuracy(train_set, test_set, k.baseline_k)
        ti = evaluate_accuracy(train_set, test_set, k.k, "wiener_ti", cfg.wiener.lam)
        report = {
            "n_train": len(train_set),
            "n_test": len(test_set),
            "max_shift": k.max_shift,
            "pad": k.pad,
            "baseline": {
                "distance": "manhattan",
                "k": k.baseline_k,
                "accuracy": baseline.accuracy,
                "confusion": baseline.confusion,
            },
            "wiener_ti": {
                "distance": "wiener_ti",
                "k": k.k,
                "lambda": cfg.wiener.lam,
                "accuracy": ti.accuracy,
                "confusion": ti.confusion,
            },
            "gap": ti.accuracy - baseline.accuracy,
        }
        return report, (
            f"knn: manhattan {baseline.accuracy:.3f} vs translation-invariant {ti.accuracy:.3f} "
            f"(gap {report['gap']:+.3f}; TI exact on {ti.exact_fraction:.1%} of pairs)"
        )

    return write


# ---------------------------------------------------------------- train


def _train_data(cfg: ExperimentConfig) -> np.ndarray:
    """The training set as a stack (n, C, *extents). Labels are not used; a
    `data_labels` file is read only to check it against the images."""
    t = cfg.train
    if t.data_labels:
        return ingest_idx(t.data_images, t.data_labels, t.n_train).stack
    if t.data_images:
        return read_idx_images(t.data_images, t.n_train)[:, np.newaxis]
    return make_digit_set(t.n_train, size=t.digit_size, seed=t.data_seed).stack


def _cmd_train(args, cfg: ExperimentConfig):
    t = cfg.train
    data = _train_data(cfg)
    model = DenseAutoencoder.initialize(t.width_tuple(), activation=t.activation, seed=t.seed)
    width = data[0].size
    if not model.widths[0] == model.widths[-1] == width:
        raise ConfigError(
            f"[train] widths {t.widths!r} must start and end at the sample width {width}"
        )
    tcfg = t.trainer_config(whitening=cfg.window, lam=cfg.wiener.lam)

    def write(run_dir):
        diverged = None
        try:
            log = train(model, data, tcfg)
        except TrainingDivergedError as exc:
            diverged, log = exc, exc.log  # the log up to the last finite epoch is still written
        logged = len(log.concentrations)  # a diagnostic that diverged leaves its epoch's loss out
        write_csv(
            run_dir / "train_log.csv",
            ["epoch", "loss", "concentration"],
            [list(range(logged)), log.losses[:logged], log.concentrations],
        )
        if diverged is not None:
            raise diverged
        save_model(run_dir / "model.wnae", model)
        report = {
            "loss": t.loss,
            "epochs": t.epochs,
            "n_train": len(data),
            "final_loss": log.losses[-1] if log.losses else None,
            "initial_concentration": log.initial_concentration,
            "final_concentration": log.concentrations[-1] if log.concentrations else None,
        }
        final = f"{log.losses[-1]:.6g}" if log.losses else "n/a"
        return report, f"train[{t.loss}]: final loss {final}"

    return write


# ---------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wienerlab",
        description="Full-lag matching-filter experiments: filters, losses, recovery, "
        "generation, classification, training.",
    )
    parser.add_argument("--version", action="version", version=f"wienerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, command_fn, **overrides):
        """--config and --out, plus one flag per override of a config (section, key)."""
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default=None, help="output directory (default: runs/<cmd>-<stamp>)")
        for flag, (section, key) in overrides.items():
            kind = {"choices": ("mse", "wiener")} if flag == "loss" else {"type": int}
            p.add_argument(f"--{flag}", **kind, help=f"override [{section}] {key}")
        p.set_defaults(command_fn=command_fn, overrides=overrides)

    p = sub.add_parser("filter", help="matching filter between two images")
    p.add_argument("image_a", help="target image (PGM)")
    p.add_argument("image_b", help="source image (PGM)")
    common(p, _cmd_filter)

    p = sub.add_parser("loss", help="loss and distance report between two images")
    p.add_argument("image_a", help="prediction image (PGM)")
    p.add_argument("image_b", help="target image (PGM)")
    common(p, _cmd_loss)

    p = sub.add_parser("recover", help="masked-image recovery by loss descent")
    p.add_argument("image", help="target image (PGM)")
    common(p, _cmd_recover)

    p = sub.add_parser("diffuse", help="Langevin generation from the dataset energy")
    common(p, _cmd_diffuse, seed=("diffusion", "seed"))

    p = sub.add_parser("knn", help="translated-digit classification experiment")
    common(p, _cmd_knn, seed=("knn", "shift_seed"))

    p = sub.add_parser("train", help="autoencoder training under mse or the filter loss")
    common(
        p, _cmd_train, seed=("train", "seed"), loss=("train", "loss"), epochs=("train", "epochs")
    )

    return parser


def _override(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """`cfg` with each override flag given on the command line set in its section."""
    for flag, (section, key) in args.overrides.items():
        value = getattr(args, flag)
        if value is not None:
            cfg = cfg.replace(**{section: getattr(cfg, section).replace(**{key: value})})
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, ShapeError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except WienerlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
