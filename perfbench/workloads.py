"""The benchmark's workloads: seeded inputs, CLI invocations and output checks.

Every input comes from the workload seed: the benchmark writes the INI
configs (and, for recover, the PGM image) and the program receives only
those files. Sizes are reduced from the subcommand defaults only where the
`why` of a workload allows it, so that one CLI run takes a few seconds.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Outputs of the run at REF_SEED are compared with reference.json, recorded
# at the commit that introduced the benchmark, within this tolerance.
REF_SEED = 0
REF_RTOL = 1e-6
REF_ATOL = 1e-9
MIN_TI_GAP = 0.2


class CheckFailed(Exception):
    """An output of the program is missing or breaks an invariant."""


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple[str, ...]  # wienerlab CLI arguments, without --out
    byte_stable: tuple[str, ...]  # criterion-8 artifacts: identical across same-seed runs
    required: tuple[str, ...] = ("config.ini",)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[Path, int], list[Invocation]]  # writes inputs under a directory
    summarize: Callable[[dict[str, Path]], dict[str, float]]  # out dir per label -> reference values


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=n)]


def _write_ini(path: Path, section: str, values: dict) -> str:
    lines = [f"[{section}]"] + [f"{k} = {v}" for k, v in values.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _report(out: Path, name: str) -> dict:
    path = out / name
    if not path.is_file():
        raise CheckFailed(f"missing artifact {path.name}")
    return json.loads(path.read_text())


def _finite(values: dict[str, float]) -> dict[str, float]:
    bad = [k for k, v in values.items() if v is None or not math.isfinite(v)]
    if bad:
        raise CheckFailed(f"non-finite outputs: {bad}")
    return values


# ---------------------------------------------------------------- knn-translated


def _knn_prepare(inputs: Path, seed: int) -> list[Invocation]:
    train_seed, test_seed, shift_seed = _seeds(seed, 3)
    cfg = _write_ini(inputs / "knn.ini", "knn", {
        "n_test": 20, "train_seed": train_seed, "test_seed": test_seed, "shift_seed": shift_seed,
    })
    return [Invocation("knn", ("knn", "--config", cfg), ("knn.json",))]


def _knn_summarize(outs: dict[str, Path]) -> dict[str, float]:
    r = _report(outs["knn"], "knn.json")
    gap = r["wiener_ti"]["accuracy"] - r["baseline"]["accuracy"]
    if not gap >= MIN_TI_GAP:
        raise CheckFailed(f"TI-vs-Manhattan accuracy gap {gap:.3f} < {MIN_TI_GAP}")
    return {"manhattan_accuracy": r["baseline"]["accuracy"], "ti_accuracy": r["wiener_ti"]["accuracy"]}


# ---------------------------------------------------------------- recover-large


def smooth_image(seed: int, size: int = 128, blobs: int = 12) -> np.ndarray:
    """A size x size image in [0, 1]: a seeded sum of Gaussian blobs."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size] / size
    img = np.zeros((size, size))
    for _ in range(blobs):
        cx, cy = rng.uniform(0.0, 1.0, size=2)
        width = rng.uniform(0.05, 0.25)
        img += rng.uniform(-1.0, 1.0) * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * width**2))
    return (img - img.min()) / (img.max() - img.min())


def write_pgm(path: Path, img: np.ndarray) -> str:
    q = np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    path.write_bytes(f"P5\n{q.shape[1]} {q.shape[0]}\n255\n".encode() + q.tobytes())
    return str(path)


def _recover_prepare(inputs: Path, seed: int) -> list[Invocation]:
    image = write_pgm(inputs / "target.pgm", smooth_image(seed))
    cfg = _write_ini(inputs / "recover.ini", "recover", {"loss": "wiener", "iterations": 75})
    return [Invocation(
        "recover", ("recover", image, "--config", cfg),
        ("loss_curve.csv", "recovered.pgm", "recover.json"),
        ("config.ini", "masked.pgm", "baseline.pgm"),
    )]


def _recover_summarize(outs: dict[str, Path]) -> dict[str, float]:
    r = _report(outs["recover"], "recover.json")
    values = _finite({k: r[k] for k in ("psnr_masked", "psnr_baseline", "psnr_recovered", "final_loss")})
    if not values["psnr_recovered"] > values["psnr_masked"]:
        raise CheckFailed(
            f"recovered PSNR {values['psnr_recovered']:.3f} not above masked {values['psnr_masked']:.3f}"
        )
    return values


# ---------------------------------------------------------------- diffuse-toy


def _diffuse_prepare(inputs: Path, seed: int) -> list[Invocation]:
    chain_seed, data_seed = _seeds(seed, 2)
    cfg = _write_ini(inputs / "diffuse.ini", "diffusion", {
        "n_samples": 25, "seed": chain_seed, "data_seed": data_seed,
    })
    return [Invocation(
        "diffuse", ("diffuse", "--config", cfg), ("trajectory.csv", "samples.csv", "diffuse.json")
    )]


def _diffuse_summarize(outs: dict[str, Path]) -> dict[str, float]:
    r = _report(outs["diffuse"], "diffuse.json")
    values = _finite({k: r[k] for k in (
        "mean_energy_initial", "mean_energy_final", "mean_concentration_initial",
        "mean_concentration_final", "mean_distance_to_nearest",
    )})
    if not values["mean_energy_final"] < values["mean_energy_initial"]:
        raise CheckFailed("mean diffusion energy did not decrease")
    return values


# ---------------------------------------------------------------- train-compare


def _train_prepare(inputs: Path, seed: int) -> list[Invocation]:
    train_seed, data_seed = _seeds(seed, 2)
    cfg = _write_ini(inputs / "train.ini", "train", {
        "epochs": 5, "seed": train_seed, "data_seed": data_seed,
    })
    stable = ("model.wnae", "train_log.csv", "train.json")
    return [
        Invocation(f"train-{loss}", ("train", "--loss", loss, "--config", cfg), stable)
        for loss in ("mse", "wiener")
    ]


def _train_summarize(outs: dict[str, Path]) -> dict[str, float]:
    values = {}
    for label, out in outs.items():
        r = _report(out, "train.json")
        with open(out / "train_log.csv") as f:
            losses = [float(row["loss"]) for row in csv.DictReader(f)]
        if len(losses) != r["epochs"]:
            raise CheckFailed(f"{label}: {len(losses)} logged epochs, expected {r['epochs']}")
        _finite({f"{label} epoch {i}": v for i, v in enumerate(losses)})
        values.update(_finite({
            f"{label}.final_loss": r["final_loss"],
            f"{label}.initial_concentration": r["initial_concentration"],
            f"{label}.final_concentration": r["final_concentration"],
        }))
    return values


WORKLOADS = {w.name: w for w in (
    Workload(
        "knn-translated",
        "knn with n_test cut to 20: 500 training digits padded to 20x20 against translated queries; "
        "the FFTs of all 500 training planes are redone per query; a Manhattan half bypasses them",
        _knn_prepare, _knn_summarize,
    ),
    Workload(
        "recover-large",
        "75 filter-loss recovery steps on a seeded 128x128 PGM (256x256 transforms): FFT arithmetic "
        "dominates and the fixed target's spectrum is recomputed on every step",
        _recover_prepare, _recover_summarize,
    ),
    Workload(
        "diffuse-toy",
        "diffuse with 25 chains x 200 steps: ~5k energy_breakdown calls on 16-point transforms, "
        "so per-call overhead dominates and lockstep batching of chains would show",
        _diffuse_prepare, _diffuse_summarize,
    ),
    Workload(
        "train-compare",
        "5 epochs of train --loss mse, then --loss wiener, on 500 digits: 2.5k per-sample "
        "grad_wiener_loss calls with a changing target; mse is the diagnostic; only trainer load",
        _train_prepare, _train_summarize,
    ),
)}
