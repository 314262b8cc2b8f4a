"""Where "bit for bit" holds across machines: tiny `knn`, `recover` and
`diffuse` runs repeated in fresh interpreters under other NumPy SIMD levels
and OpenBLAS kernels, against the same runs on the host's own dispatch.

Every artifact is byte-identical under the settings below, except at the
SSE4 level, where these move in the last bits (RTOL_SSE4, per artifact,
about twice the largest relative change measured):
  * `recover`'s loss curve, and so `recover.json`'s final loss: 4.4e-16
    over seven 64x64 smooth images;
  * every number `diffuse` writes: 1.4e-14 in `samples.csv` (on entries
    near zero), 7.3e-16 in `trajectory.csv` and 4.0e-16 in `diffuse.json`,
    over eight chain seeds of the toy run below.
A setting the host cannot run is skipped, as a host without it cannot drift
that way.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wienerlab.dataio import write_pgm

SRC = Path(__file__).parents[1] / "src"
AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
# name -> (environment, the CPU features the host needs for it to differ from its own run)
SETTINGS = {
    "numpy-without-avx512": ({"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512)}, ("X86_V4",)),
    "numpy-at-sse4": ({"NPY_DISABLE_CPU_FEATURES": " ".join(("X86_V3",) + AVX512)}, ("X86_V3",)),
    "openblas-haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, ("AVX2", "FMA3")),
    "openblas-sandybridge": ({"OPENBLAS_CORETYPE": "Sandybridge"}, ("AVX",)),
}
RTOL_SSE4 = {  # artifact -> its relative tolerance at the SSE4 level
    "recover/loss_curve.csv": 1e-15,
    "recover/recover.json": 1e-15,
    "diffuse/samples.csv": 3e-14,
    "diffuse/trajectory.csv": 1.5e-15,
    "diffuse/diffuse.json": 1e-15,
}

RUN = """
import sys
from wienerlab.cli import main
out, knn_ini, image, recover_ini, diffuse_ini = sys.argv[1:]
assert main(["knn", "--config", knn_ini, "--out", out + "/knn"]) == 0
assert main(["recover", image, "--config", recover_ini, "--out", out + "/recover"]) == 0
assert main(["diffuse", "--config", diffuse_ini, "--out", out + "/diffuse"]) == 0
"""


def _host_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return {}
    return __cpu_features__


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("dispatch")
    rng = np.random.default_rng(0)
    y, x = np.mgrid[0:64, 0:64] / 64
    img = np.zeros((64, 64))
    for _ in range(8):
        cx, cy = rng.uniform(0, 1, 2)
        width = rng.uniform(0.05, 0.25)
        img += rng.uniform(-1, 1) * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * width**2))
    write_pgm(root / "smooth.pgm", (img - img.min()) / (img.max() - img.min()))
    (root / "knn.ini").write_text("[knn]\nn_train = 60\nn_test = 12\nk = 5\n")
    (root / "recover.ini").write_text("[recover]\niterations = 40\n")
    (root / "diffuse.ini").write_text("[diffusion]\ndim = 8\nn_samples = 5\nT = 20\n")
    return root


def _run(inputs: Path, name: str, extra: dict) -> Path:
    """The run directory of the three subcommands in a fresh interpreter under `extra`."""
    out = inputs / name
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    env.update(extra, PYTHONPATH=os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")]))
    argv = [str(out), *(str(inputs / n) for n in ("knn.ini", "smooth.pgm", "recover.ini", "diffuse.ini"))]
    proc = subprocess.run(
        [sys.executable, "-c", RUN, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="module")
def host_run(inputs):
    return _run(inputs, "host", {})


def _assert_within(got: Path, want: Path, rtol: float):
    """The numbers of a CSV log (header, then float rows) or of a flat JSON
    report agree within `rtol`, and everything else is equal."""
    if want.suffix == ".csv":
        assert got.read_text().splitlines()[0] == want.read_text().splitlines()[0]
        g, w = (np.loadtxt(path, delimiter=",", skiprows=1) for path in (got, want))
        np.testing.assert_allclose(g, w, rtol=rtol, atol=0)
        return
    g, w = json.loads(got.read_text()), json.loads(want.read_text())
    assert g.keys() == w.keys()
    for key, value in w.items():
        if isinstance(value, float):
            np.testing.assert_allclose(g[key], value, rtol=rtol, atol=0, err_msg=key)
        else:
            assert g[key] == value, key


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_artifacts_match_the_host_dispatch(inputs, host_run, name):
    extra, needs = SETTINGS[name]
    features = _host_features()
    missing = [f for f in needs if not features.get(f)]
    if missing:
        pytest.skip(f"host lacks {missing}")
    other = _run(inputs, name, extra)
    files = sorted(str(p.relative_to(host_run)) for p in host_run.rglob("*") if p.is_file())
    assert files == sorted(str(p.relative_to(other)) for p in other.rglob("*") if p.is_file())
    assert {"knn/knn.json", "recover/recovered.pgm", *RTOL_SSE4} <= set(files)
    for rel in files:
        want, got = host_run / rel, other / rel
        if name == "numpy-at-sse4" and rel in RTOL_SSE4:
            _assert_within(got, want, RTOL_SSE4[rel])
        else:
            assert got.read_bytes() == want.read_bytes(), rel
