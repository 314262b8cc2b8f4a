"""Tests of the benchmark itself: the trace is faithful and changes nothing.

    python3 -m pytest perfbench/tests

Run from the root of a wienerlab checkout. The runs are criterion-8 sized
and go through child.py in fresh processes, as the benchmark's runs do.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import smooth_image, write_pgm  # noqa: E402

SMALL_INI = """\
[diffusion]
T = 25
n_samples = 4
snapshot_stride = 5
[train]
n_train = 64
epochs = 2
[knn]
n_train = 30
n_test = 20
max_shift = 2
pad = 2
[recover]
iterations = 30
"""
COMMANDS = {  # command -> criterion-8 artifacts
    "diffuse": ("trajectory.csv", "samples.csv", "diffuse.json"),
    "train": ("model.wnae", "train_log.csv", "train.json"),
    "knn": ("knn.json",),
    "recover": ("loss_curve.csv", "recovered.pgm", "recover.json"),
}
COUNT_UNITS = ("count", "B")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and two traced child runs of every command on small inputs."""
    work = tmp_path_factory.mktemp("bench")
    cfg = work / "small.ini"
    cfg.write_text(SMALL_INI)
    image = write_pgm(work / "image.pgm", smooth_image(3, size=24))

    def child(tag, trace):
        outs = {cmd: work / tag / cmd for cmd in COMMANDS}
        argvs = [
            [cmd, *([image] if cmd == "recover" else []), "--config", str(cfg), "--out", str(out)]
            for cmd, out in outs.items()
        ]
        return bench.run_child(ROOT, work, argvs, trace, timeout=300), outs

    return {tag: child(tag, trace) for tag, trace in
            (("plain", False), ("traced1", True), ("traced2", True))}


def test_tracing_changes_no_artifact_byte(runs):
    _, plain = runs["plain"]
    _, traced = runs["traced1"]
    for cmd, files in COMMANDS.items():
        for name in files:
            assert (plain[cmd] / name).read_bytes() == (traced[cmd] / name).read_bytes(), f"{cmd}/{name}"


def test_count_metrics_repeat_exactly_across_traced_runs(runs):
    first, second = (tracing.layer_metrics(runs[t][0]["trace"]) for t in ("traced1", "traced2"))
    counts = [(row[0], row[2]) for row in first if row[1] in COUNT_UNITS]
    assert len(counts) >= 10
    assert counts == [(row[0], row[2]) for row in second if row[1] in COUNT_UNITS]
    by_name = dict(counts)
    # every command reached the layers it owns
    for name in ("fft.calls", "spectral.signal.calls", "gradients.grad_wiener_loss.calls",
                 "gradients.energy_breakdown.calls", "knn.classify.calls",
                 "diffusion.chain_steps", "dataio.bytes_written"):
        assert by_name[name] > 0, name


def test_self_times_are_nonnegative_and_sum_to_at_most_run_s(runs):
    for tag in ("traced1", "traced2"):
        res = runs[tag][0]
        spans = tracing.Spans(res["trace"])
        assert np.all(spans.self_time >= 0.0)
        assert spans.self_time.sum() <= sum(res["run_s"])
        rows = tracing.layer_metrics(res["trace"])
        assert all(value >= 0.0 for _, _, value, _ in rows)


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    import wienerlab.cli  # noqa: F401  (loads every module the targets name)
    import wienerlab.trainer as trainer
    import wienerlab.wiener as wiener

    original = wiener.wiener_filter
    monkeypatch.delattr(trainer, "_batch_loss_and_grad")
    monkeypatch.delattr(np.fft, "rfftn")
    missing = ("wienerlab.nowhere:f", "wienerlab.wiener:no_such_function")
    tracer = tracing.Tracer().install(tracing.TARGETS + missing)
    try:
        assert wiener.wiener_filter is not original
        assert trainer.wiener_filter is wiener.wiener_filter  # copies bound by import are traced
        signal = wienerlab.cli.Signal.from_array(np.arange(16.0).reshape(4, 4))
        wiener.wiener_filter(signal, signal, wiener.WienerConfig())
    finally:
        tracer.uninstall()
    assert wiener.wiener_filter is original and trainer.wiener_filter is original
    dump = tracer.dump()
    assert set(dump["absent"]) == {tracing.LOSS_GRAD, "numpy.fft:rfftn", *missing}
    status = {name: s for name, _, _, s in tracing.layer_metrics(dump)}
    assert status["trainer.loss_grad_s"] == "absent"
    assert status["fft.calls"] == ""  # the other numpy.fft functions are still traced
    assert status["wiener.filter.calls"] == ""
    assert status["knn.classify.calls"] == "idle"


@pytest.mark.parametrize("name, shape, kwargs, points, flops", [
    ("fftn", (3, 8, 8), {"axes": (1, 2)}, 192, 5 * 192 * 6),
    ("ifftn", (8, 8), {"s": (16, 16), "axes": (0, 1)}, 256, 5 * 256 * 8),
    ("rfftn", (8, 8), {"s": (16, 16), "axes": (0, 1)}, 256, 2.5 * 256 * 8),
    ("irfftn", (16, 9), {"s": (16, 16), "axes": (0, 1)}, 256, 2.5 * 256 * 8),
    ("fft", (5, 16), {}, 80, 5 * 80 * 4),
])
def test_fft_work_counts_time_side_points(name, shape, kwargs, points, flops):
    a = np.ones(shape)
    out = getattr(np.fft, name)(a, **kwargs)
    got_points, got_flops, nbytes = tracing._fft_work(name, (a,), kwargs, out)
    assert (got_points, got_flops, nbytes) == (points, flops, a.nbytes + out.nbytes)


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diffuse-toy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert not (tmp_path / "perfbench" / ".work").exists()
