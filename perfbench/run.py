"""Benchmark of the wienerlab CLI: time to result, set-up, CPU, memory, failures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a wienerlab checkout; it needs Python and NumPy and
nothing else. NAME is a workload of workloads.py, or `all` to run each in
turn. Every CLI run happens in a fresh process (child.py), one at a time,
and runs repeat until S seconds are used. Inputs are written from the seed
into perfbench/.work, which is removed when the benchmark ends.

--trace 0 reports end-to-end medians over the runs:
  run_s        wall seconds of cli.main for the workload (time to result)
  setup_s      wall seconds to import wienerlab.cli in a fresh process
  cpu_s        user + system CPU seconds of the run process
  peak_rss_mb  peak resident set size of the run process
The three times are reported at a fixed host speed. A shared host runs the
same code up to 1.5x slower for seconds to minutes at a time, so raw medians
of separate runs disagree by more than a regression worth catching. Before
and after every process the benchmark itself times calibrate(), a fixed
kernel of pure-Python and NumPy FFT work that uses no wienerlab code, and
each sample is scaled by CAL_REF_S over the mean of those two calibration
times: a sample is the seconds it would take where calibrate() takes
CAL_REF_S. Raw medians and the calibration median are printed alongside.
--trace 1 makes untraced runs, then one traced run, and reports the
per-layer metrics of tracing.py and the tracing overhead (traced run_s over
the untraced median).

Every run is checked: exit code 0, all artifacts present, the workload's
invariants, byte-identical criterion-8 artifacts across same-seed runs
(traced ones included), and at REF_SEED the reference values. Human-readable
lines come first (failed_ratio among them); the last stdout line is one
JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import REF_ATOL, REF_RTOL, REF_SEED, WORKLOADS, CheckFailed

T0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
BUDGET_S = 170.0  # the whole benchmark must exit within 180 s
IMPORT_SAMPLES = 3  # import-only processes added to the setup_s samples
TRACE_RESERVE = 1.5  # a traced run costs up to this many untraced runs
CAL_REF_S = 0.15  # nominal seconds of one calibrate(); scaled times are at this speed
_CAL_SIGNAL = np.random.default_rng(0).standard_normal((256, 256))
_CAL_STACK = np.random.default_rng(1).standard_normal((500, 20, 20))  # as knn's training set
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "WIENERLAB_THREADS",
)


def say(line: str = "") -> None:
    print(line, flush=True)


def run_child(root: Path, work: Path, argvs: list[list[str]], trace: bool,
              timeout: float | None = None) -> dict:
    """One fresh process running argvs through cli.main; raises CheckFailed.

    The default timeout is what is left of the benchmark's time budget.
    """
    spec, result = work / "spec.json", work / "result.json"
    spec.write_text(json.dumps({"argvs": argvs, "trace": trace}))
    result.unlink(missing_ok=True)
    src = str(root / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    if timeout is None:
        timeout = max(1.0, BUDGET_S - (time.perf_counter() - T0))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec), str(result)],
            cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise CheckFailed(f"run did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result.is_file():
        raise CheckFailed(f"run process exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    res = json.loads(result.read_text())
    if not Path(res["module"]).resolve().is_relative_to(Path(src).resolve()):
        raise CheckFailed(f"imported {res['module']}, not the checkout's src/")
    if any(code != 0 for code in res["codes"]):
        raise CheckFailed(f"exit codes {res['codes']}: {proc.stderr.strip()[-500:]}")
    return res


class WorkloadRun:
    """Inputs, runs and output checks of one workload at one seed."""

    def __init__(self, root: Path, work: Path, name: str, seed: int, reference: dict | None):
        self.root, self.work, self.workload = root, work, WORKLOADS[name]
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        self.invocations = self.workload.prepare(inputs, seed)
        self.reference = reference
        self.first_outs: dict[str, Path] | None = None
        self.attempted = 0
        self.results: list[dict] = []  # runs that completed, checked or not
        self.failures: list[str] = []

    def sample(self, trace: bool) -> dict | None:
        """One run; its result unless the process failed. Failures are recorded."""
        label = f"run {self.attempted}{' (traced)' if trace else ''}"
        base = self.work / f"run{self.attempted}"
        self.attempted += 1
        outs = {inv.label: base / inv.label for inv in self.invocations}
        argvs = [list(inv.argv) + ["--out", str(outs[inv.label])] for inv in self.invocations]
        res = None
        try:
            res = run_child(self.root, self.work, argvs, trace)
            self.results.append(res)
            res["values"] = self.check(outs)
        except CheckFailed as exc:
            self.failures.append(f"{label}: {exc}")
        if self.first_outs is None and res is not None and "values" in res:
            self.first_outs = outs
        else:
            shutil.rmtree(base, ignore_errors=True)
        return res

    def check(self, outs: dict[str, Path]) -> dict[str, float]:
        for inv in self.invocations:
            for name in inv.required + inv.byte_stable:
                if not (outs[inv.label] / name).is_file():
                    raise CheckFailed(f"{inv.label}: missing artifact {name}")
        values = self.workload.summarize(outs)
        if self.reference is not None:
            for key, ref in self.reference.items():
                got = values.get(key)
                if got is None or not abs(got - ref) <= REF_ATOL + REF_RTOL * abs(ref):
                    raise CheckFailed(f"{key} = {got} differs from reference {ref}")
        if self.first_outs is not None:
            for inv in self.invocations:
                for name in inv.byte_stable:
                    a = (self.first_outs[inv.label] / name).read_bytes()
                    if a != (outs[inv.label] / name).read_bytes():
                        raise CheckFailed(f"{inv.label}/{name} differs between same-seed runs")
        return values


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def calibrate() -> float:
    """Wall seconds of a fixed kernel shaped like the workloads' mix: an
    interpreter-bound loop, per-call NumPy overhead on 16-point transforms,
    256x256 FFT arithmetic and a spectral quotient over a stack of 20x20
    planes. It uses no wienerlab code, so a change to the program cannot
    move it; about CAL_REF_S on a 2-core Xeon VM."""
    t = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    small = _CAL_SIGNAL[0, :16]
    for _ in range(2_500):
        np.abs(np.fft.ifft(np.fft.fft(small)))
    for _ in range(15):
        np.fft.ifft2(np.fft.fft2(_CAL_SIGNAL)).real
    for _ in range(4):
        spec = np.fft.fft2(_CAL_STACK)
        np.fft.ifft2((np.conj(spec) * spec[0] + 1e-3) / (np.abs(spec) ** 2 + 1e-3)).real
    return time.perf_counter() - t


class Speed:
    """Scales samples to the host speed where calibrate() takes CAL_REF_S."""

    def __init__(self):
        calibrate()  # warms NumPy's FFT caches; not used
        self.last = calibrate()
        self.samples = [self.last]

    def scale(self) -> float:
        """Factor for the process that ended since the last call."""
        now = calibrate()
        self.samples.append(now)
        factor = 2.0 * CAL_REF_S / (self.last + now)
        self.last = now
        return factor


def load() -> str:
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


def _timing_line(name: str, values: list[float], unit: str) -> str:
    pct, value = tracing.tail(values)
    tail = f"p{pct:g} {value:.4f} {unit}" if pct else "tail n/a (under 20 samples)"
    return f"  {name:<12} median {statistics.median(values):.4f} {unit}, n={len(values)}, {tail}"


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool) -> tuple[WorkloadRun, dict]:
    """Run one workload for `seconds`; returns the run and its metrics."""
    start = time.perf_counter()
    work = HERE / ".work" / f"{name}-{seed}-{os.getpid()}"
    reference = None
    if seed == REF_SEED:
        reference = json.loads(REFERENCE.read_text()).get(name)
        if reference is None:
            raise CheckFailed(f"{REFERENCE.name} holds no reference for {name}")
    try:
        run = WorkloadRun(root, work, name, seed, reference)
        say(f"workload {name} (seed {seed}, {seconds:g} s, trace {int(trace)}): {run.workload.why}")
        say(f"  load average before: {load()}")
        run_child(root, work, [], False)  # compiles the bytecode caches; not timed
        speed = Speed()
        setup, setup_raw = [], []
        for _ in range(IMPORT_SAMPLES):
            setup_raw.append(run_child(root, work, [], False)["setup_s"])
            setup.append(setup_raw[-1] * speed.scale())
        walls = []
        while True:
            t = time.perf_counter()
            res = run.sample(trace=False)
            factor = speed.scale()
            if res is not None:
                res["scale"] = factor
            walls.append(time.perf_counter() - t)
            now = time.perf_counter()
            need = statistics.median(walls) * (1 + (TRACE_RESERVE if trace else 0))
            if now - T0 + need > BUDGET_S or (len(run.results) >= (1 if trace else 2)
                                                and now + need > start + seconds):
                break
            if not run.results and run.attempted >= 2:
                break
        traced = run.sample(trace=True) if trace and run.results else None
        if traced is not None:
            traced["scale"] = speed.scale()
        say(f"  load average after:  {load()}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if (HERE / ".work").is_dir() and not any((HERE / ".work").iterdir()):
            (HERE / ".work").rmdir()

    for failure in run.failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    say(f"  {'failed_ratio':<12} {len(run.failures) / run.attempted:.4f} ({len(run.failures)} of {run.attempted} runs)")
    untraced = [r for r in run.results if "trace" not in r]
    if not untraced:
        return run, {}
    run_s = [sum(r["run_s"]) * r["scale"] for r in untraced]
    columns = {
        "run_s": (run_s, "s"),
        "setup_s": (setup + [r["setup_s"] * r["scale"] for r in untraced], "s"),
        "cpu_s": ([r["cpu_s"] * r["scale"] for r in untraced], "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in untraced], "MB"),
    }
    if not trace:
        for key, (values, unit) in columns.items():
            say(_timing_line(key, values, unit))
        raw = {
            "run_s": [sum(r["run_s"]) for r in untraced],
            "setup_s": setup_raw + [r["setup_s"] for r in untraced],
            "cpu_s": [r["cpu_s"] for r in untraced],
        }
        say("  unscaled medians: " + ", ".join(
            f"{k} {statistics.median(v):.4f} s" for k, v in raw.items()))
        say(f"  calibrate() median {statistics.median(speed.samples):.4f} s "
            f"(n={len(speed.samples)}; nominal {CAL_REF_S} s)")
        return run, {k: {"value": statistics.median(v), "unit": u} for k, (v, u) in columns.items()}
    if traced is None:
        return run, {}
    return run, layer_report(traced, statistics.median(run_s))


def layer_report(traced: dict, untraced_run_s: float) -> dict:
    dump = traced["trace"]
    traced_run_s = sum(traced["run_s"]) * traced["scale"]
    rows = tracing.layer_metrics(dump) + [
        ("trace.overhead_ratio", "ratio", traced_run_s / untraced_run_s, ""),
        ("trace.spans", "count", float(len(dump["span_name"])), ""),
    ]
    info = {m[0]: (m[4], m[5]) for m in tracing.LAYER_METRICS}
    say(f"  traced run_s {traced_run_s:.4f} s vs untraced median {untraced_run_s:.4f} s "
        f"(overhead x{traced_run_s / untraced_run_s:.3f})")
    say(f"  {'metric':<40} {'value':>16} {'unit':<7} moves / mainly on")
    for name, unit, value, status in rows:
        moves, on = info.get(name, ("", ""))
        note = {"absent": "ABSENT at this commit", "idle": "not exercised"}.get(status, f"{moves} / {on}")
        say(f"  {name:<40} {value:>16.6g} {unit:<7} {note}")
    if dump["absent"]:
        say(f"  absent wrap targets: {', '.join(dump['absent'])}")
    return {name: {"value": value, "unit": unit} for name, unit, value, _ in rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=REF_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark unwinds: subprocess.run kills and reaps the
    # running child, and measure() removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "wienerlab" / "cli.py").is_file():
        print(f"perfbench: no src/wienerlab/cli.py under {root}; run from a wienerlab checkout",
              file=sys.stderr)
        return 2
    say(f"machine: {json.dumps(machine_facts())}")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            run, values = measure(root, name, args.seed, args.seconds, bool(args.trace))
        except CheckFailed as exc:  # the program cannot even be imported
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        if not values:
            print(f"perfbench: {name}: no run produced measurements", file=sys.stderr)
            return 1
        attempted += run.attempted
        failed += len(run.failures)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
