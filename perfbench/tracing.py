"""Outside-in tracing of wienerlab, and the per-layer metrics computed from it.

Nothing inside the package changes. `Tracer.install` replaces each target
(a module-level function, a method, or a `numpy.fft` function) with a
wrapper that records a span: name, start, end and the span that was open
when it was called. The wrapper is put in place of every binding of the
original object across the `wienerlab` modules, so `from .x import f`
copies are traced too. A target that does not exist at the measured commit
is listed as absent instead of raising, so one benchmark can measure a
parent and a change that renamed or deleted functions.

Spans stay in memory and are written out by `Tracer.dump` when the run
ends. A span's self time is its duration minus its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time

import numpy as np

FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)
FFT_TARGETS = tuple(f"numpy.fft:{n}" for n in FFT_NAMES)

SIGNAL = "wienerlab.spectral:Signal.__post_init__"
WIENER_FILTER = "wienerlab.wiener:wiener_filter"
TI_DISTANCE = "wienerlab.wiener:ti_distance"
GRAD_LOSS = "wienerlab.gradients:grad_wiener_loss"
ENERGY = "wienerlab.gradients:energy_breakdown"
KNN_CLASSIFY = "wienerlab.knn:knn_classify"
ENERGY_MODEL = "wienerlab.diffusion:EnergyModel.__post_init__"
RUN_DIFFUSION = "wienerlab.diffusion:run_diffusion"
TRAIN = "wienerlab.trainer:train"
LOSS_GRAD = "wienerlab.trainer:_batch_loss_and_grad"
DIAGNOSTIC = "wienerlab.trainer:_mean_concentration"
DATASETS = ("wienerlab.datasets:make_digit_set", "wienerlab.datasets:two_cluster_latents")
LOAD_CONFIG = "wienerlab.config:load_config"
WRITERS = ("wienerlab.dataio:write_csv", "wienerlab.dataio:write_pgm", "wienerlab.dataio:save_model")
METRICS = ("wienerlab.metrics:psnr", "wienerlab.metrics:compute_metrics")
CLI_MAIN = "wienerlab.cli:main"
GROUPS = (FFT_TARGETS, DATASETS, WRITERS, METRICS)

TARGETS = (
    *FFT_TARGETS, SIGNAL, WIENER_FILTER, TI_DISTANCE, GRAD_LOSS, ENERGY, KNN_CLASSIFY,
    ENERGY_MODEL, RUN_DIFFUSION, TRAIN, LOSS_GRAD, DIAGNOSTIC, *DATASETS, LOAD_CONFIG,
    *WRITERS, *METRICS, CLI_MAIN,
)


def _resolve(target: str):
    """(owner, attribute, object) for 'module:Qual.name'; raises if absent."""
    modname, qual = target.split(":")
    owner = importlib.import_module(modname)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _knn_label(args, kwargs) -> str:
    try:
        return (args[3] if len(args) > 3 else kwargs["dist"]).kind
    except (IndexError, KeyError, AttributeError):
        return "unknown"


def _fft_work(name: str, args, kwargs, out) -> tuple[int, float, int]:
    """(time-side points, flops, bytes) of one numpy.fft call, computed from shapes.

    Points count the real- or complex-signal side of every transform in the
    batch; flops use the usual 5 N log2 N estimate, halved for real transforms.
    Bytes are input plus output array sizes, not measured memory traffic.
    """
    a = np.asarray(args[0] if args else kwargs["a"])
    base = name.lstrip("i").lstrip("r")
    third = args[2] if len(args) > 2 else None
    if base == "fft":
        axes = (kwargs.get("axis", third if third is not None else -1),)
        s = kwargs.get("n", args[1] if len(args) > 1 else None)
        s = None if s is None else (s,)
    else:
        axes = kwargs.get("axes", third)
        s = kwargs.get("s", args[1] if len(args) > 1 else None)
        if axes is None:
            axes = (-2, -1) if base == "fft2" else (
                tuple(range(-len(s), 0)) if s is not None else tuple(range(out.ndim)))
    lengths = [out.shape[ax] for ax in axes]
    real = name.startswith(("r", "ir"))
    if name.startswith("r"):  # output holds n//2+1 bins on the last axis
        lengths[-1] = s[-1] if s is not None else a.shape[axes[-1]]
    n = math.prod(lengths)
    points = out.size // out.shape[axes[-1]] * lengths[-1]
    flops = 5.0 * points * math.log2(max(n, 2)) / (2.0 if real else 1.0)
    return points, flops, a.nbytes + out.nbytes


class Tracer:
    """Records spans around wienerlab's public boundaries in this process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counters = {"fft.points": 0, "fft.flops": 0.0, "fft.bytes": 0, "dataio.bytes_written": 0}
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self, targets=TARGETS) -> "Tracer":
        for target in targets:
            try:
                owner, attr, original = _resolve(target)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            self._patch(owner, attr, original, wrapper)
            for mod in [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "wienerlab"]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _wrap(self, target: str, fn):
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter
        fixed_id = self._id(target)
        label = _knn_label if target == KNN_CLASSIFY else None
        after = None
        if target in FFT_TARGETS:
            fft_name = target.split(":")[1]
            counters = self.counters

            def after(args, kwargs, out):
                points, flops, nbytes = _fft_work(fft_name, args, kwargs, out)
                counters["fft.points"] += points
                counters["fft.flops"] += flops
                counters["fft.bytes"] += nbytes
        elif target in WRITERS:
            counters = self.counters

            def after(args, kwargs, out):
                counters["dataio.bytes_written"] += os.path.getsize(args[0] if args else kwargs["path"])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(span_name)
            span_name.append(fixed_id if label is None else self._id(f"{target}[{label(args, kwargs)}]"))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def dump(self) -> dict:
        return {
            "names": self.names,
            "span_name": self.span_name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counters": self.counters,
            "absent": self.absent,
        }


class Spans:
    """Per-name call counts, durations and self times of a dumped trace."""

    def __init__(self, dump: dict):
        self.names = dump["names"]
        self.counters = dump["counters"]
        self.absent = set(dump["absent"])
        self.name_of = np.asarray(dump["span_name"], dtype=np.int64)
        self.parent = np.asarray(dump["parent"], dtype=np.int64)
        self.duration = np.asarray(dump["end"]) - np.asarray(dump["start"])
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=self.duration.size
        )
        self.self_time = self.duration - covered

    def _mask(self, targets) -> np.ndarray:
        wanted = set(targets)
        ids = [i for i, n in enumerate(self.names) if n in wanted or n.split("[")[0] in wanted]
        return np.isin(self.name_of, ids)

    def calls(self, *targets) -> int:
        return int(np.count_nonzero(self._mask(targets)))

    def self_s(self, *targets) -> float:
        return float(self.self_time[self._mask(targets)].sum())

    def durations(self, *targets) -> np.ndarray:
        return self.duration[self._mask(targets)]

    def _under(self, parents: np.ndarray) -> np.ndarray:
        """Spans whose direct parent is selected by the mask `parents`."""
        under = np.zeros_like(parents)
        has_parent = self.parent >= 0
        under[has_parent] = parents[self.parent[has_parent]]
        return under

    def outer_s(self, *targets) -> float:
        """Wall time inside the targets, not counting calls nested in one another."""
        mask = self._mask(targets)
        return float(self.duration[mask & ~self._under(mask)].sum())

    def child_calls(self, target, parent_target) -> int:
        mask = self._mask([target]) & self._under(self._mask([parent_target]))
        return int(np.count_nonzero(mask))

    def is_absent(self, targets) -> bool:
        """A metric over a group needs one member of it; any other needs all its targets."""
        present = [t.split("[")[0] not in self.absent for t in targets]
        return not any(present) if tuple(targets) in GROUPS else not all(present)


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(samples) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with at least ten samples
    beyond it; (0, 0) when there are fewer than twenty samples."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(samples, p))
    return 0.0, 0.0


def _p50(samples) -> float:
    return float(np.median(samples)) if len(samples) else 0.0


def _timing_metrics(prefix: str, target: str, scale: float, unit: str, moves: str, on: str):
    return [
        (f"{prefix}.p50_{unit}", unit, (target,), lambda s: _p50(s.durations(target)) * scale, moves, on),
        (f"{prefix}.tail_{unit}", unit, (target,), lambda s: tail(s.durations(target))[1] * scale, moves, on),
        (f"{prefix}.tail_pct", "%", (target,), lambda s: tail(s.durations(target))[0], moves, on),
    ]


# (metric, unit, wrap targets it reads, compute, end-to-end metrics it should
# move, workloads where it mainly moves). Written down before measuring, so
# a change's claim can be checked against where the saving shows.
_KNN = "knn-translated"
_REC = "recover-large"
_DIF = "diffuse-toy"
_TRN = "train-compare"
LAYER_METRICS = [
    ("fft.calls", "count", FFT_TARGETS, lambda s: s.calls(*FFT_TARGETS),
     "run_s, cpu_s", f"{_DIF}, {_TRN}"),
    ("fft.points", "count", FFT_TARGETS, lambda s: s.counters["fft.points"],
     "run_s, cpu_s", f"{_REC}, {_KNN}"),
    ("fft.bytes_computed", "B", FFT_TARGETS, lambda s: s.counters["fft.bytes"],
     "run_s, cpu_s, peak_rss_mb", f"{_REC}, {_KNN}"),
    ("fft.flops_computed", "count", FFT_TARGETS, lambda s: s.counters["fft.flops"],
     "run_s, cpu_s", f"{_REC}, {_KNN}"),
    ("fft.ops_per_byte_computed", "flop/B", FFT_TARGETS,
     lambda s: s.counters["fft.flops"] / s.counters["fft.bytes"] if s.counters["fft.bytes"] else 0.0,
     "run_s", f"{_REC}, {_KNN}"),
    ("fft.self_s", "s", FFT_TARGETS, lambda s: s.self_s(*FFT_TARGETS),
     "run_s, cpu_s", f"{_REC}, {_KNN}"),
    ("spectral.signal.calls", "count", (SIGNAL,), lambda s: s.calls(SIGNAL),
     "run_s", f"{_DIF}, {_TRN}"),
    ("spectral.signal.self_s", "s", (SIGNAL,), lambda s: s.self_s(SIGNAL),
     "run_s", f"{_DIF}, {_TRN}"),
    ("wiener.filter.calls", "count", (WIENER_FILTER,), lambda s: s.calls(WIENER_FILTER),
     "run_s", _TRN),
    ("wiener.filter.self_s", "s", (WIENER_FILTER,), lambda s: s.self_s(WIENER_FILTER),
     "run_s", _TRN),
    ("wiener.ti_distance.calls", "count", (TI_DISTANCE,), lambda s: s.calls(TI_DISTANCE),
     "run_s", _KNN),
]
for _name, _target, _on in (
    ("grad_wiener_loss", GRAD_LOSS, f"{_REC} vs {_TRN}"),
    ("energy_breakdown", ENERGY, _DIF),
):
    LAYER_METRICS += [
        (f"gradients.{_name}.calls", "count", (_target,),
         functools.partial(lambda t, s: s.calls(t), _target), "run_s", _on),
        (f"gradients.{_name}.self_s", "s", (_target,),
         functools.partial(lambda t, s: s.self_s(t), _target), "run_s", _on),
        *_timing_metrics(f"gradients.{_name}", _target, 1e6, "us", "run_s", _on),
    ]
_TI = f"{KNN_CLASSIFY}[wiener_ti]"
LAYER_METRICS += [
    ("knn.classify.calls", "count", (KNN_CLASSIFY,), lambda s: s.calls(KNN_CLASSIFY),
     "run_s, peak_rss_mb", _KNN),
    ("knn.classify_ti.self_s", "s", (KNN_CLASSIFY,), lambda s: s.self_s(_TI),
     "run_s, peak_rss_mb", _KNN),
    ("knn.classify_manhattan.self_s", "s", (KNN_CLASSIFY,),
     lambda s: s.self_s(f"{KNN_CLASSIFY}[manhattan]"), "run_s", _KNN),
    *_timing_metrics("knn.query_ti", _TI, 1e3, "ms", "run_s, peak_rss_mb", _KNN),
    ("diffusion.energy_model.s", "s", (ENERGY_MODEL,), lambda s: s.outer_s(ENERGY_MODEL),
     "run_s", _DIF),
    ("diffusion.run.self_s", "s", (RUN_DIFFUSION,), lambda s: s.self_s(RUN_DIFFUSION),
     "run_s", _DIF),
    ("diffusion.chain_steps", "count", (ENERGY, RUN_DIFFUSION),
     lambda s: s.child_calls(ENERGY, RUN_DIFFUSION), "run_s", _DIF),
    ("trainer.train.self_s", "s", (TRAIN,), lambda s: s.self_s(TRAIN), "run_s", _TRN),
    ("trainer.loss_grad_s", "s", (LOSS_GRAD,), lambda s: s.outer_s(LOSS_GRAD), "run_s", _TRN),
    ("trainer.diagnostic_s", "s", (DIAGNOSTIC,), lambda s: s.outer_s(DIAGNOSTIC), "run_s", _TRN),
    ("datasets.s", "s", DATASETS, lambda s: s.outer_s(*DATASETS), "run_s (small)", "all"),
    ("config.load_s", "s", (LOAD_CONFIG,), lambda s: s.outer_s(LOAD_CONFIG), "run_s (small)", "all"),
    ("dataio.write_s", "s", WRITERS, lambda s: s.outer_s(*WRITERS), "run_s", f"{_DIF}, {_REC}"),
    ("dataio.bytes_written", "B", WRITERS, lambda s: s.counters["dataio.bytes_written"],
     "run_s", f"{_DIF}, {_REC}"),
    ("metrics.s", "s", METRICS, lambda s: s.outer_s(*METRICS), "run_s", _REC),
    ("cli.self_s", "s", (CLI_MAIN,), lambda s: s.self_s(CLI_MAIN), "run_s", f"{_DIF}, {_REC}"),
]


def layer_metrics(dump: dict) -> list[tuple[str, str, float, str]]:
    """(metric, unit, value, status) for every layer metric of one traced run.

    Status is 'absent' when a target it reads does not exist at this commit
    (value 0), 'idle' when the workload never reached it (value 0), else ''.
    """
    spans = Spans(dump)
    rows = []
    for name, unit, targets, compute, _moves, _on in LAYER_METRICS:
        if spans.is_absent(targets):
            rows.append((name, unit, 0.0, "absent"))
            continue
        rows.append((name, unit, float(compute(spans)), "idle" if spans.calls(*targets) == 0 else ""))
    return rows
