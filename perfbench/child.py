"""Run wienerlab CLI invocations in this fresh process and record their cost.

    python3 perfbench/child.py SPEC.json RESULT.json

SPEC holds {"argvs": [[...], ...], "trace": false}. The import of
wienerlab.cli is timed first (set-up time); then each argv goes through
cli.main, the function behind the `wienerlab` command. CPU seconds and peak
RSS come from this process alone, so threads started by NumPy or its BLAS
are counted. Peak RSS is VmHWM of /proc/self/status: ru_maxrss survives
exec, so it would report the benchmark's own peak whenever that is higher.
With "trace" the wrappers of tracing.py are installed after the import and
the spans are written into RESULT when the runs end.
"""

import json
import resource
import sys
import time
import traceback


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # Linux reports KiB
    return kib / 1024.0


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    t0 = time.perf_counter()
    import wienerlab.cli as cli

    setup_s = time.perf_counter() - t0
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer().install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    run_s, codes = [], []
    for argv in spec["argvs"]:
        t = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a traceback is a failed run, reported by exit code
            traceback.print_exc()
            code = -1
        run_s.append(time.perf_counter() - t)
        codes.append(code)
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "module": cli.__file__,
        "setup_s": setup_s,
        "run_s": run_s,
        "codes": codes,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.dump()
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
