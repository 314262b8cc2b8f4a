"""Record the reference outputs that run.py checks at REF_SEED.

    python3 perfbench/record_reference.py

Run from the root of a wienerlab checkout. It makes one run of every
workload at REF_SEED, checks its invariants, and writes the values the
workload reports to perfbench/reference.json. Record again only when a
change is meant to alter the program's numbers, and say so in the change.
"""

import json
import os
import shutil
import sys
from pathlib import Path

from run import HERE, REFERENCE, WorkloadRun
from workloads import REF_SEED, WORKLOADS


def main() -> int:
    root = Path.cwd()
    reference = {}
    for name in sorted(WORKLOADS):
        work = HERE / ".work" / f"reference-{name}-{os.getpid()}"
        try:
            run = WorkloadRun(root, work, name, REF_SEED, reference=None)
            res = run.sample(trace=False)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if run.failures:
            print(f"{name}: {run.failures[0]}", file=sys.stderr)
            return 1
        reference[name] = res["values"]
        print(f"{name}: {res['values']}")
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
