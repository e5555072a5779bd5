"""Show the known defect that keeps the Fig 7 specs out of every workload.

    python3 perfbench/known_defects.py

Runs the 16 Fig 7 microbenchmark specs through the ``figures-queue`` flow
(queue submit, worker drain, store read-back) and checks them against
``perfbench/expected.json``, which holds the solo-path outputs.  Prints one
line per spec that differs and exits 1 while any does, 0 once the batched
path agrees with the solo path.  Takes about 40 s while the defect stands.
"""

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TMP_ROOT = ROOT / ".perfbench_tmp"


def check(specs, scratch: Path):
    """Failure lines of ``specs`` run through the queue flow in ``scratch``."""
    from repro.bench.suite import point_id

    from perfbench import run, workloads

    stats, errors, _ = workloads.run_queue(specs, scratch)
    want = workloads.load_expected(run.EXPECTED)
    return workloads.check_outputs([point_id(s) for s in specs], stats, errors, want)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    specs = workloads.known_defect_specs()
    TMP_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="known-defects-", dir=TMP_ROOT))
    try:
        failures = check(specs, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    print(f"known defect: {workloads.KNOWN_DEFECT}")
    for failure in failures:
        print(f"  FAILED {failure}")
    print(f"{len(failures)}/{len(specs)} specs differ from the solo path")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
