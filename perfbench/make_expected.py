"""Regenerate ``perfbench/expected.json`` from the solo simulation path.

    PYTHONPATH=src python3 perfbench/make_expected.py

Simulates every distinct spec of every workload, and the specs that
``perfbench/known_defects.py`` checks, once through
:func:`repro.sim.executor.execute_spec` (one machine at a time, the
reference path) and records ``(cycles, stats sha256)`` per point id.
The grid-batch entries are cross-checked against the 84 goldens in
``tests/bench/data/golden_full.json``; on any disagreement nothing is
written.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.bench.suite import point_id  # noqa: E402
from repro.sim.executor import execute_spec  # noqa: E402

from perfbench.workloads import (  # noqa: E402
    WORKLOADS, known_defect_specs, stats_digest, workload_specs,
)

GOLDEN = ROOT / "tests" / "bench" / "data" / "golden_full.json"


def golden_mismatches(points) -> list:
    """Grid-batch point ids whose expected value differs from the golden."""
    golden = json.loads(GOLDEN.read_text())
    grid = [point_id(spec) for spec in workload_specs("grid-batch")]
    if sorted(grid) != sorted(golden):
        return ["grid-batch point ids differ from the golden file"]
    return [pid for pid in grid if points[pid] != golden[pid]]


def main() -> int:
    points = {}
    specs = [spec for workload in WORKLOADS for spec in workload_specs(workload)]
    for spec in specs + known_defect_specs():
        pid = point_id(spec)
        if pid not in points:
            stats = execute_spec(spec)
            points[pid] = {"cycles": stats.cycles, "stats_sha256": stats_digest(stats)}
            print(f"{pid}: {stats.cycles}", file=sys.stderr)
    bad = golden_mismatches(points)
    if bad:
        print("expected outputs disagree with golden_full.json:", *bad, sep="\n  ", file=sys.stderr)
        return 1
    doc = {
        "generated_by": "perfbench/make_expected.py (solo execute_spec path)",
        "points": dict(sorted(points.items())),
    }
    (Path(__file__).parent / "expected.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
