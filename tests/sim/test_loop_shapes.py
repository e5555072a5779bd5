"""Cycle-loop goldens for the machine shapes the bench grid skips.

``tests/bench/test_equivalence.py`` pins the 1x1 and 4x4 grid; these
pin the loop on the other shapes — SMT-only (1x2, 1x4), single-thread
cores (4x1), square (2x2) and uneven core counts (3x2) — for every
kernel family, both variants and two SIMD widths, plus the Section 5.2
microbenchmark on 2x2.  ``fs`` is the barrier kernel, so barrier
release is covered on every shape.

Each spec must hit its ``(cycles, stats sha256)`` golden through both
the reference path (:func:`execute_spec`) and one mixed
:class:`BatchRunner` batch.  Regenerate the data file with
``PYTHONPATH=src python tests/sim/test_loop_shapes.py`` only when a
model change is *meant* to move cycles, and say so in the commit.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.suite import point_id
from repro.sim.batch import BatchRunner
from repro.sim.executor import RunSpec, execute_spec

GOLDEN = Path(__file__).parent / "data" / "loop_shapes.json"

SPECS = [
    RunSpec(kernel, "tiny", topology, width, variant)
    for topology in ("1x2", "1x4", "4x1", "2x2", "3x2")
    for kernel in ("tms", "hip", "gbc", "fs")
    for variant in ("base", "glsc")
    for width in (1, 4)
] + [RunSpec.micro(scenario, "2x2") for scenario in "ABCD"]


def digest(stats) -> str:
    payload = json.dumps(
        stats.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def outcomes(stats_list):
    return {
        point_id(spec): {"cycles": stats.cycles, "stats_sha256": digest(stats)}
        for spec, stats in zip(SPECS, stats_list)
    }


def solo():
    return outcomes([execute_spec(spec) for spec in SPECS])


def batched():
    return outcomes([result.stats for result in BatchRunner(SPECS).run()])


@pytest.mark.parametrize("path", [solo, batched], ids=["solo", "batched"])
def test_loop_shapes_match_golden(path):
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == len(SPECS)
    got = path()
    drifted = [pid for pid, want in golden.items() if got[pid] != want]
    assert not drifted, f"{len(drifted)} specs drifted: {drifted}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(solo(), indent=1, sort_keys=True) + "\n")
