"""Bitwise-equivalence gate for simulator hot-path work.

The simulator is a deterministic timing model: optimizations to the
dispatch loop, the cycle loop, or the memory hierarchy must not change
a single cycle count or statistic.  These tests pin every grid point
to a golden ``(cycles, sha256(stats))`` pair captured from the
reference implementation (the pre-optimization loop described in
``sim/machine.py``), so any accidental semantic change — a reordered
round-robin pick, a barrier released one cycle late, a stat counted
twice — fails loudly instead of drifting.

The smoke subset runs in tier-1 on every test invocation; the full
84-point grid is tier-2 (``pytest -m tier2``) and is what the bench
acceptance gate cites.

Regenerating the goldens is a deliberate act: if a model change is
*supposed* to move cycles, recapture with the snippet in each test's
failure message and say so in the commit.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.suite import BenchSuite, point_id
from repro.sim.batch import BatchRunner
from repro.sim.executor import Executor, execute_spec

DATA = Path(__file__).parent / "data"


def stats_digest(stats) -> str:
    """Canonical digest of a MachineStats: sorted, separator-stable."""
    payload = json.dumps(
        stats.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def solo_stats(specs):
    """The reference path: one machine at a time via execute_spec."""
    return [execute_spec(spec, verify=True) for spec in specs]


def batch_stats(specs):
    """The batched path: every spec through one BatchRunner."""
    return [result.stats for result in BatchRunner(specs).run()]


def pooled_stats(specs):
    """The executor's pooled path: one batch group per pool task."""
    results = Executor(jobs=2).run_sweep(specs)
    return [results[spec] for spec in specs]


def check_grid(suite: BenchSuite, golden_name: str, runner=solo_stats) -> None:
    golden = json.loads((DATA / golden_name).read_text())
    specs = list(suite.specs())
    assert len(specs) == len(golden), (
        f"suite {suite.name} has {len(specs)} points but {golden_name} "
        f"holds {len(golden)}; regenerate the golden file"
    )
    mismatches = []
    for spec, stats in zip(specs, runner(specs)):
        pid = point_id(spec)
        want = golden[pid]
        if stats.cycles != want["cycles"]:
            mismatches.append(
                f"{pid}: cycles {stats.cycles} != golden {want['cycles']}"
            )
        elif stats_digest(stats) != want["stats_sha256"]:
            mismatches.append(
                f"{pid}: cycles match but stats digest drifted"
            )
    assert not mismatches, (
        "simulator output drifted from golden "
        + golden_name + ":\n  " + "\n  ".join(mismatches)
    )


def test_smoke_grid_matches_golden():
    """Tier-1: the 16-point smoke grid is bitwise-identical."""
    check_grid(BenchSuite.smoke(), "golden_smoke.json")


def test_smoke_grid_matches_golden_batched():
    """Tier-1: the smoke grid through BatchRunner hits the same goldens.

    The batched backend shares interned inputs and interleaves all
    machines on one event heap; this pins that none of it is
    observable in the results.
    """
    check_grid(BenchSuite.smoke(), "golden_smoke.json", runner=batch_stats)


@pytest.mark.tier2
def test_full_grid_matches_golden():
    """Tier-2: all 84 full-grid points are bitwise-identical."""
    check_grid(BenchSuite.full(), "golden_full.json")


@pytest.mark.tier2
def test_full_grid_matches_golden_batched():
    """Tier-2: all 84 points through BatchRunner are bitwise-identical."""
    check_grid(BenchSuite.full(), "golden_full.json", runner=batch_stats)


@pytest.mark.tier2
def test_full_grid_matches_golden_pooled():
    """Tier-2: all 84 points through Executor(jobs=2) are bitwise-identical."""
    check_grid(BenchSuite.full(), "golden_full.json", runner=pooled_stats)
