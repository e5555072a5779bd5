"""BenchRunner: execute a suite fresh, N times, and aggregate.

Single-sample wall times lie — a page-cache hiccup or a turbo step
makes one run 30% off.  Following the repeat-and-aggregate
methodology of Schweizer et al.'s atomic-operation cost study, every
point is simulated ``repeats`` times and summarized as median + MAD
(median absolute deviation), which the comparator later uses as the
point's noise bound.

Every repeat is a *fresh* simulation: the runner drives the executor
through the observed-run path (an empty :class:`~repro.obs.bus.
EventBus` — no sinks, so zero event overhead), which by contract
bypasses the memo and the on-disk store and simulates in-process.
That is exactly the property a benchmark needs, reused instead of
re-implemented.

Simulated cycle counts are deterministic, so the runner also asserts
every repeat of a point returns identical cycles — a free
bitwise-reproducibility check on every bench run.

With ``backend="batch"`` the timed repeats instead run through the
executor's unobserved path (:class:`~repro.sim.batch.BatchRunner` —
one process, shared interned inputs, one merged event heap).  Cycles
and stats are bitwise identical to solo mode; only the wall times
change.  Per-point walls are then cycle-proportional shares of each
batch's wall, so individual points' ``sim_khz`` are synthetic — the
honest headline is the *aggregate* (total cycles over total wall),
which is exactly what the trajectory records.

With ``phases=True`` (the default) the runner adds one *untimed*
observed pass per point after the timed repeats, attributing each
point's cycles to gather/compute/retry/stall via
:class:`~repro.bench.phases.PhaseSink` — the timed samples stay
sinkless, and the observed pass must retire identical cycles (another
determinism check, this time sinkless-vs-observed).  The same pass
carries a :class:`~repro.obs.contention.ContentionSink`, so each point
also gets a compact ``contention`` block (kill counts by cause, the
hottest line, storm windows) at no extra simulation cost.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Optional

from repro.errors import VerificationError
from repro.obs.bus import EventBus
from repro.obs.telemetry import run_provenance
from repro.sim.executor import Executor, execute_spec
from repro.sim.stats import MachineStats

from repro.bench.baseline import BENCH_SCHEMA_VERSION, current_git_sha
from repro.bench.fidelity import fidelity_metrics
from repro.bench.phases import PhaseSink
from repro.bench.suite import BenchSuite

__all__ = ["BenchRunner", "mad"]


def mad(samples: List[float]) -> float:
    """Median absolute deviation — the robust noise scale."""
    if len(samples) < 2:
        return 0.0
    center = statistics.median(samples)
    return statistics.median(abs(s - center) for s in samples)


class BenchRunner:
    """Runs a :class:`~repro.bench.suite.BenchSuite` into a bench doc."""

    def __init__(
        self,
        suite: BenchSuite,
        repeats: int = 3,
        git_sha: Optional[str] = None,
        progress=None,
        phases: bool = True,
        backend: str = "solo",
        batch_size: int = 16,
    ) -> None:
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        if backend not in ("solo", "batch"):
            raise ValueError(
                f"backend must be 'solo' or 'batch', got {backend!r}"
            )
        self.suite = suite
        self.repeats = repeats
        self.git_sha = git_sha or current_git_sha()
        self._progress = progress  # callable(str) or None
        self.phases = phases
        self.backend = backend
        self.batch_size = batch_size
        #: Stats per point id from the last :meth:`run` (repeat 0).
        self.stats_by_id: Dict[str, MachineStats] = {}

    def _note(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)

    def run(self) -> Dict[str, Any]:
        """Execute the suite and return the bench document (JSON-able)."""
        specs = self.suite.specs()
        ids = self.suite.ids()
        wall_samples: Dict[str, List[float]] = {pid: [] for pid in ids}
        cycles_seen: Dict[str, int] = {}
        self.stats_by_id = {}

        started = time.perf_counter()
        batched = self.backend == "batch"
        for repeat in range(self.repeats):
            if batched:
                # Unobserved runs need no observer trick: a fresh
                # executor per repeat has an empty memo and no store,
                # so every point simulates fresh through BatchRunner.
                # Per-point walls are the runner's cycle-proportional
                # shares of each batch wall, so their sum (and hence
                # the aggregate sim_khz) reflects real elapsed time.
                executor = Executor(batch_size=self.batch_size)
                results = executor.run_sweep(specs)
            else:
                # A sinkless bus keeps every wants_* flag False (no
                # event overhead) while still forcing the executor's
                # observed path: fresh in-process simulation, no
                # memo/store reads.
                executor = Executor()
                results = executor.run_sweep(specs, obs=EventBus())
            by_label = {
                t.label: t for t in executor.telemetry
                if t.source == "simulated"
            }
            for pid, spec in zip(ids, specs):
                stats = results[spec]
                telemetry = by_label[spec.label()]
                wall_samples[pid].append(telemetry.wall_time_s)
                if repeat == 0:
                    self.stats_by_id[pid] = stats
                    cycles_seen[pid] = stats.cycles
                elif stats.cycles != cycles_seen[pid]:
                    raise VerificationError(
                        f"bench point {pid} is non-deterministic: "
                        f"{cycles_seen[pid]} cycles on repeat 0, "
                        f"{stats.cycles} on repeat {repeat}"
                    )
            self._note(
                f"repeat {repeat + 1}/{self.repeats}: "
                f"{len(specs)} points in "
                f"{time.perf_counter() - started:.1f}s total"
            )

        phases_by_id: Dict[str, Dict[str, Any]] = {}
        contention_by_id: Dict[str, Dict[str, Any]] = {}
        if self.phases:
            from repro.obs.contention import ContentionSink

            for pid, spec in zip(ids, specs):
                bus = EventBus()
                sink = bus.attach(PhaseSink())
                contention = bus.attach(
                    ContentionSink(n_cores=spec.config().n_cores)
                )
                captured: Dict[str, Any] = {}

                def _capture(machine, captured=captured) -> None:
                    captured["regions"] = machine.image.regions

                stats = execute_spec(spec, obs=bus, on_machine=_capture)
                bus.close()
                if stats.cycles != cycles_seen[pid]:
                    raise VerificationError(
                        f"bench point {pid} diverges under observation: "
                        f"{cycles_seen[pid]} cycles sinkless, "
                        f"{stats.cycles} with the phase sink attached"
                    )
                phases_by_id[pid] = sink.breakdown(stats.cycles)
                contention_by_id[pid] = contention.summary(
                    regions=captured.get("regions"), stats=stats
                ).compact()
            self._note(
                f"phase attribution: {len(specs)} observed passes in "
                f"{time.perf_counter() - started:.1f}s total"
            )

        points = []
        for pid, spec in zip(ids, specs):
            samples = wall_samples[pid]
            wall_median = statistics.median(samples)
            stats = self.stats_by_id[pid]
            points.append(
                {
                    "id": pid,
                    "spec": spec.to_dict(),
                    "cycles": stats.cycles,
                    "instructions": stats.total_instructions,
                    "wall_s": {
                        "median": wall_median,
                        "mad": mad(samples),
                        "min": min(samples),
                        "samples": samples,
                    },
                    "cyc_per_s": (
                        stats.cycles / wall_median if wall_median > 0 else 0.0
                    ),
                    "sim_khz": (
                        stats.cycles / wall_median / 1e3
                        if wall_median > 0 else 0.0
                    ),
                    "instr_per_sec": (
                        stats.total_instructions / wall_median
                        if wall_median > 0 else 0.0
                    ),
                    # Wall-free throughput proxy: simulated cycles per
                    # simulated instruction.  Deterministic, so the
                    # comparator can gate on it without noise bounds —
                    # it moves only when the *model* (not the host)
                    # changes speed.
                    "cyc_per_instr": (
                        stats.cycles / stats.total_instructions
                        if stats.total_instructions else 0.0
                    ),
                    "summary": stats.summary(),
                    **(
                        {"phases": phases_by_id[pid]}
                        if pid in phases_by_id else {}
                    ),
                    **(
                        {"contention": contention_by_id[pid]}
                        if pid in contention_by_id else {}
                    ),
                }
            )

        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "git_sha": self.git_sha,
            "created": time.time(),
            "suite": self.suite.name,
            "repeats": self.repeats,
            "backend": self.backend,
            **(
                {"batch_size": self.batch_size}
                if self.backend == "batch" else {}
            ),
            "deterministic": True,  # enforced above, repeat-vs-repeat
            "provenance": run_provenance(time.perf_counter() - started),
            "points": points,
            "fidelity": fidelity_metrics(self.stats_by_id),
        }
