"""The benchmark's workloads: spec lists, one sweep runner each, checks.

Every workload is a closed loop: one sweep of specs is submitted and
drained to completion in this process, on this thread.  The seed only
permutes the spec list (and with it how specs pack into batches), which
the simulator documents as unobservable, so every seed must produce the
same outputs.

A sweep runner takes the specs and a scratch directory and returns
``(stats, errors, extra)``: ``stats`` maps a point id
(``repro.bench.suite.point_id``) to the :class:`MachineStats` it
produced, ``errors`` maps a point id to why it produced none, and
``extra`` holds the public objects the traced run reads counts from.
Runners never raise for a failing spec; :func:`check_outputs` turns
``stats`` and ``errors`` into the failure list.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.phases import PhaseSink
from repro.bench.suite import BenchSuite, point_id
from repro.harness import experiments
from repro.obs import ContentionSink, EventBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.sweeptrace import new_trace_id
from repro.service import worker
from repro.service.queue import WorkQueue
from repro.sim import executor
from repro.sim.executor import RunSpec, Sweep
from repro.sim.stats import MachineStats
from repro.sim.store import ResultStore

WORKLOADS: Tuple[str, ...] = ("grid-batch", "figures-queue", "observed-table4")

#: Specs per batch (Executor and WorkQueue default packing).
BATCH_SIZE = 16

#: The paper's kernel-averaged Base/GLSC cycle ratios that ``paper_gap``
#: compares against: (figure, topology, SIMD width, paper value).
PAPER_RATIOS: Tuple[Tuple[str, str, int, float], ...] = (
    ("fig6", "1x1", 4, 1.76),
    ("fig6", "4x4", 4, 1.54),
    ("fig8", "4x4", 1, 1.0),
    ("fig8", "4x4", 16, 2.03),
)

#: The dataset each workload's ``paper_gap`` is computed on.
GAP_DATASET = {"grid-batch": "A", "figures-queue": "tiny", "observed-table4": "A"}

#: Why the Fig 7 specs are not in ``figures-queue``: on the batched and
#: queue paths they are simulated wrongly, so no workload may hold them
#: until the program is fixed.  ``perfbench/known_defects.py`` runs them.
KNOWN_DEFECT = (
    "Fig 7 microbenchmark specs on the batched/queue path: KernelBase.rebound "
    "leaves Micro._image on the batch's template image, so every lane reads index 0"
)

Stats = Dict[str, MachineStats]
Errors = Dict[str, str]


def stats_digest(stats: MachineStats) -> str:
    """sha256 of the canonical stats JSON (the goldens' digest)."""
    payload = json.dumps(stats.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def workload_specs(name: str) -> List[RunSpec]:
    """The workload's distinct specs, in canonical (unpermuted) order."""
    if name == "grid-batch":
        return BenchSuite.full().specs()
    if name == "figures-queue":
        tiny = ("tiny",)
        sweep = (
            experiments.sweep_fig5a(datasets=tiny)
            + experiments.sweep_fig5b(datasets=tiny)
            + experiments.sweep_fig6(datasets=tiny)
            + experiments.sweep_table4(datasets=tiny)
            + experiments.sweep_fig8(datasets=tiny)
        )
        for protocol in ("mesi", "moesi"):
            sweep = sweep + Sweep(BenchSuite.smoke().with_protocol(protocol).specs())
        return sweep.distinct()
    if name == "observed-table4":
        return experiments.sweep_table4(datasets=("A", "B")).distinct()
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")


def known_defect_specs() -> List[RunSpec]:
    """The specs left out of every workload because of :data:`KNOWN_DEFECT`."""
    return experiments.sweep_fig7().distinct()


def permuted(specs: Sequence[RunSpec], seed: int) -> List[RunSpec]:
    """The specs in the seed's order (which also sets batch packing)."""
    order = list(specs)
    random.Random(seed).shuffle(order)
    return order


# -- sweep runners -----------------------------------------------------------


def run_grid(specs: Sequence[RunSpec], scratch: Path) -> Tuple[Stats, Errors, Dict]:
    """All specs through one ``Executor(backend="batch")``, no store."""
    runner = executor.Executor(backend="batch", batch_size=BATCH_SIZE)
    try:
        results = runner.run_sweep(specs)
    except Exception as exc:  # noqa: BLE001 — one raising batch fails the sweep
        return {}, {point_id(s): f"sweep raised {exc!r}" for s in specs}, {}
    return {point_id(s): results[s] for s in specs}, {}, {"executor": runner}


def run_queue(specs: Sequence[RunSpec], scratch: Path) -> Tuple[Stats, Errors, Dict]:
    """submit_many -> worker_loop drain -> fresh Executor reads records back.

    This is ``repro experiments --backend queue://`` with the worker in
    this process.  Every queue, store, span and heartbeat file lands
    under ``scratch``.
    """
    registry = MetricsRegistry()
    queue = WorkQueue(scratch / "queue", metrics=registry)
    store_root = scratch / "store"
    digests = [spec.digest() for spec in specs]
    queue.submit_many(specs, BATCH_SIZE, digests=digests, trace_id=new_trace_id())
    summary = worker.worker_loop(
        queue, ResultStore(store_root, metrics=registry),
        worker_id="perfbench", exit_when_empty=True,
    )
    store = ResultStore(store_root, metrics=registry)
    errors: Errors = {}
    present = []
    for spec, digest in zip(specs, digests):
        if digest in store:
            present.append(spec)
        else:
            errors[point_id(spec)] = "worker stored no record"
    reader = executor.Executor(store=store)
    try:
        results = reader.run_sweep(present)
    except Exception as exc:  # noqa: BLE001
        errors.update({point_id(s): f"read-back raised {exc!r}" for s in present})
        results = {}
    # A record the reader could not load was re-simulated in-process,
    # which would hide a broken drain: count it as a failure instead.
    resimulated = {t.digest for t in reader.telemetry if t.source == "simulated"}
    stats: Stats = {}
    for spec, digest in zip(specs, digests):
        if spec not in results:
            continue
        if digest in resimulated:
            errors[point_id(spec)] = "stored record unreadable"
        else:
            stats[point_id(spec)] = results[spec]
    return stats, errors, {"executor": reader, "worker": summary, "store": store}


def run_observed(specs: Sequence[RunSpec], scratch: Path) -> Tuple[Stats, Errors, Dict]:
    """Solo ``execute_spec`` per spec with phase + contention sinks.

    A spec whose ``ContentionSummary.crosscheck()`` does not pass all
    its checks counts as failed, like a spec that raised.
    """
    stats: Stats = {}
    errors: Errors = {}
    summaries = []
    for spec in specs:
        pid = point_id(spec)
        bus = EventBus()
        phases = bus.attach(PhaseSink())
        contention = bus.attach(ContentionSink(n_cores=spec.config().n_cores))
        captured: Dict[str, Any] = {}

        def capture(machine, captured=captured) -> None:
            captured["regions"] = machine.image.regions

        try:
            result = executor.execute_spec(spec, obs=bus, on_machine=capture)
            bus.close()
            phases.breakdown(result.cycles)
            summary = contention.summary(regions=captured.get("regions"), stats=result)
            checks = summary.crosscheck()
        except Exception as exc:  # noqa: BLE001
            errors[pid] = f"raised {exc!r}"
            continue
        summaries.append(summary)
        broken = sorted(name for name, ok in checks.items() if not ok)
        if broken:
            errors[pid] = "contention crosscheck failed: " + ", ".join(broken)
        else:
            stats[pid] = result
    return stats, errors, {"contention": summaries}


RUNNERS = {
    "grid-batch": run_grid,
    "figures-queue": run_queue,
    "observed-table4": run_observed,
}


# -- checks and accuracy -----------------------------------------------------


def load_expected(path: Path) -> Dict[str, Dict[str, Any]]:
    """``{point id: {"cycles", "stats_sha256"}}`` from the shipped file."""
    return json.loads(path.read_text())["points"]


def check_outputs(
    pids: Sequence[str], stats: Stats, errors: Errors,
    expected: Dict[str, Dict[str, Any]],
) -> List[str]:
    """One ``"<point id>: <reason>"`` line per spec that failed.

    A spec fails if it produced no stats (it raised, or a check such as
    the contention crosscheck rejected it), if no expected value exists
    for it, or if its ``(cycles, stats sha256)`` differs from the
    expected value.  Nothing is skipped or dropped.
    """
    failures = []
    for pid in pids:
        want = expected.get(pid)
        if pid in errors:
            failures.append(f"{pid}: {errors[pid]}")
        elif pid not in stats:
            failures.append(f"{pid}: no result")
        elif want is None:
            failures.append(f"{pid}: no expected output")
        elif stats[pid].cycles != want["cycles"]:
            failures.append(
                f"{pid}: cycles {stats[pid].cycles} != expected {want['cycles']}"
            )
        elif stats_digest(stats[pid]) != want["stats_sha256"]:
            failures.append(f"{pid}: cycles match but stats sha256 differs")
    return failures


def paper_gap(stats: Stats, dataset: str) -> Optional[float]:
    """Mean relative error of kernel-averaged Base/GLSC ratios vs the paper.

    Uses every :data:`PAPER_RATIOS` cell for which the run produced both
    variants of every kernel on ``dataset``; ``None`` if there is none.
    """
    from repro.kernels.registry import KERNEL_ORDER

    errors = []
    for _figure, topology, width, paper in PAPER_RATIOS:
        ratios = []
        for kernel in KERNEL_ORDER:
            pair = [
                stats.get(point_id(RunSpec(kernel, dataset, topology, width, v)))
                for v in ("base", "glsc")
            ]
            if None in pair:
                break
            ratios.append(pair[0].cycles / pair[1].cycles)
        else:
            errors.append(abs(statistics.fmean(ratios) - paper) / paper)
    return statistics.fmean(errors) if errors else None
