"""Layer tracing from outside the program, and the per-layer metrics.

:class:`Tracer` wraps the layers' public entry points at runtime (module
functions and class methods; nothing under ``src/`` is edited) with
spans of ``[name, start, end, parent]`` kept in memory.  A span's self
time is its duration minus its children's; a layer's ``*_s`` metric is
the sum of its spans' self times.  Counts are read afterwards from the
public result objects: ``MachineStats``, ``protocol.counts``,
``BatchRunner.info``, ``WorkerSummary``, ``ExecutorCounters`` and
``ContentionSummary``.

:data:`LAYER_METRICS` is the per-layer half of the benchmark's design:
every metric with its unit, which direction is better, and the
end-to-end metric and workload it is predicted to move.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.mem.messages import MSG_KINDS
from repro.sim.stats import MachineStats

_STATS = "simulated count; a simulator-only change must leave it identical on every workload (a move means the model changed: ok_frac)"

#: (name, unit, better, predicted to move).
LAYER_METRICS: Tuple[Tuple[str, str, str, str], ...] = (
    ("host.calib_s", "s", "lower", "never gated: normalises host speed across trajectory entries"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced wall_s of the same sweep"),
    ("machine.run_s", "s", "lower", "grid-batch wall_s/sim_khz (~all of wall); observed-table4 wall_s (~2/3); figures-queue wall_s (inside batch.sim_s)"),
    ("machine.us_per_kcyc", "us/kcyc", "lower", "as machine.run_s, per simulated kcycle"),
    ("machine.ns_per_instr", "ns/instr", "lower", "as machine.run_s, per simulated instruction"),
    ("core.instr_per_kcyc", "1/kcyc", "lower", _STATS),
    ("core.sync_instr_frac", "ratio", "lower", _STATS),
    ("core.mem_stall_frac", "ratio", "lower", _STATS),
    ("gsu.lanes_per_kcyc", "1/kcyc", "higher", _STATS),
    ("gsu.lane_ok_frac", "ratio", "higher", _STATS),
    ("gsu.fail.alias", "count", "lower", _STATS),
    ("gsu.fail.thread_conflict", "count", "lower", _STATS),
    ("gsu.fail.link_stolen", "count", "lower", _STATS),
    ("gsu.fail.eviction", "count", "lower", _STATS),
    ("gsu.combine_saved_frac", "ratio", "higher", _STATS),
    ("lsu.sc_ok_frac", "ratio", "higher", _STATS),
    ("l1.accesses_per_kcyc", "1/kcyc", "lower", _STATS),
    ("l1.miss_frac", "ratio", "lower", _STATS),
    ("l2.miss_frac", "ratio", "lower", _STATS),
    ("dram.accesses_per_kcyc", "1/kcyc", "lower", _STATS),
    ("prefetch.hit_frac", "ratio", "higher", _STATS),
    ("coh.inval_per_kcyc", "1/kcyc", "lower", _STATS),
    ("coh.writebacks_per_kcyc", "1/kcyc", "lower", _STATS),
    ("proto.msgs_per_kcyc", "1/kcyc", "lower", _STATS + "; only figures-queue carries MESI/MOESI traffic"),
    *((f"proto.{kind}", "count", "lower", _STATS) for kind in MSG_KINDS),
    ("batch.setup_s", "s", "lower", "figures-queue wall_s (many small batches); small on grid-batch"),
    ("batch.sim_s", "s", "lower", "grid-batch wall_s; figures-queue wall_s"),
    ("batch.verify_s", "s", "lower", "figures-queue wall_s; small on grid-batch"),
    ("batch.interned_frac", "ratio", "higher", "figures-queue wall_s; small on grid-batch"),
    ("kernel.build_s", "s", "lower", "figures-queue and observed-table4 wall_s (solo path rebuilds the dataset per spec); small on grid-batch"),
    ("image.alloc_s", "s", "lower", "figures-queue and observed-table4 wall_s; small on grid-batch"),
    ("isa.check_s", "s", "lower", "figures-queue and observed-table4 wall_s; small on grid-batch"),
    ("warm.fill_s", "s", "lower", "reads 0: the warm microbenchmark (Fig 7) specs are in no workload while workloads.KNOWN_DEFECT stands; perfbench/known_defects.py runs them"),
    ("verify_s", "s", "lower", "figures-queue and observed-table4 wall_s; small on grid-batch"),
    ("queue.submit_s", "s", "lower", "figures-queue wall_s only; zero elsewhere"),
    ("queue.claim_s", "s", "lower", "figures-queue wall_s only; zero elsewhere"),
    ("queue.ack_s", "s", "lower", "figures-queue wall_s only; zero elsewhere"),
    ("worker.overhead_frac", "ratio", "lower", "figures-queue wall_s only; zero elsewhere"),
    ("store.save_s", "s", "lower", "figures-queue wall_s only"),
    ("store.load_s", "s", "lower", "figures-queue wall_s only"),
    ("store.bytes_per_record", "bytes", "lower", "figures-queue wall_s only"),
    ("executor.lookup_s", "s", "lower", "figures-queue wall_s only"),
    ("executor.store_hits", "count", "higher", "figures-queue only: every record is read back from the store"),
    ("obs.overhead_x", "x", "lower", "observed-table4 wall_s and peak_rss_mb only; grid-batch and figures-queue must not move (zero-allocation guard)"),
    ("obs.summary_s", "s", "lower", "observed-table4 wall_s only"),
    ("obs.kills", "count", "lower", "observed-table4 only; simulated count"),
    ("obs.failed_lanes", "count", "lower", "observed-table4 only; simulated count"),
    ("obs.storms", "count", "lower", "observed-table4 only; simulated count"),
)

#: Which layer metric each span's self time adds to.
SPAN_LAYER = {
    "kernels.make_kernel": "kernel.build_s",
    "kernels.Micro": "kernel.build_s",
    "kernels.allocate": "image.alloc_s",
    "batch.ImageCache.materialize": "image.alloc_s",
    "isa.check_program": "isa.check_s",
    "machine.warm_caches": "warm.fill_s",
    "machine.run": "machine.run_s",
    "runner.verify_run": "verify_s",
    "queue.submit_many": "queue.submit_s",
    "queue.claim": "queue.claim_s",
    "queue.ack": "queue.ack_s",
    "store.save": "store.save_s",
    "store.load": "store.load_s",
    "store.load_record": "store.load_s",
    "executor.run_sweep": "executor.lookup_s",
    "obs.ContentionSink.summary": "obs.summary_s",
    "obs.ContentionSummary.crosscheck": "obs.summary_s",
    "obs.PhaseSink.breakdown": "obs.summary_s",
}

#: What the spans cannot separate from outside the program.
NOT_MEASURABLE = (
    "machine.run_s covers sim.machine, core (gsu/glsc/lsu) and mem "
    "(cache/coherence/protocol) together: the cycle loop calls them "
    "millions of times without a public boundary, so splitting its host "
    "time among them needs spans inside the program",
    "on the batch path the merged event loop is not a public call, so "
    "its share of machine.run_s is BatchRunner.info['sim_s']",
)


class Tracer:
    """In-memory spans around wrapped callables; install/uninstall."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []   # [name, start, end, parent]
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        self.batch_infos: List[Dict[str, Any]] = []
        self.protocol_counts: List[Dict[str, int]] = []

    def wrap(self, owner: Any, attr: str, name: str,
             on_return: Optional[Callable[[tuple, Any], None]] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if on_return is not None:
                on_return(args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self) -> "Tracer":
        """Wrap every layer entry point the benchmark traces."""
        from repro.bench.phases import PhaseSink
        from repro.kernels import registry
        from repro.kernels.micro import Micro
        from repro.obs.contention import ContentionSink, ContentionSummary
        from repro.service import worker
        from repro.service.queue import WorkQueue
        from repro.sim import batch, executor, machine, runner
        from repro.sim.store import ResultStore

        def keep_info(args, _result):
            self.batch_infos.append(dict(args[0].info))

        def keep_counts(args, _result):
            # The dict is updated in place, so it reads final after the run.
            self.protocol_counts.append(args[0].coherence.protocol.counts)

        self.wrap(registry, "make_kernel", "kernels.make_kernel")
        self.wrap(Micro, "__init__", "kernels.Micro")
        for cls in {*registry.KERNELS.values(), Micro}:
            self.wrap(cls, "allocate", "kernels.allocate")
        self.wrap(batch.ImageCache, "materialize", "batch.ImageCache.materialize")
        self.wrap(machine, "check_program", "isa.check_program")
        self.wrap(batch, "check_program", "isa.check_program")
        self.wrap(machine.Machine, "warm_caches", "machine.warm_caches")
        self.wrap(machine.Machine, "run", "machine.run", on_return=keep_counts)
        self.wrap(machine.Machine, "batch_begin", "machine.batch_begin", on_return=keep_counts)
        self.wrap(batch.BatchRunner, "run", "batch.BatchRunner.run", on_return=keep_info)
        self.wrap(runner, "verify_run", "runner.verify_run")
        self.wrap(executor, "execute_spec", "executor.execute_spec")
        self.wrap(executor.Executor, "run_sweep", "executor.run_sweep")
        self.wrap(worker, "worker_loop", "worker.worker_loop")
        for attr in ("submit_many", "claim", "ack"):
            self.wrap(WorkQueue, attr, f"queue.{attr}")
        for attr in ("save", "load", "load_record"):
            self.wrap(ResultStore, attr, f"store.{attr}")
        self.wrap(ContentionSink, "summary", "obs.ContentionSink.summary")
        self.wrap(ContentionSummary, "crosscheck", "obs.ContentionSummary.crosscheck")
        self.wrap(PhaseSink, "breakdown", "obs.PhaseSink.breakdown")
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start - children)
        return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    stats: Iterable[MachineStats],
    extra: Dict[str, Any],
) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value except host/trace/obs overhead.

    ``extra`` is the sweep runner's side output (executor, worker
    summary, store, contention summaries).  Layers a workload does not
    exercise read 0.
    """
    out = {name: 0.0 for name, *_ in LAYER_METRICS}
    for span, seconds in tracer.self_times().items():
        if span in SPAN_LAYER:
            out[SPAN_LAYER[span]] += seconds

    total = MachineStats()
    instructions = sync_instr = stall = thread_cycles = 0
    for s in stats:
        for field in ("cycles", "l1_accesses", "l1_misses", "l2_accesses",
                      "l2_misses", "mem_accesses", "invalidations_sent",
                      "writebacks", "prefetches_issued", "prefetch_hits",
                      "sc_count", "sc_failures", "gatherlink_elements",
                      "scattercond_successes", "l1_sync_accesses",
                      "l1_accesses_saved_by_combining"):
            setattr(total, field, getattr(total, field) + getattr(s, field))
        for cause, count in s.glsc_element_failures.items():
            total.glsc_element_failures[cause] += count
        instructions += s.total_instructions
        sync_instr += sum(t.sync_instructions for t in s.threads)
        stall += s.total_mem_stall_cycles
        thread_cycles += s.cycles * len(s.threads)
    kcyc = total.cycles / 1e3

    infos = tracer.batch_infos
    out["batch.setup_s"] = sum(i["setup_s"] for i in infos)
    out["batch.sim_s"] = sum(i["sim_s"] for i in infos)
    out["batch.verify_s"] = sum(i["verify_s"] for i in infos)
    occupancy = sum(i["occupancy"] for i in infos)
    out["batch.interned_frac"] = _ratio(occupancy - sum(i["interned_images"] for i in infos), occupancy)
    out["machine.run_s"] += out["batch.sim_s"]
    out["machine.us_per_kcyc"] = _ratio(out["machine.run_s"] * 1e6, kcyc)
    out["machine.ns_per_instr"] = _ratio(out["machine.run_s"] * 1e9, instructions)

    out["core.instr_per_kcyc"] = _ratio(instructions, kcyc)
    out["core.sync_instr_frac"] = _ratio(sync_instr, instructions)
    out["core.mem_stall_frac"] = _ratio(stall, thread_cycles)
    out["gsu.lanes_per_kcyc"] = _ratio(total.gatherlink_elements, kcyc)
    out["gsu.lane_ok_frac"] = _ratio(total.scattercond_successes, total.gatherlink_elements)
    for cause in ("alias", "thread_conflict", "link_stolen", "eviction"):
        out[f"gsu.fail.{cause}"] = total.glsc_element_failures[cause]
    out["gsu.combine_saved_frac"] = total.combining_reduction
    out["lsu.sc_ok_frac"] = _ratio(total.sc_count - total.sc_failures, total.sc_count)
    out["l1.accesses_per_kcyc"] = _ratio(total.l1_accesses, kcyc)
    out["l1.miss_frac"] = _ratio(total.l1_misses, total.l1_accesses)
    out["l2.miss_frac"] = _ratio(total.l2_misses, total.l2_accesses)
    out["dram.accesses_per_kcyc"] = _ratio(total.mem_accesses, kcyc)
    out["prefetch.hit_frac"] = _ratio(total.prefetch_hits, total.prefetches_issued)
    out["coh.inval_per_kcyc"] = _ratio(total.invalidations_sent, kcyc)
    out["coh.writebacks_per_kcyc"] = _ratio(total.writebacks, kcyc)
    for kind in MSG_KINDS:
        out[f"proto.{kind}"] = sum(c[kind] for c in tracer.protocol_counts)
    messages = sum(out[f"proto.{k}"] for k in MSG_KINDS if k != "silent_upgrade")
    out["proto.msgs_per_kcyc"] = _ratio(messages, kcyc)

    summary = extra.get("worker")
    if summary is not None:
        out["worker.overhead_frac"] = 1.0 - _ratio(summary.sim_wall_s, summary.wall_time_s)
    store = extra.get("store")
    if store is not None:
        out["store.bytes_per_record"] = _ratio(store.size_bytes(), len(store))
    if extra.get("executor") is not None:
        out["executor.store_hits"] = extra["executor"].counters.store_hits
    for contention in extra.get("contention", ()):
        out["obs.kills"] += contention.total_kills
        out["obs.failed_lanes"] += sum(contention.failed_lanes.values())
        out["obs.storms"] += len(contention.storms)
    return out
