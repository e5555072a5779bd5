"""Per-phase cycle attribution for bench points.

A bench point's headline is one number (cycles), but the paper's
performance story is about *where* those cycles go: vector memory
operations issuing (gather/scatter occupancy), scalar compute between
them, retries after lost GLSC reservations (Section 4's contention
pathology), and stalls where a thread had nothing in flight.  This
module splits a point's thread-cycle capacity into those four phases
from event-bus data, with no new simulator instrumentation:

* ``gather``  — occupancy of sync (vector-atomic) instructions issued
  while the core was *not* recovering from a failed element — the
  first-attempt cost of gather-link/scatter-cond work;
* ``retry``   — sync-instruction occupancy while the core *was*
  recovering: some element of a previous attempt failed
  (:class:`~repro.obs.events.ElementOutcome` with ``ok=False``) and
  the GLSC loop is re-issuing.  A completed scatter-cond clears the
  flag — the paper's retry loop ends in a successful commit;
* ``compute`` — everything the non-sync instructions occupied;
* ``stall``   — the rest of the capacity: ``cycles x threads`` minus
  all recorded occupancy (threads blocked with nothing retired).

The attribution is a heuristic (the simulator does not tag each
instruction with "this is attempt N"), but it is deterministic, sums
exactly to capacity, and moves the right way under contention — the
property the bench report needs.  ``repro bench run`` collects it via
one extra *untimed* observed pass per point (so the timed samples
stay sinkless and unperturbed), asserting the observed pass retires
identical cycles.
"""

from __future__ import annotations

from typing import Any, Dict, Set

from repro.obs.bus import Sink
from repro.obs.events import ElementOutcome
from repro.sim.trace import TraceEvent

__all__ = ["PhaseSink", "PHASE_NAMES"]

#: Attribution buckets, in render order.
PHASE_NAMES = ("gather", "compute", "retry", "stall")


class PhaseSink(Sink):
    """Accumulates per-phase thread-cycle occupancy from one run."""

    categories = ("instr", "glsc")

    def __init__(self) -> None:
        self.gather = 0
        self.compute = 0
        self.retry = 0
        self._threads: Set[int] = set()
        self._retrying: Dict[int, bool] = {}  # core -> in retry loop

    def _on_instr(self, event: TraceEvent) -> None:
        # One retired instruction's occupancy: TraceEvent.latency,
        # inlined (this runs once per instruction of the run).
        self._threads.add(event.thread)
        latency = event.completion - event.cycle
        if latency < 1:
            latency = 1
        if not event.sync:
            self.compute += latency
        elif self._retrying.get(event.core, False):
            self.retry += latency
        else:
            self.gather += latency

    def _on_element(self, event: ElementOutcome) -> None:
        if not event.ok:
            self._retrying[event.core] = True
        elif event.op == "scattercond":
            # The retry loop ends when the scatter-cond commits.
            self._retrying[event.core] = False

    #: Event class -> handler; the bus calls these directly.
    #: LineCombine, the other glsc event, has no success/failure
    #: signal.
    handlers = {TraceEvent: _on_instr, ElementOutcome: _on_element}

    @property
    def threads(self) -> int:
        """Distinct threads that retired at least one instruction."""
        return len(self._threads)

    def breakdown(self, cycles: int) -> Dict[str, Any]:
        """Split ``cycles`` of machine time into the four phases.

        Capacity is ``cycles x threads`` thread-cycles; the phases sum
        to it exactly (``stall`` absorbs the unrecorded remainder, and
        is clamped at zero if rounding in the latency model ever
        over-attributes).
        """
        threads = max(self.threads, 1)
        capacity = cycles * threads
        busy = self.gather + self.compute + self.retry
        stall = max(capacity - busy, 0)
        out: Dict[str, Any] = {
            "threads": threads,
            "capacity": capacity,
            "gather": self.gather,
            "compute": self.compute,
            "retry": self.retry,
            "stall": stall,
        }
        total = max(busy + stall, 1)
        out["fractions"] = {
            name: out[name] / total for name in PHASE_NAMES
        }
        return out
