"""The contention observatory: who-kills-whom attribution.

The paper's evaluation (Table 4, Figure 6) turns on *where* and
*between whom* GLSC conflicts happen, but the aggregate counters in
:class:`~repro.sim.stats.MachineStats` only say how often.  This sink
consumes the ``reservation``/``glsc``/``coherence`` event categories
and attributes every conflict:

* **kill matrix** — thread x thread counts of destroyed reservations,
  split by cause, using the ``attacker_core``/``attacker_slot`` fields
  :class:`~repro.obs.events.ReservationLost` carries.  Self-inflicted
  retirements (``consumed``) are excluded; chaos injection and other
  unattributable losses land in the ``env`` row.
* **hot-line table** — top-K line addresses ranked by kills +
  invalidations + failed GLSC element lanes, symbolized through the
  memory image's named regions (:class:`~repro.mem.layout.RegionMap`).
* **contention timeline** — kills and failed lanes per fixed cycle
  window, with *retry-storm* flagging: any window whose failed-lane
  count reaches ``storm_threshold`` is a storm (the signature of the
  livelock-adjacent behaviour Section 4 describes).
* **retry-depth histogram** — for each (thread, line) the length of
  its consecutive-failure streak before a successful scatter-cond,
  binned log-2.

Everything here is *observer-side*: the simulator emits the same
events whether or not this sink is attached, and an unobserved run
still allocates nothing (the ``wants_*`` guards are unchanged).
Aggregation is deterministic — dicts are only ever rendered sorted —
so two observed replays of one spec produce identical reports.

Thread identity follows the machine's cyclic distribution: software
thread ``tid`` runs on core ``tid % n_cores`` in SMT slot
``tid // n_cores``, so a hardware thread ``(core, slot)`` is global
thread ``slot * n_cores + core``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.bus import Sink
from repro.obs.events import ElementOutcome, Invalidation, ReservationLost
from repro.sim.stats import FAILURE_CAUSES, MachineStats

__all__ = ["ContentionSink", "ContentionSummary", "ENV_THREAD"]

#: Attacker id used when the killer is not a thread (chaos injection,
#: prefetch-driven evictions, unknown).
ENV_THREAD = -1

#: Default timeline window, in simulated cycles.
DEFAULT_WINDOW = 2048

#: Default failed-lane count that marks a window as a retry storm.
DEFAULT_STORM_THRESHOLD = 64

#: Default hot-line table size.
DEFAULT_TOP_K = 10


def _depth_bucket(depth: int) -> int:
    """Log-2 lower bound for a retry-depth histogram bin (1,2,4,8,...)."""
    bucket = 1
    while bucket * 2 <= depth:
        bucket *= 2
    return bucket


class ContentionSink(Sink):
    """Accumulates contention attribution from one observed run."""

    categories = ("reservation", "glsc", "coherence")

    def __init__(
        self,
        n_cores: int = 1,
        window: int = DEFAULT_WINDOW,
        top_k: int = DEFAULT_TOP_K,
        storm_threshold: int = DEFAULT_STORM_THRESHOLD,
    ) -> None:
        if n_cores <= 0:
            raise ValueError(f"n_cores must be positive, got {n_cores}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.n_cores = n_cores
        self.window = window
        self.top_k = top_k
        self.storm_threshold = storm_threshold
        # (attacker_tid, victim_tid, cause) -> kills
        self._matrix: Dict[Tuple[int, int, str], int] = {}
        # cause -> kills (matrix marginal, kept for cheap cross-checks)
        self._kills_by_cause: Dict[str, int] = {}
        # "consumed" retirements per kind (scalar consumed == successful
        # sc count, an exact MachineStats cross-check)
        self._consumed: Dict[str, int] = {"scalar": 0, "glsc": 0}
        # line_addr -> [kills, invalidations, failed_lanes]
        self._lines: Dict[int, List[int]] = {}
        # failure cause -> failed element lanes (reproduces
        # MachineStats.glsc_element_failures exactly)
        self._failed_lanes: Dict[str, int] = {c: 0 for c in FAILURE_CAUSES}
        # window index -> [kills, failed_lanes]
        self._timeline: Dict[int, List[int]] = {}
        # (tid, line_addr) -> current consecutive-failure streak
        self._streaks: Dict[Tuple[int, int], int] = {}
        # log2 bucket -> completed streak count
        self._retry_depths: Dict[int, int] = {}
        self._threads: set = set()

    # -- identity ---------------------------------------------------------

    def _tid(self, core: int, slot: int) -> int:
        """Global software-thread id of hardware thread (core, slot)."""
        if core < 0 or slot < 0:
            return ENV_THREAD
        return slot * self.n_cores + core

    # -- event intake -----------------------------------------------------

    def _on_invalidation(self, event: Invalidation) -> None:
        line = self._lines.setdefault(event.line_addr, [0, 0, 0])
        line[1] += 1

    def _on_loss(self, event: ReservationLost) -> None:
        victim = self._tid(event.core, event.slot)
        self._threads.add(victim)
        if event.cause == "consumed":
            self._consumed[event.kind] = (
                self._consumed.get(event.kind, 0) + 1
            )
            return
        attacker = self._tid(event.attacker_core, event.attacker_slot)
        if attacker != ENV_THREAD:
            self._threads.add(attacker)
        key = (attacker, victim, event.cause)
        self._matrix[key] = self._matrix.get(key, 0) + 1
        self._kills_by_cause[event.cause] = (
            self._kills_by_cause.get(event.cause, 0) + 1
        )
        line = self._lines.setdefault(event.line_addr, [0, 0, 0])
        line[0] += 1
        bucket = self._timeline.setdefault(
            event.cycle // self.window, [0, 0]
        )
        bucket[0] += 1

    def _on_element(self, event: ElementOutcome) -> None:
        tid = self._tid(event.core, event.slot)
        self._threads.add(tid)
        streak_key = (tid, event.line_addr)
        if event.ok:
            if event.op == "scattercond":
                depth = self._streaks.pop(streak_key, 0)
                if depth:
                    bucket = _depth_bucket(depth)
                    self._retry_depths[bucket] = (
                        self._retry_depths.get(bucket, 0) + 1
                    )
            return
        cause = event.cause or "thread_conflict"
        self._failed_lanes[cause] = (
            self._failed_lanes.get(cause, 0) + event.lanes
        )
        line = self._lines.setdefault(event.line_addr, [0, 0, 0])
        line[2] += event.lanes
        bucket = self._timeline.setdefault(
            event.cycle // self.window, [0, 0]
        )
        bucket[1] += event.lanes
        self._streaks[streak_key] = self._streaks.get(streak_key, 0) + 1

    #: Event class -> handler; the bus calls these directly.  The
    #: other coherence/glsc/reservation events (Writeback, LineCombine,
    #: ReservationSet) carry no conflict signal.
    handlers = {
        ReservationLost: _on_loss,
        ElementOutcome: _on_element,
        Invalidation: _on_invalidation,
    }

    # -- summary ----------------------------------------------------------

    def summary(
        self,
        regions=None,
        stats: Optional[MachineStats] = None,
    ) -> "ContentionSummary":
        """Freeze the accumulated attribution into a summary.

        ``regions`` (a :class:`~repro.mem.layout.RegionMap`) symbolizes
        hot-line addresses; ``stats`` enables the exact marginal
        cross-checks against the run's counters.
        """
        # Flush unfinished streaks: a thread that never committed its
        # line still retried that many times.
        for depth in self._streaks.values():
            if depth:
                bucket = _depth_bucket(depth)
                self._retry_depths[bucket] = (
                    self._retry_depths.get(bucket, 0) + 1
                )
        self._streaks.clear()

        matrix: Dict[int, Dict[int, Dict[str, int]]] = {}
        for (attacker, victim, cause), count in self._matrix.items():
            matrix.setdefault(attacker, {}).setdefault(victim, {})[
                cause
            ] = count

        ranked = sorted(
            self._lines.items(),
            key=lambda item: (-(sum(item[1])), item[0]),
        )
        hot_lines = []
        for line_addr, (kills, invalidations, failed) in ranked[: self.top_k]:
            hot_lines.append({
                "line_addr": line_addr,
                "region": (
                    regions.symbolize(line_addr)
                    if regions is not None
                    else f"{line_addr:#x}"
                ),
                "kills": kills,
                "invalidations": invalidations,
                "failed_lanes": failed,
                "total": kills + invalidations + failed,
            })

        timeline = []
        storms = []
        for index in sorted(self._timeline):
            kills, failed = self._timeline[index]
            storm = failed >= self.storm_threshold
            if storm:
                storms.append(index)
            timeline.append({
                "window": index,
                "start_cycle": index * self.window,
                "kills": kills,
                "failed_lanes": failed,
                "storm": storm,
            })

        return ContentionSummary(
            n_cores=self.n_cores,
            window=self.window,
            storm_threshold=self.storm_threshold,
            threads=sorted(t for t in self._threads if t != ENV_THREAD),
            matrix=matrix,
            kills_by_cause=dict(self._kills_by_cause),
            consumed=dict(self._consumed),
            failed_lanes={
                cause: lanes
                for cause, lanes in self._failed_lanes.items()
                if lanes
            },
            hot_lines=hot_lines,
            timeline=timeline,
            storms=storms,
            retry_depths=dict(self._retry_depths),
            stats=stats,
        )


class ContentionSummary:
    """The frozen output of one run's :class:`ContentionSink`."""

    def __init__(
        self,
        n_cores: int,
        window: int,
        storm_threshold: int,
        threads: List[int],
        matrix: Dict[int, Dict[int, Dict[str, int]]],
        kills_by_cause: Dict[str, int],
        consumed: Dict[str, int],
        failed_lanes: Dict[str, int],
        hot_lines: List[Dict[str, Any]],
        timeline: List[Dict[str, Any]],
        storms: List[int],
        retry_depths: Dict[int, int],
        stats: Optional[MachineStats] = None,
    ) -> None:
        self.n_cores = n_cores
        self.window = window
        self.storm_threshold = storm_threshold
        self.threads = threads
        self.matrix = matrix
        self.kills_by_cause = kills_by_cause
        self.consumed = consumed
        self.failed_lanes = failed_lanes
        self.hot_lines = hot_lines
        self.timeline = timeline
        self.storms = storms
        self.retry_depths = retry_depths
        self.stats = stats

    # -- marginals --------------------------------------------------------

    @property
    def total_kills(self) -> int:
        return sum(self.kills_by_cause.values())

    def row_sums(self) -> Dict[int, int]:
        """Kills per attacker (matrix row marginals)."""
        out: Dict[int, int] = {}
        for attacker, victims in self.matrix.items():
            out[attacker] = sum(
                count
                for causes in victims.values()
                for count in causes.values()
            )
        return out

    def col_sums(self) -> Dict[int, int]:
        """Kills per victim (matrix column marginals)."""
        out: Dict[int, int] = {}
        for victims in self.matrix.values():
            for victim, causes in victims.items():
                out[victim] = out.get(victim, 0) + sum(causes.values())
        return out

    def crosscheck(self) -> Dict[str, bool]:
        """Exact consistency checks against the run's MachineStats.

        * matrix marginals: row sums == column sums == per-cause kill
          totals (internal exactness of the attribution);
        * ``glsc_element_failures``: the sink's failed-lane tally per
          cause equals the stats counter (the Table 4 breakdown);
        * ``scalar_sc``: ``consumed`` scalar retirements equal
          successful store-conditionals (``sc_count - sc_failures``).
        """
        total = self.total_kills
        checks = {
            "matrix_marginals": (
                sum(self.row_sums().values()) == total
                and sum(self.col_sums().values()) == total
            ),
        }
        if self.stats is not None:
            stats_failures = {
                cause: count
                for cause, count in self.stats.glsc_element_failures.items()
                if count
            }
            checks["glsc_element_failures"] = (
                self.failed_lanes == stats_failures
            )
            checks["scalar_sc"] = (
                self.consumed.get("scalar", 0)
                == self.stats.sc_count - self.stats.sc_failures
            )
        return checks

    # -- serialization ----------------------------------------------------

    def _label(self, tid: int) -> str:
        return "env" if tid == ENV_THREAD else f"t{tid}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able view; keys are sorted/stable for determinism."""
        matrix = {
            self._label(attacker): {
                self._label(victim): {
                    cause: self.matrix[attacker][victim][cause]
                    for cause in sorted(self.matrix[attacker][victim])
                }
                for victim in sorted(self.matrix[attacker])
            }
            for attacker in sorted(self.matrix)
        }
        doc: Dict[str, Any] = {
            "n_cores": self.n_cores,
            "window": self.window,
            "storm_threshold": self.storm_threshold,
            "threads": self.threads,
            "total_kills": self.total_kills,
            "kills_by_cause": {
                cause: self.kills_by_cause[cause]
                for cause in sorted(self.kills_by_cause)
            },
            "consumed": {
                kind: self.consumed[kind]
                for kind in sorted(self.consumed)
            },
            "failed_lanes": {
                cause: self.failed_lanes[cause]
                for cause in sorted(self.failed_lanes)
            },
            "kill_matrix": matrix,
            "row_sums": {
                self._label(t): n
                for t, n in sorted(self.row_sums().items())
            },
            "col_sums": {
                self._label(t): n
                for t, n in sorted(self.col_sums().items())
            },
            "hot_lines": self.hot_lines,
            "timeline": self.timeline,
            "storms": self.storms,
            "retry_depths": {
                str(bucket): self.retry_depths[bucket]
                for bucket in sorted(self.retry_depths)
            },
            "crosscheck": self.crosscheck(),
        }
        if self.stats is not None:
            doc["stats"] = {
                "sc_count": self.stats.sc_count,
                "sc_failures": self.stats.sc_failures,
                "glsc_element_failures": dict(
                    self.stats.glsc_element_failures
                ),
            }
        return doc

    def compact(self) -> Dict[str, Any]:
        """The small per-point block bench trajectories carry."""
        hottest = self.hot_lines[0] if self.hot_lines else None
        deepest = max(self.retry_depths) if self.retry_depths else 0
        return {
            "kills": self.total_kills,
            "by_cause": {
                cause: self.kills_by_cause[cause]
                for cause in sorted(self.kills_by_cause)
            },
            "failed_lanes": sum(self.failed_lanes.values()),
            "hot_line": hottest["region"] if hottest else None,
            "hot_line_total": hottest["total"] if hottest else 0,
            "storms": len(self.storms),
            "max_retry_depth": deepest,
        }

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        """The full report as GitHub-flavoured markdown."""
        lines: List[str] = ["# Contention report", ""]
        lines.append(
            f"- threads: {len(self.threads)}  |  kills: "
            f"{self.total_kills}  |  failed lanes: "
            f"{sum(self.failed_lanes.values())}  |  storms: "
            f"{len(self.storms)}"
        )
        if self.kills_by_cause:
            causes = ", ".join(
                f"{cause}={self.kills_by_cause[cause]}"
                for cause in sorted(self.kills_by_cause)
            )
            lines.append(f"- kills by cause: {causes}")
        checks = self.crosscheck()
        verdict = ", ".join(
            f"{name}={'ok' if passed else 'MISMATCH'}"
            for name, passed in sorted(checks.items())
        )
        lines.append(f"- cross-checks: {verdict}")
        lines.append("")

        lines.append("## Kill matrix (attacker rows, victim columns)")
        lines.append("")
        attackers = sorted(self.matrix)
        victims = sorted(
            {v for victims in self.matrix.values() for v in victims}
        )
        if attackers:
            header = (
                "| attacker \\ victim | "
                + " | ".join(self._label(v) for v in victims)
                + " | total |"
            )
            lines.append(header)
            lines.append("|" + "---|" * (len(victims) + 2))
            rows = self.row_sums()
            for attacker in attackers:
                cells = []
                for victim in victims:
                    causes = self.matrix[attacker].get(victim)
                    cells.append(
                        str(sum(causes.values())) if causes else "0"
                    )
                lines.append(
                    f"| {self._label(attacker)} | "
                    + " | ".join(cells)
                    + f" | {rows[attacker]} |"
                )
        else:
            lines.append("(no reservation kills observed)")
        lines.append("")

        lines.append("## Hot lines")
        lines.append("")
        if self.hot_lines:
            lines.append(
                "| line | region | kills | invalidations | "
                "failed lanes | total |"
            )
            lines.append("|---|---|---|---|---|---|")
            for entry in self.hot_lines:
                lines.append(
                    f"| {entry['line_addr']:#x} | {entry['region']} | "
                    f"{entry['kills']} | {entry['invalidations']} | "
                    f"{entry['failed_lanes']} | {entry['total']} |"
                )
        else:
            lines.append("(no contended lines observed)")
        lines.append("")

        lines.append("## Timeline")
        lines.append("")
        if self.timeline:
            lines.append(
                f"window = {self.window} cycles; storm at >= "
                f"{self.storm_threshold} failed lanes/window"
            )
            lines.append("")
            lines.append("| window | start cycle | kills | "
                         "failed lanes | storm |")
            lines.append("|---|---|---|---|---|")
            for entry in self.timeline:
                lines.append(
                    f"| {entry['window']} | {entry['start_cycle']} | "
                    f"{entry['kills']} | {entry['failed_lanes']} | "
                    f"{'STORM' if entry['storm'] else ''} |"
                )
        else:
            lines.append("(no conflict activity observed)")
        lines.append("")

        lines.append("## Retry depth histogram")
        lines.append("")
        if self.retry_depths:
            lines.append("| depth (log2 bin) | streaks |")
            lines.append("|---|---|")
            for bucket in sorted(self.retry_depths):
                upper = bucket * 2 - 1
                label = str(bucket) if upper == bucket else (
                    f"{bucket}-{upper}"
                )
                lines.append(
                    f"| {label} | {self.retry_depths[bucket]} |"
                )
        else:
            lines.append("(every element group committed first try)")
        lines.append("")
        return "\n".join(lines)
