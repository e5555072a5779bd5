"""Gather/scatter unit with GLSC support.

This unit implements the paper's four indexed SIMD memory instructions
(`vgather`, `vscatter`, `vgatherlink`, `vscattercond`) with the timing
model of Section 4.1:

* address generation produces **one element address per cycle**, so a
  SIMD-width instruction needs SIMD-width generation cycles; the
  generator is a per-core resource, so another SMT thread's
  gather/scatter queues behind it (GSU instruction buffer);
* requests from one instruction that fall on the **same cache line are
  combined** into a single L1 access (Section 2.2) — this is one of
  the paper's three GLSC benefit sources;
* element accesses **overlap**: each line request is dispatched as its
  address is generated, and the instruction completes at the latest
  element completion (plus result assembly), so two L1 misses overlap
  their latencies — the paper's second benefit source;
* the minimum latency works out to (4 + SIMD-width) cycles, matching
  Table 1.

Element-aliasing resolution (two lanes addressing the same *word*) is
well-defined for the GLSC instructions: exactly one lane wins.  The
paper allows the detection in either instruction; the config knob
``glsc_alias_in_gather`` selects the side, defaulting to
scatter-conditional time.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.ports import L1Port
from repro.isa.masks import Mask
from repro.mem.coherence import CoherenceSystem
from repro.mem.image import MemoryImage
from repro.mem.layout import WORD_BYTES
from repro.obs.events import CacheHit, ElementOutcome, LineCombine
from repro.sim.config import MachineConfig
from repro.sim.stats import MachineStats

__all__ = ["Gsu"]


#: One active lane of an indexed SIMD memory instruction, as the tuple
#: ``(lane, order, addr, line_addr)`` — plain tuples keep the per-lane
#: cost on the hot paths to one allocation.  ``order`` is the lane's
#: position in the address-generation sequence.
_LANE = 0
_ORDER = 1
_ADDR = 2
_LINE = 3
_LaneRequest = Tuple[int, int, int, int]


class Gsu:
    """Per-core gather/scatter unit."""

    def __init__(
        self,
        core_id: int,
        config: MachineConfig,
        coherence: CoherenceSystem,
        image: MemoryImage,
        stats: MachineStats,
        port: L1Port,
        obs=None,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.coherence = coherence
        self.image = image
        self.stats = stats
        self.port = port
        self.obs = obs
        self._gen_free = 0  # when the address generator is next available
        self._line_bytes = config.geometry.line_bytes
        self._assembly_cycles = config.gsu_assembly_cycles
        self._combine_lines = config.gsu_combine_lines
        self._hit_latency = config.l1_hit_latency
        self._alias_in_gather = config.glsc_alias_in_gather

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------

    def _lane_requests(
        self, base: int, indices: Sequence[int], mask: Mask
    ) -> Tuple[List[_LaneRequest], "Dict[int, List[_LaneRequest]]"]:
        """Active-lane requests plus their by-line grouping, in one pass.

        The grouping matches :meth:`_group_by_line` of the same list;
        callers that filter the requests (alias resolution) must
        regroup the survivors — but only when lanes were actually
        dropped, which the hot paths test for.
        """
        line_bytes = self._line_bytes
        requests = []
        groups: Dict[int, List[_LaneRequest]] = {}
        order = 0
        bits = mask._bits
        while bits:
            lane = (bits & -bits).bit_length() - 1  # lowest set bit
            bits &= bits - 1
            addr = base + indices[lane] * WORD_BYTES
            line_addr = addr - addr % line_bytes
            req = (lane, order, addr, line_addr)
            requests.append(req)
            group = groups.get(line_addr)
            if group is None:
                groups[line_addr] = [req]
            else:
                group.append(req)
            order += 1
        return requests, groups

    def _start_generation(self, now: int, n_active: int) -> int:
        """Claim the address generator; returns the start cycle."""
        free = self._gen_free
        start = now if now > free else free
        self._gen_free = start + (n_active if n_active > 1 else 1)
        return start

    def _group_by_line(
        self, requests: List[_LaneRequest]
    ) -> "Dict[int, List[_LaneRequest]]":
        groups: Dict[int, List[_LaneRequest]] = {}
        for req in requests:
            line_addr = req[_LINE]
            group = groups.get(line_addr)
            if group is None:
                groups[line_addr] = [req]
            else:
                group.append(req)
        return groups

    def _resolve_aliases(
        self, requests: List[_LaneRequest]
    ) -> Tuple[List[_LaneRequest], List[_LaneRequest]]:
        """Split requests into per-word winners and alias losers.

        The lowest-ordered lane for each distinct word address wins;
        every other lane aliasing that word fails with cause 'alias'.
        """
        seen = set()
        winners: List[_LaneRequest] = []
        losers: List[_LaneRequest] = []
        for req in requests:
            addr = req[_ADDR]
            if addr in seen:
                losers.append(req)
            else:
                seen.add(addr)
                winners.append(req)
        return winners, losers

    def _charge_combined_lanes(
        self,
        group: List[_LaneRequest],
        slot: int,
        op: str,
        start: int,
        sync: bool,
        completion: int,
    ) -> int:
        """Account for lanes beyond the first in a same-line group.

        With combining enabled they are free (and counted as saved
        atomic-op accesses when the instruction is a sync op); with
        combining disabled each costs its own port slot and L1 access.
        """
        extra = len(group) - 1
        if extra <= 0:
            return completion
        obs = self.obs
        if self._combine_lines:
            if sync:
                self.stats.l1_accesses_saved_by_combining += extra
            if obs is not None and obs.wants_glsc:
                obs.emit(
                    LineCombine(
                        start, self.core_id, slot, group[0][_LINE],
                        op, extra, sync,
                    )
                )
            return completion
        wants_cache = obs is not None and obs.wants_cache
        for req in group[1:]:
            acc_start = self.port.book(start + req[_ORDER] + 1)
            self.stats.l1_accesses += 1
            self.stats.l1_hits += 1
            if sync:
                self.stats.l1_sync_accesses += 1
            if wants_cache:
                obs.emit(
                    CacheHit(
                        acc_start, self.core_id, slot, req[_LINE],
                        "L1", "write" if op == "scatter" else "read",
                    )
                )
            completion = max(
                completion, acc_start + self._hit_latency
            )
        return completion

    # ------------------------------------------------------------------
    # gathers
    # ------------------------------------------------------------------

    def gather(
        self,
        slot: int,
        base: int,
        indices: Sequence[int],
        mask: Mask,
        now: int,
        linked: bool,
        sync: bool = False,
    ) -> Tuple[Tuple[Tuple, Mask], int]:
        """Execute ``vgather`` (linked=False) or ``vgatherlink``.

        Returns ``((values, out_mask), completion_cycle)``.  For plain
        gathers the out mask simply echoes the input mask.
        """
        width = mask.width
        requests, groups = self._lane_requests(base, indices, mask)
        start = self._start_generation(now, len(requests))
        values: List = [0] * width
        out_bits = 0
        sync = sync or linked
        obs = self.obs
        wants_glsc = obs is not None and obs.wants_glsc

        if linked:
            self.stats.gatherlink_count += 1
            self.stats.gatherlink_elements += len(requests)

        if linked and self._alias_in_gather:
            link_candidates, alias_losers = self._resolve_aliases(requests)
            if alias_losers:
                groups = self._group_by_line(link_candidates)
                for req in alias_losers:
                    self.stats.record_glsc_failure("alias")
                    if wants_glsc:
                        obs.emit(
                            ElementOutcome(
                                start, self.core_id, slot, req[_LINE],
                                "gatherlink", 1, False, "alias",
                            )
                        )

        # Pipeline floor: setup/assembly overhead plus one
        # address-generation cycle per active lane gives exactly the
        # (4 + SIMD-width) minimum of Table 1 when everything hits.
        completion = start + self._assembly_cycles + len(requests)
        book = self.port.book
        for line_addr, group in groups.items():
            first = group[0]
            acc_start = book(start + first[_ORDER] + 1)
            if linked:
                access, ok, cause = self.coherence.read_linked(
                    self.core_id, slot, first[_ADDR], acc_start
                )
                if ok:
                    for req in group:
                        out_bits |= 1 << req[_LANE]
                else:
                    self.stats.record_glsc_failure(cause, len(group))
                if wants_glsc:
                    obs.emit(
                        ElementOutcome(
                            acc_start, self.core_id, slot, line_addr,
                            "gatherlink", len(group), ok, cause,
                        )
                    )
            else:
                access = self.coherence.read(
                    self.core_id, slot, first[_ADDR], acc_start, sync=sync
                )
                for req in group:
                    out_bits |= 1 << req[_LANE]
            acc_end = acc_start + access.latency
            if acc_end > completion:
                completion = acc_end
            if len(group) > 1:
                completion = self._charge_combined_lanes(
                    group, slot, "gather", start, sync, completion
                )

        # Every active lane observes the gathered value, even alias
        # losers and link failures (their out-mask bit is simply clear).
        load_word = self.image.load_word
        for req in requests:
            values[req[_LANE]] = load_word(req[_ADDR])

        return (tuple(values), Mask._raw(out_bits, width)), completion

    # ------------------------------------------------------------------
    # scatters
    # ------------------------------------------------------------------

    def scatter(
        self,
        slot: int,
        base: int,
        indices: Sequence[int],
        values: Sequence,
        mask: Mask,
        now: int,
        conditional: bool,
        sync: bool = False,
    ) -> Tuple[Mask, int]:
        """Execute ``vscatter`` (conditional=False) or ``vscattercond``.

        Returns ``(out_mask, completion_cycle)``.  For plain scatters
        the out mask echoes the input mask and aliased lanes resolve
        highest-lane-wins (undefined in the paper's ISA).
        """
        width = mask.width
        requests, groups = self._lane_requests(base, indices, mask)
        start = self._start_generation(now, len(requests))
        out_bits = 0
        sync = sync or conditional
        completion = start + self._assembly_cycles + len(requests)
        obs = self.obs
        wants_glsc = obs is not None and obs.wants_glsc

        store_word = self.image.store_word
        book = self.port.book
        if conditional:
            self.stats.scattercond_count += 1
            self.stats.scattercond_elements += len(requests)
            if not self._alias_in_gather:
                survivors, losers = self._resolve_aliases(requests)
                if losers:
                    groups = self._group_by_line(survivors)
                    for req in losers:
                        self.stats.record_glsc_failure("alias")
                        if wants_glsc:
                            obs.emit(
                                ElementOutcome(
                                    start, self.core_id, slot, req[_LINE],
                                    "scattercond", 1, False, "alias",
                                )
                            )
        for line_addr, group in groups.items():
            first = group[0]
            acc_start = book(start + first[_ORDER] + 1)
            if conditional:
                access, ok, cause = self.coherence.write_conditional(
                    self.core_id, slot, first[_ADDR], acc_start
                )
                if ok:
                    self.stats.scattercond_successes += len(group)
                else:
                    self.stats.record_glsc_failure(cause, len(group))
                if wants_glsc:
                    obs.emit(
                        ElementOutcome(
                            acc_start, self.core_id, slot, line_addr,
                            "scattercond", len(group), ok, cause,
                        )
                    )
            else:
                access = self.coherence.write(
                    self.core_id, slot, first[_ADDR], acc_start, sync=sync
                )
                ok = True
            if ok:
                for req in group:
                    store_word(req[_ADDR], values[req[_LANE]])
                    out_bits |= 1 << req[_LANE]
            acc_end = acc_start + access.latency
            if acc_end > completion:
                completion = acc_end
            if len(group) > 1:
                completion = self._charge_combined_lanes(
                    group, slot, "scatter", start, sync, completion
                )

        return Mask._raw(out_bits, width), completion
