"""Load/store unit.

Executes the scalar memory instructions and the *contiguous* SIMD
loads/stores (``vload``/``vstore``), which touch at most a couple of
cache lines and therefore never need the GSU's address-generation
pipeline.

Timing conventions:

* loads (and ``ll``) block the thread for the full access latency —
  the in-order core needs the value;
* stores retire through the write buffer (Figure 1 of the paper), so
  the thread only waits for the port slot, while the coherence state
  change is applied immediately;
* ``sc`` blocks for the full latency — its success flag is a result.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.ports import L1Port
from repro.isa.instructions import Instr
from repro.mem.coherence import CoherenceSystem
from repro.mem.image import MemoryImage, Number
from repro.mem.layout import WORD_BYTES
from repro.sim.config import MachineConfig
from repro.sim.stats import MachineStats

__all__ = ["Lsu"]


class Lsu:
    """Per-core load/store unit."""

    def __init__(
        self,
        core_id: int,
        config: MachineConfig,
        coherence: CoherenceSystem,
        image: MemoryImage,
        stats: MachineStats,
        port: L1Port,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.coherence = coherence
        self.image = image
        self.stats = stats
        self.port = port
        self._line_bytes = config.geometry.line_bytes

    # Every entry point is ``(slot, instr, now) -> (completion, result)``:
    # the operands come from the validated Instr, and the pair is in the
    # order the core's handler returns it.

    # -- scalar ------------------------------------------------------------

    def load(self, slot: int, instr: Instr, now: int) -> Tuple[int, Number]:
        """Scalar load; the result is the word's value."""
        addr = instr.addr
        start = self.port.book(now)
        access = self.coherence.read(
            self.core_id, slot, addr, start, sync=instr.sync
        )
        return start + access.latency, self.image.load_word(addr)

    def store(self, slot: int, instr: Instr, now: int) -> Tuple[int, None]:
        """Scalar store; completes when the write buffer takes it."""
        addr = instr.addr
        start = self.port.book(now)
        self.coherence.write(self.core_id, slot, addr, start, sync=instr.sync)
        self.image.store_word(addr, instr.value)
        return start + 1, None

    def ll(self, slot: int, instr: Instr, now: int) -> Tuple[int, Number]:
        """Load-linked; the result is the word's value."""
        addr = instr.addr
        start = self.port.book(now)
        access = self.coherence.scalar_ll(self.core_id, slot, addr, start)
        value = self.image.load_word(addr)
        self.stats.ll_count += 1
        return start + access.latency, value

    def sc(self, slot: int, instr: Instr, now: int) -> Tuple[int, bool]:
        """Store-conditional; the result is the success flag."""
        addr = instr.addr
        start = self.port.book(now)
        access, success = self.coherence.scalar_sc(
            self.core_id, slot, addr, start
        )
        if success:
            self.image.store_word(addr, instr.value)
        else:
            self.stats.sc_failures += 1
        self.stats.sc_count += 1
        return start + access.latency, success

    # -- contiguous SIMD -----------------------------------------------------

    def vload(
        self, slot: int, instr: Instr, now: int
    ) -> Tuple[int, Tuple[Number, ...]]:
        """Contiguous SIMD load of ``instr.count`` words; the result is
        their values."""
        addr = instr.addr
        width = instr.count
        sync = instr.sync
        line_bytes = self._line_bytes
        completion = now
        line = addr - addr % line_bytes
        end = addr + width * WORD_BYTES - 1
        last_line = end - end % line_bytes
        offset = 0
        book = self.port.book
        read = self.coherence.read
        core_id = self.core_id
        while line <= last_line:
            start = book(now + offset)
            access = read(
                core_id, slot, line if line > addr else addr, start, sync=sync
            )
            acc_end = start + access.latency
            if acc_end > completion:
                completion = acc_end
            line += line_bytes
            offset += 1
        return completion, tuple(self.image.load_words(addr, width))

    def vstore(self, slot: int, instr: Instr, now: int) -> Tuple[int, None]:
        """Contiguous SIMD store under ``instr.mask``; write-buffered."""
        addr = instr.addr
        values = instr.values
        line_bytes = self._line_bytes
        active = instr.mask.active_lanes()
        if not active:
            return now + 1, None
        touched_lines = []
        for lane in active:
            lane_addr = addr + lane * WORD_BYTES
            line = lane_addr - lane_addr % line_bytes
            if line not in touched_lines:
                touched_lines.append(line)
        completion = now
        for offset, line in enumerate(touched_lines):
            start = self.port.book(now + offset)
            self.coherence.write(
                self.core_id, slot, line, start, sync=instr.sync
            )
            completion = max(completion, start + 1)
        for lane in active:
            self.image.store_word(addr + lane * WORD_BYTES, values[lane])
        return completion, None
