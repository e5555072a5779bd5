"""Machine configuration.

Defaults reproduce Table 1 of the paper:

====================  =======================================
Number of cores       1-4
Threads per core      1-4 (SMT)
SIMD width            1, 4, 16
Core issue width      2
Private L1            32 KB, 4-way, 64 B lines, 3-cycle hit
Shared L2             16 MB, 8-way, 16 banks, 12-cycle min
Main memory           280 cycles
GLSC handling rate    1 element / cycle
Min GLSC latency      (4 + SIMD-width) cycles
====================  =======================================

The ``glsc_*`` policy knobs expose the design freedoms Section 3.2
enumerates; defaults match the configuration the paper evaluates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict

from repro.errors import ConfigError
from repro.mem.layout import LineGeometry
from repro.mem.protocol import DEFAULT_PROTOCOL, protocol_names

__all__ = ["MachineConfig", "CONFIG_NAMES", "named_config"]


def _is_pow2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


@dataclass(frozen=True)
class MachineConfig:
    """Full parameterization of the simulated CMP."""

    # -- topology ---------------------------------------------------------
    n_cores: int = 1
    threads_per_core: int = 1
    simd_width: int = 4
    issue_width: int = 2

    # -- coherence protocol ------------------------------------------------
    # Which CoherenceProtocol policy the memory hierarchy runs (see
    # repro.mem.protocol): "msi" (the paper's baseline), "mesi", or
    # "moesi".  Digest-aware: the default is omitted from to_dict(),
    # so pre-seam RunSpec/store digests are unchanged.
    protocol: str = DEFAULT_PROTOCOL

    # -- L1 (private, per core) -------------------------------------------
    l1_size_bytes: int = 32 * 1024
    l1_assoc: int = 4
    line_bytes: int = 64
    l1_hit_latency: int = 3

    # -- L2 (shared, inclusive, banked) -------------------------------------
    l2_size_bytes: int = 16 * 1024 * 1024
    l2_assoc: int = 8
    l2_banks: int = 16
    l2_latency: int = 12
    # Cycles one access occupies its L2 bank; concurrent accesses to
    # the same bank queue (why the L2 is banked at all).
    l2_bank_busy_cycles: int = 2
    remote_l1_latency: int = 12

    # -- main memory ---------------------------------------------------------
    mem_latency: int = 280
    mem_size_bytes: int = 1 << 24

    # -- prefetcher -----------------------------------------------------------
    prefetch_enabled: bool = True
    prefetch_degree: int = 2

    # -- GSU / GLSC policies ---------------------------------------------------
    gsu_combine_lines: bool = True
    # Fixed per-instruction GSU overhead (decode, mask setup, result
    # assembly).  4 cycles makes the all-hit latency exactly the
    # (4 + SIMD-width) minimum of Table 1.
    gsu_assembly_cycles: int = 4
    glsc_fail_on_miss: bool = False
    glsc_fail_on_link_eviction: bool = True
    glsc_alias_in_gather: bool = False
    # 0 means GLSC entries live in the L1 tag array (one per line,
    # Section 3.3's primary design); > 0 selects the alternative small
    # fully-associative buffer with that many entries per core.
    glsc_buffer_entries: int = 0

    # -- failure injection -----------------------------------------------
    # Probability that any given reservation (scalar or GLSC) is
    # spuriously destroyed at each coherence transaction.  The paper's
    # best-effort model explicitly permits this ("it is acceptable to
    # have reservations invalidated for other reasons"), so correctness
    # must hold for any value < 1; used by the failure-injection tests.
    chaos_reservation_loss: float = 0.0
    chaos_seed: int = 12345

    # -- simulation limits --------------------------------------------------
    max_cycles: int = 200_000_000

    def __post_init__(self) -> None:
        if not 1 <= self.n_cores:
            raise ConfigError(f"n_cores must be >= 1, got {self.n_cores}")
        if not 1 <= self.threads_per_core:
            raise ConfigError(
                f"threads_per_core must be >= 1, got {self.threads_per_core}"
            )
        if self.simd_width < 1:
            raise ConfigError(
                f"simd_width must be >= 1, got {self.simd_width}"
            )
        if self.issue_width < 1:
            raise ConfigError(
                f"issue_width must be >= 1, got {self.issue_width}"
            )
        for name in ("l1_assoc", "l2_assoc", "l2_banks", "line_bytes"):
            value = getattr(self, name)
            if not _is_pow2(value):
                raise ConfigError(f"{name} must be a power of two, got {value}")
        if self.l1_size_bytes % (self.line_bytes * self.l1_assoc):
            raise ConfigError(
                "l1_size_bytes must be a multiple of line_bytes * l1_assoc"
            )
        if self.l2_size_bytes % (self.line_bytes * self.l2_assoc):
            raise ConfigError(
                "l2_size_bytes must be a multiple of line_bytes * l2_assoc"
            )
        for name in ("l1_sets", "l2_sets"):
            value = getattr(self, name)
            if not _is_pow2(value):
                raise ConfigError(f"{name} must be a power of two, got {value}")
        for name in (
            "l1_hit_latency",
            "l2_latency",
            "l2_bank_busy_cycles",
            "remote_l1_latency",
            "mem_latency",
            "gsu_assembly_cycles",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.glsc_buffer_entries < 0:
            raise ConfigError("glsc_buffer_entries must be >= 0")
        if self.prefetch_degree < 1:
            raise ConfigError("prefetch_degree must be >= 1")
        if not 0 <= self.chaos_reservation_loss < 1:
            raise ConfigError(
                "chaos_reservation_loss must be in [0, 1) — losing every "
                "reservation would make forward progress impossible"
            )
        if self.protocol not in protocol_names():
            raise ConfigError(
                f"unknown coherence protocol {self.protocol!r}; "
                f"expected one of {protocol_names()}"
            )

    # -- derived -----------------------------------------------------------

    @property
    def n_threads(self) -> int:
        """Total hardware thread contexts (= software threads used)."""
        return self.n_cores * self.threads_per_core

    @property
    def l1_sets(self) -> int:
        """Number of sets in each private L1."""
        return self.l1_size_bytes // (self.line_bytes * self.l1_assoc)

    @property
    def l2_sets(self) -> int:
        """Number of sets in the shared L2 (across all banks)."""
        return self.l2_size_bytes // (self.line_bytes * self.l2_assoc)

    @property
    def geometry(self) -> LineGeometry:
        """Line-address arithmetic helper for this configuration."""
        return LineGeometry(self.line_bytes)

    @property
    def min_glsc_latency(self) -> int:
        """Best-case gather/scatter latency, (4 + SIMD width) in Table 1."""
        return 4 + self.simd_width

    def with_topology(
        self, n_cores: int, threads_per_core: int, simd_width: int = None
    ) -> "MachineConfig":
        """A copy with a different mxn (and optionally SIMD) topology."""
        if simd_width is None:
            simd_width = self.simd_width
        return replace(
            self,
            n_cores=n_cores,
            threads_per_core=threads_per_core,
            simd_width=simd_width,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Every configuration field as a plain JSON-able dict.

        Unlike :meth:`describe` (a human-oriented summary) this is
        lossless: it is the canonical form the run store digests, so a
        new or changed field automatically invalidates cached results.

        One deliberate exception: ``protocol`` is omitted while it
        holds the default (``"msi"``) so that every digest minted
        before the coherence seam existed — result-store entries,
        golden files, trajectory baselines — remains byte-identical.
        A non-default protocol *is* serialized and therefore digests
        differently, as it must.
        """
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if out["protocol"] == DEFAULT_PROTOCOL:
            del out["protocol"]
        return out

    def digest(self) -> str:
        """Stable content hash of the full configuration.

        Computed over the canonical JSON of :meth:`to_dict` with sorted
        keys, so it is independent of field declaration order and
        process hash randomization, and changes whenever any parameter
        (including newly added ones) changes.
        """
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> Dict[str, Any]:
        """A flat dict of the Table 1 parameters, for reporting."""
        return {
            "cores": self.n_cores,
            "threads_per_core": self.threads_per_core,
            "simd_width": self.simd_width,
            "issue_width": self.issue_width,
            "l1": f"{self.l1_size_bytes // 1024}KB, {self.l1_assoc}-way, "
            f"{self.line_bytes}B line",
            "l2": f"{self.l2_size_bytes // (1024 * 1024)}MB, "
            f"{self.l2_assoc}-way, {self.l2_banks} banks",
            "l1_latency": self.l1_hit_latency,
            "min_l2_latency": self.l2_latency,
            "mem_latency": self.mem_latency,
            "min_glsc_latency": self.min_glsc_latency,
        }


#: The four core x thread topologies evaluated in the paper (Figure 6).
CONFIG_NAMES = ("1x1", "1x4", "4x1", "4x4")


def named_config(name: str, simd_width: int = 4, **overrides: Any) -> MachineConfig:
    """Build a config from the paper's ``mxn`` notation (e.g. ``"4x4"``).

    ``m`` is the core count, ``n`` the SMT threads per core, matching
    footnote 2 of the paper.
    """
    try:
        cores_str, threads_str = name.split("x")
        n_cores, threads_per_core = int(cores_str), int(threads_str)
    except ValueError as exc:
        raise ConfigError(f"bad topology name {name!r}; expected 'mxn'") from exc
    return MachineConfig(
        n_cores=n_cores,
        threads_per_core=threads_per_core,
        simd_width=simd_width,
        **overrides,
    )
