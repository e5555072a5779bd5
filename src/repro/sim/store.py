"""Persistent, content-addressed store of verified run results.

Every simulation the executor performs is keyed by a SHA-256 digest of
the :class:`~repro.sim.executor.RunSpec` *and* the fully resolved
:class:`~repro.sim.config.MachineConfig` (see ``RunSpec.digest``).  A
result therefore survives process exits but is invalidated the moment
any machine parameter, override, or store schema version changes —
there is no way to read a stale number.

Layout (one JSON file per run, atomically written; nothing else)::

    <cache_dir>/
      <digest>.json     {"version", "digest", "spec", "config",
                         "stats", "provenance", "created"}

Records are forward-compatible: loaders ignore keys they do not
recognize, so adding fields (as ``provenance`` was) never invalidates
old caches.

**Concurrent-writer semantics** (the sweep service runs many worker
processes against one store): each :meth:`ResultStore.save` writes a
private temp file and publishes it with ``os.replace``, so a digest's
record file is always exactly one complete JSON document — never torn,
whatever the interleaving.  When several writers race on the *same*
digest the last ``os.replace`` wins; because a digest fixes the spec,
the resolved config, and the deterministic simulation output, the
racing records differ only in their ``provenance``/``created`` blocks,
so which writer wins is unobservable to readers.  Reads write nothing,
so a sweep served entirely from the store leaves it byte-identical.

The default cache directory is ``.glsc-cache/`` in the current working
directory, overridable with the ``REPRO_CACHE_DIR`` environment
variable or the harness ``--cache-dir`` flag.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.sim.stats import MachineStats

__all__ = ["ResultStore", "STORE_VERSION", "default_cache_dir"]

#: Schema version folded into every run digest; bump on any change to
#: the digest payload or the stored-stats format to invalidate cleanly.
STORE_VERSION = 1


def default_cache_dir() -> Path:
    """The default on-disk cache location (env-overridable)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".glsc-cache"))


class ResultStore:
    """Digest-keyed JSON store of :class:`MachineStats` results.

    The store is strictly a cache: entries are immutable once written,
    corrupt or unreadable files behave as misses, and deleting the
    directory is always safe.
    """

    def __init__(
        self,
        root: Optional[Path] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.metrics = metrics if metrics is not None else get_registry()
        self._puts = self.metrics.counter(
            "store_puts_total", "Result records persisted"
        )
        self._put_bytes = self.metrics.counter(
            "store_put_bytes_total",
            "Serialized record bytes written by puts",
        )

    # -- paths ----------------------------------------------------------

    def path_for(self, digest: str) -> Path:
        """Where the result for ``digest`` lives (whether or not it exists)."""
        return self.root / f"{digest}.json"

    # -- read -----------------------------------------------------------

    def load(self, digest: str) -> Optional[MachineStats]:
        """The stored stats for ``digest``, or ``None`` on a miss."""
        record = self.load_record(digest)
        if record is None:
            return None
        return MachineStats.from_dict(record["stats"])

    def load_record(self, digest: str) -> Optional[Dict[str, Any]]:
        """The full stored record (spec/config/stats), or ``None``."""
        path = self.path_for(digest)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(record, dict)
            or record.get("version") != STORE_VERSION
            or record.get("digest") != digest
            or "stats" not in record
        ):
            return None
        return record

    def __contains__(self, digest: str) -> bool:
        return self.load_record(digest) is not None

    def digests(self) -> Iterator[str]:
        """All digests currently present on disk."""
        if not self.root.is_dir():
            return iter(())
        return (p.stem for p in sorted(self.root.glob("*.json")))

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    # -- write ----------------------------------------------------------

    def save(
        self,
        digest: str,
        stats: MachineStats,
        spec: Optional[Dict[str, Any]] = None,
        config: Optional[Dict[str, Any]] = None,
        provenance: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist one result; atomic against concurrent writers.

        The write goes to a temp file in the same directory followed by
        ``os.replace``, so parallel executors (or service workers on
        other hosts sharing the directory) racing on the same digest
        end with one complete file, never a torn one; the last writer
        wins, and racing records are value-equal apart from provenance
        (see the module docstring for the full contract).

        ``provenance`` records how the number was produced (repro
        version, python/platform, wall time, worker pid — see
        :func:`repro.obs.telemetry.run_provenance`), keeping stored
        results auditable.  Readers ignore keys they do not know, so
        records written before this field existed stay loadable.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        # Serialize exactly once: the record serializes to one payload
        # whose bytes are both what hits the disk and what the
        # put-bytes counter measures.
        record = {
            "version": STORE_VERSION,
            "digest": digest,
            "spec": spec or {},
            "config": config or {},
            "stats": stats.to_dict(),
            "provenance": provenance or {},
            "created": time.time(),
        }
        payload = json.dumps(record, sort_keys=True)
        path = self.path_for(digest)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=f".{digest[:12]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._puts.inc()
        self._put_bytes.inc(len(payload.encode("utf-8")))
        return path

    # -- inspection / maintenance (``repro cache``) ----------------------

    def records(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Every valid ``(digest, record)`` pair currently on disk."""
        for digest in self.digests():
            record = self.load_record(digest)
            if record is not None:
                yield digest, record

    def stale_digests(self) -> List[str]:
        """Digests whose entries can no longer be produced or trusted.

        An entry is stale when its record is unreadable/invalid (wrong
        version, torn write) or when re-deriving the digest from the
        record's stored spec no longer matches its filename — the
        signature of a :class:`~repro.sim.config.MachineConfig` schema
        change that left orphaned keys behind.  Records without a
        stored spec (pre-provenance writers) cannot be re-derived and
        are conservatively kept.
        """
        from repro.sim.executor import RunSpec  # deferred: import cycle

        stale = []
        for digest in self.digests():
            record = self.load_record(digest)
            if record is None:
                stale.append(digest)
                continue
            spec_dict = record.get("spec") or {}
            if not spec_dict:
                continue
            try:
                fresh = RunSpec.from_dict(spec_dict).digest()
            except Exception:
                stale.append(digest)
                continue
            if fresh != digest:
                stale.append(digest)
        return stale

    def prune(self, dry_run: bool = False) -> List[str]:
        """Remove every stale entry; returns the digests affected."""
        stale = self.stale_digests()
        if not dry_run:
            for digest in stale:
                try:
                    self.path_for(digest).unlink()
                except OSError:
                    pass
        return stale

    def size_bytes(self) -> int:
        """Total on-disk size of the stored result files."""
        total = 0
        for digest in self.digests():
            try:
                total += self.path_for(digest).stat().st_size
            except OSError:
                pass
        return total

    def describe(self) -> Dict[str, Any]:
        """Aggregate view for ``repro cache stats``.

        The simulated wall time the cache represents (i.e. what a cold
        re-run would cost) is summed from each record's provenance.
        """
        entries = 0
        wall_saved = 0.0
        by_kernel: Dict[str, int] = {}
        for _, record in self.records():
            entries += 1
            provenance = record.get("provenance") or {}
            wall_saved += float(provenance.get("wall_time_s", 0.0) or 0.0)
            kernel = (record.get("spec") or {}).get("kernel", "?")
            by_kernel[kernel] = by_kernel.get(kernel, 0) + 1
        return {
            "root": str(self.root),
            "entries": entries,
            "size_bytes": self.size_bytes(),
            "simulated_wall_s": wall_saved,
            "by_kernel": by_kernel,
            "stale": len(self.stale_digests()),
        }
