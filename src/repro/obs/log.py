"""Structured logging for the sweep service (JSON or text lines).

:class:`StructLogger` writes one event per line, and every record
carries the component and any *bound* correlation fields
(``worker_id``, ``digest``, ``trace_id``) — which worker, which
digest, which sweep.  Lines render either as JSON (machines) or as
aligned text (humans; the CLI default).
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Dict, IO, Optional

__all__ = ["StructLogger", "NULL_LOGGER", "to_logger"]

LEVELS = ("debug", "info", "warning", "error")


class StructLogger:
    """One-line-per-event logger with bound correlation fields.

    Without a ``stream`` the logger is disabled and every call is a
    cheap no-op.  ``bind(**fields)`` returns a child logger
    whose records always include ``fields`` — bind the worker id
    once, every subsequent record carries it.
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        component: str = "",
        fmt: str = "json",
        fields: Optional[Dict[str, Any]] = None,
    ) -> None:
        if fmt not in ("json", "text"):
            raise ValueError(f"fmt must be 'json' or 'text', got {fmt!r}")
        self.stream = stream
        self.component = component
        self.fmt = fmt
        self.fields = dict(fields or {})
        self.enabled = stream is not None

    @classmethod
    def null(cls) -> "StructLogger":
        """A disabled logger (every call is a no-op)."""
        return cls()

    @classmethod
    def stderr(
        cls, component: str = "", fmt: str = "text"
    ) -> "StructLogger":
        return cls(stream=sys.stderr, component=component, fmt=fmt)

    def bind(self, **fields: Any) -> "StructLogger":
        """A child logger that always includes ``fields``."""
        child = StructLogger(
            stream=self.stream,
            component=self.component,
            fmt=self.fmt,
            fields={**self.fields, **fields},
        )
        return child

    # -- emission --------------------------------------------------------

    def log(self, level: str, event: str, **fields: Any) -> None:
        if not self.enabled:
            return
        record = {
            "ts": time.time(),
            "level": level,
            "component": self.component,
            "event": event,
            **self.fields,
            **fields,
        }
        line = (
            self._render_text(record)
            if self.fmt == "text"
            else json.dumps(record, sort_keys=True, default=str)
        )
        print(line, file=self.stream, flush=True)

    @staticmethod
    def _render_text(record: Dict[str, Any]) -> str:
        stamp = time.strftime("%H:%M:%S", time.localtime(record["ts"]))
        head = f"[{stamp}] {record['level']:7s}"
        if record["component"]:
            head += f" {record['component']}"
        head += f" {record['event']}"
        extras = " ".join(
            f"{key}={record[key]}"
            for key in record
            if key not in ("ts", "level", "component", "event")
        )
        return f"{head} {extras}".rstrip()

    def debug(self, event: str, **fields: Any) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log("error", event, **fields)


#: Shared disabled logger — safe default for every component.
NULL_LOGGER = StructLogger.null()


def to_logger(
    log: Optional[StructLogger], component: str = ""
) -> StructLogger:
    """``log`` itself (given ``component`` when it has none), or the
    disabled logger for ``None``."""
    if log is None:
        return NULL_LOGGER
    if component and not log.component:
        logger = log.bind()
        logger.component = component
        return logger
    return log
