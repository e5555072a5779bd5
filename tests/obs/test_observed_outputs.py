"""Pinned observed outputs: the event stream and every sink's report.

The cycle goldens in ``tests/bench`` pin what a simulation computes;
this pins what *observing* it reports.  For a few tiny specs and two
Table 4 points on dataset A, one observed run per spec feeds a
:class:`PhaseSink`, a :class:`ContentionSink` configured like
``repro contend``, a :class:`MetricsSink` and a :class:`JsonlSink`
(all categories).  The fixture holds the phase breakdown, the
``contend --json`` document, the metrics summary and the sha256 and
line count of the JSONL stream.  Any change to the event records, the
emit sites or sink dispatch must reproduce all of it exactly.

Regenerating the fixture is a deliberate act (an observed output is
*supposed* to move only with a model change)::

    PYTHONPATH=src python tests/obs/test_observed_outputs.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.bench.phases import PhaseSink
from repro.obs import ContentionSink, EventBus, JsonlSink, MetricsSink
from repro.sim.executor import RunSpec, execute_spec

FIXTURE = Path(__file__).parent / "data" / "observed_outputs.json"

SPECS = (
    RunSpec("tms", "tiny", "4x4", 4, "glsc"),
    RunSpec("hip", "tiny", "1x2", 4, "base"),
    RunSpec("gbc", "tiny", "2x2", 4, "glsc"),
    RunSpec("mfp", "tiny", "4x4", 4, "glsc").with_overrides(protocol="mesi"),
    RunSpec("smc", "tiny", "2x2", 4, "glsc").with_overrides(protocol="moesi"),
    RunSpec("gbc", "A", "4x4", 4, "base"),
    RunSpec("tms", "A", "4x4", 4, "glsc"),
)


class _HashingStream:
    """A write-only text stream that keeps only a digest and a count."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.lines = 0

    def write(self, text: str) -> int:
        self.digest.update(text.encode())
        self.lines += text.count("\n")
        return len(text)

    def flush(self) -> None:
        pass


def _jsonable(value: Any) -> Any:
    """``value`` as it reads back from JSON (int dict keys -> str)."""
    return json.loads(json.dumps(value, sort_keys=True))


def observe(spec: RunSpec) -> Dict[str, Any]:
    """One observed run of ``spec``: every pinned output."""
    bus = EventBus()
    phases = bus.attach(PhaseSink())
    contention = bus.attach(ContentionSink(n_cores=spec.config().n_cores))
    metrics = bus.attach(MetricsSink())
    stream = _HashingStream()
    jsonl = bus.attach(JsonlSink(stream))
    captured: Dict[str, Any] = {}

    def capture(machine) -> None:
        captured["regions"] = machine.image.regions

    stats = execute_spec(spec, obs=bus, on_machine=capture)
    bus.close()
    summary = contention.summary(regions=captured["regions"], stats=stats)
    contend = summary.to_dict()  # built exactly as `repro contend --json`
    contend["spec"] = spec.to_dict()
    contend["cycles"] = stats.cycles
    return _jsonable({
        "cycles": stats.cycles,
        "phases": phases.breakdown(stats.cycles),
        "contend": contend,
        "metrics": metrics.summary(),
        "jsonl": {
            "lines": stream.lines,
            "written": jsonl.written,
            "sha256": stream.digest.hexdigest(),
        },
    })


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Any]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_spec(pinned):
    assert sorted(pinned) == sorted(spec.label() for spec in SPECS)


@pytest.mark.parametrize("spec", SPECS, ids=RunSpec.label)
def test_observed_outputs_match_fixture(spec, pinned):
    got = observe(spec)
    want = pinned[spec.label()]
    for key in want:
        assert got[key] == want[key], f"{spec.label()}: {key} drifted"
    assert got == want


def test_contend_cli_json_matches_fixture(pinned):
    # The CLI attaches the ContentionSink alone (reservation, glsc and
    # coherence categories), so this also pins a partial-category bus.
    from repro.harness.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["contend", "tms", "--dataset", "tiny", "--json"]) == 0
    doc = json.loads(out.getvalue())
    assert doc == pinned[SPECS[0].label()]["contend"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    doc = {spec.label(): observe(spec) for spec in SPECS}
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} specs to {FIXTURE}")
