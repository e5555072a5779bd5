"""Self-tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

They run small spec subsets through the benchmark's own pipeline
(``run.measure``), so they take seconds, not a full sweep.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.bench.suite import point_id  # noqa: E402

from perfbench import known_defects, make_expected, run, tracing, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = workloads.load_expected(run.EXPECTED)


def subset(monkeypatch, workload, pick):
    """Shrink ``workload`` to the specs ``pick`` selects."""
    specs = [s for s in workloads.workload_specs(workload) if pick(s)]
    monkeypatch.setattr(workloads, "workload_specs", lambda name: list(specs))
    return specs


def test_metric_names_use_only_plain_characters():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [name for name, _ in run.END_TO_END]
    names += [name for name, *_ in tracing.LAYER_METRICS]
    assert [n for n in names if not NAME.match(n)] == []
    assert len(set(names)) * 2 == len(names)


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_expected_outputs_cover_every_spec_and_match_the_goldens():
    for workload in workloads.WORKLOADS:
        missing = [point_id(s) for s in workloads.workload_specs(workload)
                   if point_id(s) not in EXPECTED]
        assert missing == [], workload
    assert all(point_id(s) in EXPECTED for s in workloads.known_defect_specs())
    assert make_expected.golden_mismatches(EXPECTED) == []


def test_known_defect_specs_are_in_no_workload():
    left_out = set(workloads.known_defect_specs())
    assert len(left_out) == 16
    for workload in workloads.WORKLOADS:
        assert left_out.isdisjoint(workloads.workload_specs(workload)), workload


@pytest.mark.xfail(strict=True, reason="known defect: batched Fig 7 specs read index 0")
def test_batched_fig7_specs_match_the_solo_path(tmp_path):
    # One spec alone in a batch comes out right; two sharing one do not.
    specs = [s for s in workloads.known_defect_specs()
             if s.kernel in ("micro:B", "micro:C") and s.simd_width == 4 and s.variant == "base"]
    assert known_defects.check(specs, tmp_path) == []


def test_tampered_digest_fails_and_names_the_spec(monkeypatch, tmp_path):
    specs = subset(monkeypatch, "grid-batch",
                   lambda s: s.kernel == "tms" and s.topology == "1x1" and s.simd_width == 16)
    tampered_pid = point_id(specs[0])
    expected = dict(EXPECTED)
    expected[tampered_pid] = dict(expected[tampered_pid], stats_sha256="0" * 64)

    clean = run.measure("grid-batch", 3, 0, 0, tmp_path / "clean", 0.0, dict(EXPECTED))
    bad = run.measure("grid-batch", 3, 0, 0, tmp_path / "bad", 0.0, expected)

    assert clean["failures"] == []
    assert clean["metrics"]["ok_frac"]["value"] == 1.0
    assert bad["failures"] == [f"{tampered_pid}: cycles match but stats sha256 differs"]
    assert bad["metrics"]["ok_frac"]["value"] == 1.0 - 1 / len(specs)
    assert tampered_pid in run.render(bad)


@pytest.fixture
def scratch_dirs(tmp_path, monkeypatch):
    for name in ("scratch", "cwd"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    return tmp_path / "scratch"


def _tree(root: Path):
    return {
        p for p in root.rglob("*")
        if "__pycache__" not in p.parts and ".pytest_cache" not in p.parts
    }


def test_figures_queue_writes_only_inside_its_scratch_dir(monkeypatch, scratch_dirs):
    specs = subset(monkeypatch, "figures-queue",
                   lambda s: s.kernel == "gbc" or s.protocol == "moesi")
    repo_before, cwd_before = _tree(ROOT), _tree(Path.cwd())

    report = run.measure("figures-queue", 5, 0, 0, scratch_dirs, 0.0)

    assert _tree(ROOT) == repo_before
    assert _tree(Path.cwd()) == cwd_before
    made = {p.relative_to(scratch_dirs).parts[1:3] for p in _tree(scratch_dirs)}
    for part in (("queue", "spans"), ("queue", "workers"), ("store",)):
        assert any(m[:len(part)] == part for m in made), part
    assert report["attempted"] == len(specs)


def test_traced_run_reports_every_layer_metric(monkeypatch, scratch_dirs):
    specs = subset(monkeypatch, "figures-queue",
                   lambda s: s.protocol == "mesi" or s.kernel == "gbc")
    report = run.measure("figures-queue", 1, 0, 1, scratch_dirs, 0.0)

    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    assert list(metrics) == [name for name, *_ in tracing.LAYER_METRICS]
    for name in ("queue.submit_s", "queue.claim_s", "queue.ack_s", "store.save_s",
                 "store.load_s", "machine.run_s", "batch.sim_s", "kernel.build_s",
                 "host.calib_s"):
        assert metrics[name] > 0, name
    assert metrics["executor.store_hits"] == len(specs)
    assert metrics["obs.kills"] == 0
    assert metrics["proto.GetS"] > 0


def test_observed_run_counts_contention(monkeypatch, scratch_dirs):
    subset(monkeypatch, "observed-table4",
           lambda s: s.kernel == "gbc" and s.dataset == "A")
    report = run.measure("observed-table4", 2, 0, 1, scratch_dirs, 0.0)

    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    assert report["failures"] == []
    assert metrics["obs.failed_lanes"] > 0
    assert metrics["obs.summary_s"] > 0
    assert metrics["obs.overhead_x"] > 0
    assert metrics["queue.claim_s"] == 0


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
         "grid-batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
