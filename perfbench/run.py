"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid-batch --seed 1 --seconds 30 --trace 0

Runs whole sweeps of the workload (see ``perfbench/workloads.py``)
back to back, in this process and on this thread, until another sweep
would overrun ``--seconds`` (at least one).  Every sweep's outputs are
checked against ``perfbench/expected.json``; a wrong output counts as a
failed spec and is named, and the run still completes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced sweeps and reports the per-layer metrics of
``perfbench/tracing.py`` instead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
TMP_ROOT = ROOT / ".perfbench_tmp"

#: (name, unit) of every end-to-end metric, as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_khz", "kcyc/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("paper_gap", "ratio"),
)

#: Set-ups timed per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5

#: What a fresh interpreter runs to time the program's imports, as this
#: process timed its own from ``STARTED``.
IMPORT_PROBE = (
    "import time; began = time.perf_counter(); import sys; "
    "sys.path[:0] = sys.argv[1:]; import perfbench.tracing, perfbench.workloads; "
    "print(time.perf_counter() - began)"
)


def import_seconds(own: float) -> float:
    """Median import time: this process's ``own`` plus fresh interpreters'.

    Imports are most of the set-up and are timed once per process, so
    further interpreters are started one at a time, each waited for.
    """
    samples = [own]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(ROOT)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop (host speed score)."""
    samples = []
    for _ in range(3):
        began = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        samples.append(time.perf_counter() - began)
    return statistics.median(samples)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-batch", "figures-queue", "observed-table4"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seed, seconds, trace, scratch, import_s, expected=None):
    """Run the workload; returns the report that :func:`render` prints.

    ``expected`` replaces ``perfbench/expected.json`` (the self-tests
    tamper with it).
    """
    from repro.bench.suite import point_id

    from perfbench import tracing, workloads

    calib_s = calibrate()
    setup_samples = []

    def set_up():
        """Spec list, expected outputs and a fresh scratch dir (timed)."""
        began = time.perf_counter()
        specs = workloads.permuted(workloads.workload_specs(workload), seed)
        want = expected if expected is not None else workloads.load_expected(EXPECTED)
        pids = [point_id(spec) for spec in specs]
        cycles = sum(want[pid]["cycles"] for pid in pids if pid in want)
        sweep_dir = scratch / f"sweep{len(setup_samples)}"
        sweep_dir.mkdir(parents=True)
        setup_samples.append(time.perf_counter() - began)
        return specs, pids, want, sweep_dir, cycles

    def sweep(tracer=None):
        """One set-up, then the timed section: specs in, checked stats out."""
        specs, pids, want, sweep_dir, _ = set_up()
        gc.collect()
        if tracer is not None:
            tracer.install()
        began = time.perf_counter()
        try:
            stats, errors, extra = workloads.RUNNERS[workload](specs, sweep_dir)
            failed = workloads.check_outputs(pids, stats, errors, want)
        finally:
            wall = time.perf_counter() - began
            if tracer is not None:
                tracer.uninstall()
        failures.extend(failed)
        return wall, stats, extra

    for _ in range(SETUP_REPEATS):
        specs, _, _, _, total_cycles = set_up()
    walls, traced_walls, layer_samples, failures = [], [], [], []
    began = time.perf_counter()
    while True:
        wall, stats, _ = sweep()
        walls.append(wall)
        if trace:
            tracer = tracing.Tracer()
            wall_t, stats_t, extra_t = sweep(tracer)
            traced_walls.append(wall_t)
            layer_samples.append(tracing.layer_metrics(tracer, stats_t.values(), extra_t))
        per_round = statistics.median(walls) + (statistics.median(traced_walls) if trace else 0)
        if time.perf_counter() - began + per_round > seconds:
            break

    wall_s = statistics.median(walls)
    sweeps = len(walls) + len(traced_walls)
    report = {
        "workload": workload, "seed": seed, "sweeps": sweeps, "specs": len(specs),
        "attempted": sweeps * len(specs), "failures": failures, "host.calib_s": calib_s,
        "walls": walls + traced_walls,
    }
    if not trace:
        gap = workloads.paper_gap(stats, workloads.GAP_DATASET[workload])
        values = {
            "setup_s": import_s + statistics.median(setup_samples),
            "wall_s": wall_s,
            "sim_khz": total_cycles / 1e3 / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - len(failures) / report["attempted"],
            "paper_gap": gap if gap is not None else 0.0,
        }
        units = dict(END_TO_END)
    else:
        values = {
            name: statistics.median(sample[name] for sample in layer_samples)
            for name in layer_samples[0]
        }
        values["host.calib_s"] = calib_s
        values["trace.overhead_s"] = statistics.median(traced_walls) - wall_s
        if workload == "observed-table4":
            values["obs.overhead_x"] = wall_s / _unobserved_wall(specs)
        units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
    report["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    return report


def _unobserved_wall(specs) -> float:
    """Host seconds for the same specs on the solo path with no sinks."""
    from repro.sim.executor import execute_spec

    gc.collect()
    began = time.perf_counter()
    for spec in specs:
        execute_spec(spec)
    return time.perf_counter() - began


def render(report) -> str:
    """Human-readable lines: every metric by name and unit, failures named."""
    from perfbench import workloads

    failed, attempted = len(report["failures"]), report["attempted"]
    lines = [
        f"perfbench {report['workload']} seed={report['seed']}: "
        f"{report['sweeps']} sweeps of {report['specs']} specs "
        f"({', '.join(f'{wall:.2f}' for wall in report['walls'])} s)",
        f"  {'failed_frac':24s} {failed / attempted:.4f} ({failed}/{attempted} specs)",
    ]
    if "host.calib_s" not in report["metrics"]:
        lines.append(f"  {'host.calib_s':24s} {report['host.calib_s']:.6g} s (never gated)")
    for name, metric in report["metrics"].items():
        lines.append(f"  {name:24s} {metric['value']:.6g} {metric['unit']}")
    for failure in sorted(set(report["failures"])):
        lines.append(f"  FAILED {failure}")
    lines.append(f"  note: Fig 7 specs are in no workload ({workloads.KNOWN_DEFECT}); "
                 "python3 perfbench/known_defects.py shows it")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import tracing, workloads  # noqa: F401  (imports the program)

    import_s = import_seconds(time.perf_counter() - STARTED)
    TMP_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        report = measure(args.workload, args.seed, args.seconds, args.trace, scratch, import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    if args.trace:
        for note in tracing.NOT_MEASURABLE:
            print(f"  note: {note}")
    print(render(report))
    failed = len(report["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
