"""Command-line harness: regenerate any table or figure of the paper.

Usage::

    python -m repro.harness table1
    python -m repro.harness fig6 --kernels hip tms --datasets A
    python -m repro.harness all --jobs 4 --telemetry
    python -m repro.harness fig8 --no-cache

plus eight non-experiment subcommands::

    python -m repro.harness trace hip --dataset A --out hip.trace.json
    python -m repro.harness profile tms --variant glsc
    python -m repro.harness contend tms --dataset tiny --json
    python -m repro.harness bench run --suite smoke --repeats 1
    python -m repro.harness cache stats
    python -m repro.harness worker queue://.glsc-queue --exit-when-empty
    python -m repro.harness status queue://.glsc-queue
    python -m repro.harness sweep-trace queue://.glsc-queue

``trace`` runs one kernel with the full event bus attached and writes
a Chrome trace-event JSON file — open it at https://ui.perfetto.dev to
see every thread's instructions and the memory-hierarchy events on a
cycle timeline.  ``profile`` runs one kernel with an instruction trace
and metrics aggregation and prints the latency/attribution report.
``contend`` runs one kernel with the contention observatory attached
and prints the who-kills-whom kill matrix, hot-line table, retry-storm
timeline, and retry-depth histogram (``--json`` for machines).
``bench`` is the regression observatory (see :mod:`repro.bench`):
``bench run`` archives a ``BENCH_<git-sha>.json`` + trajectory point,
``bench compare`` gates it against the previous baseline and the
committed fidelity-reference bands (exit 1 on a regression), ``bench
report`` renders the markdown verdict/trajectory report, and ``bench
reference`` distills fresh reference bands from an archived run.
``cache`` inspects and maintains the on-disk result store
(``ls`` / ``stats`` / ``prune``).  ``worker``, ``status`` and
``sweep-trace`` are the sweep service (:mod:`repro.service`):
``worker`` drains a ``queue://`` work queue into the shared store
(an experiment run with ``--backend queue://<dir>`` fills it),
``status`` prints the queue depths and every worker's heartbeat, and
``sweep-trace`` exports a traced drain as one Perfetto trace.

Shared flags are defined once as argparse *parent* parsers
(:func:`_cache_parent`, :func:`_jobs_parent`, :func:`_protocol_parent`,
:func:`_telemetry_parent`), so ``--jobs``/``--cache-dir``/
``--protocol``/``--telemetry`` are spelled, typed, and defaulted
identically across every verb that accepts them.

(Installed as the ``glsc-harness`` console script.)

Runs go through the :class:`~repro.sim.executor.Executor`:
``--jobs N`` fans independent simulations out over N worker
processes, and results persist in an on-disk store (default
``.glsc-cache/``; change with ``--cache-dir`` or disable with
``--no-cache``), so repeating an invocation re-simulates nothing.
``--telemetry`` prints a per-spec table of wall time, simulated
cycles/second, worker pid, and result source after the experiments.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.harness import experiments, report
from repro.kernels.registry import KERNEL_ORDER
from repro.mem.protocol import DEFAULT_PROTOCOL, protocol_names
from repro.sim.executor import Executor, RunSpec
from repro.sim.store import ResultStore, default_cache_dir

__all__ = ["main"]

EXPERIMENTS = ("table1", "table3", "fig5a", "fig5b", "fig6", "fig7",
               "fig8", "table4")
EXTENSIONS = ("width-sweep", "latency-sweep", "resilience")
DATASETS = ("A", "B", "random", "tiny")
VARIANTS = ("base", "glsc")


# ---------------------------------------------------------------------------
# Shared parent parsers: one definition per cross-cutting flag, so
# every verb spells, types, and defaults it identically.
# ---------------------------------------------------------------------------

def _cache_parent() -> argparse.ArgumentParser:
    """``--cache-dir`` exactly as every store-touching verb takes it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--cache-dir", type=Path, default=None, metavar="PATH",
        help=(
            "result-store directory (default: $REPRO_CACHE_DIR or "
            f"{default_cache_dir()})"
        ),
    )
    return parent


def _jobs_parent() -> argparse.ArgumentParser:
    """``--jobs`` exactly as every executor-running verb takes it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent simulations (default: 1)",
    )
    return parent


def _protocol_parent() -> argparse.ArgumentParser:
    """``--protocol`` exactly as every simulating verb takes it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--protocol", default=None, choices=list(protocol_names()),
        help=(
            "coherence protocol the memory hierarchy runs "
            f"(default: {DEFAULT_PROTOCOL})"
        ),
    )
    return parent


def _telemetry_parent() -> argparse.ArgumentParser:
    """``--telemetry`` exactly as every sweep-running verb takes it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--telemetry", action="store_true",
        help="print per-spec wall time / cycles-per-second / source "
             "after the run",
    )
    return parent


def _render_extension(name: str, kernels, executor: Executor) -> str:
    from repro.harness import extensions as ext

    lines = []
    if name == "width-sweep":
        lines.append("Extension: Base/GLSC ratio across SIMD widths (4x4)")
        for kernel in kernels:
            row = ext.width_sweep(kernel, executor=executor)
            series = ", ".join(
                f"W{w}={r:.2f}" for w, r in sorted(row.ratios.items())
            )
            crossover = row.crossover_width()
            lines.append(
                f"  {kernel.upper():4s} A: {series}  "
                f"(crossover: {'W%d' % crossover if crossover else 'none'})"
            )
    elif name == "latency-sweep":
        lines.append(
            "Extension: Base/GLSC ratio vs main-memory latency (4x4, 4-wide)"
        )
        for kernel in kernels:
            row = ext.latency_sensitivity(kernel, executor=executor)
            series = ", ".join(
                f"{l}cyc={r:.2f}" for l, r in sorted(row.ratios.items())
            )
            lines.append(f"  {kernel.upper():4s} A: {series}")
    elif name == "resilience":
        lines.append(
            "Extension: GLSC under injected reservation loss (4x4, 4-wide)"
        )
        for kernel in kernels:
            for row in ext.failure_resilience(kernel, executor=executor):
                lines.append(
                    f"  {kernel.upper():4s} A loss={row.loss:4.2f}: "
                    f"cycles={row.cycles} failure={row.failure_rate:.3f} "
                    f"slowdown={row.slowdown_vs_clean:.2f}x"
                )
    return "\n".join(lines)


def _render(name: str, executor: Executor, kernels, datasets) -> str:
    if name == "table1":
        return report.render_table1(experiments.table1())
    if name == "table3":
        return report.render_table3(experiments.table3(kernels))
    if name == "fig5a":
        return report.render_fig5a(
            experiments.fig5a(kernels, datasets, executor=executor)
        )
    if name == "fig5b":
        return report.render_fig5b(
            experiments.fig5b(kernels, datasets, executor=executor)
        )
    if name == "fig6":
        return report.render_fig6(
            experiments.fig6(kernels, datasets, executor=executor)
        )
    if name == "fig7":
        return report.render_fig7(experiments.fig7(executor=executor))
    if name == "fig8":
        return report.render_fig8(
            experiments.fig8(kernels, datasets, executor=executor)
        )
    if name == "table4":
        return report.render_table4(
            experiments.table4(kernels, datasets, executor=executor)
        )
    raise ValueError(f"unknown experiment {name!r}")


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared kernel-spec flags of the ``trace``/``profile`` subcommands."""
    parser.add_argument(
        "kernel",
        help=(
            "kernel to run: one of "
            + ", ".join(KERNEL_ORDER)
            + ", or micro:<scenario> for a Section 5.2 microbenchmark"
        ),
    )
    parser.add_argument("--dataset", default="A", choices=list(DATASETS))
    parser.add_argument(
        "--topology", default="4x4", metavar="CxT",
        help="cores x SMT threads (default: 4x4)",
    )
    parser.add_argument("--width", type=int, default=4, metavar="W",
                        help="SIMD width (default: 4)")
    parser.add_argument("--variant", default="glsc", choices=list(VARIANTS))
    parser.add_argument("--warm", action="store_true",
                        help="warm the caches before measuring")


def _protocol_overrides(protocol: Optional[str]):
    """A non-default ``--protocol`` as a config-override dict (or None).

    The default protocol is deliberately *not* spelled out as an
    override: ``--protocol msi`` must digest (and cache) identically
    to not passing the flag at all.
    """
    if protocol is None or protocol == DEFAULT_PROTOCOL:
        return None
    return {"protocol": protocol}


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    overrides = _protocol_overrides(args.protocol)
    if args.kernel.startswith("micro:"):
        return RunSpec.micro(
            args.kernel.split(":", 1)[1],
            topology=args.topology,
            simd_width=args.width,
            variant=args.variant,
            overrides=overrides,
        )
    return RunSpec(
        kernel=args.kernel,
        dataset=args.dataset,
        topology=args.topology,
        simd_width=args.width,
        variant=args.variant,
        overrides=overrides or (),
        warm=args.warm,
    )


def _main_trace(argv: List[str]) -> int:
    """``trace``: one observed run, exported as Chrome trace-event JSON."""
    from repro.obs import EventBus, JsonlSink, MetricsSink, PerfettoSink

    parser = argparse.ArgumentParser(
        prog="glsc-harness trace",
        parents=[_protocol_parent()],
        description=(
            "Run one kernel with the observability bus attached and "
            "write a Perfetto/Chrome trace-event timeline."
        ),
    )
    _add_spec_arguments(parser)
    parser.add_argument(
        "--out", type=Path, default=None, metavar="FILE",
        help="trace-event JSON path (default: <kernel>-<variant>."
             "trace.json)",
    )
    parser.add_argument(
        "--include-hits", action="store_true",
        help="also draw an instant per L1/L2 hit (large traces)",
    )
    parser.add_argument(
        "--jsonl", type=Path, default=None, metavar="FILE",
        help="additionally dump the raw event stream as JSONL",
    )
    parser.add_argument(
        "--jsonl-limit", type=int, default=None, metavar="N",
        help="cap the JSONL dump at N events",
    )
    parser.add_argument(
        "--telemetry-out", type=Path, default=None, metavar="FILE",
        help="write the run's telemetry record as JSON",
    )
    args = parser.parse_args(argv)
    spec = _spec_from_args(args)
    out = args.out or Path(
        f"{spec.kernel.replace(':', '-')}-{spec.variant}.trace.json"
    )

    bus = EventBus()
    perfetto = bus.attach(PerfettoSink(include_hits=args.include_hits))
    metrics = bus.attach(MetricsSink())
    jsonl = None
    if args.jsonl is not None:
        jsonl = bus.attach(JsonlSink(str(args.jsonl), limit=args.jsonl_limit))
    executor = Executor()
    stats = executor.run(spec, obs=bus)
    bus.close()

    perfetto.write(str(out))
    telemetry = executor.telemetry[-1]
    print(f"{spec.label()}: {stats.cycles} cycles, "
          f"{len(perfetto)} trace events -> {out}")
    if jsonl is not None:
        print(f"{jsonl.summary()} -> {args.jsonl}")
    print(metrics.render())
    print(f"[{telemetry.wall_time_s:.2f}s wall, "
          f"{telemetry.cycles_per_second:.0f} cyc/s]")
    print(f"open {out} at https://ui.perfetto.dev (or "
          f"chrome://tracing) to view the timeline")
    if args.telemetry_out is not None:
        with open(args.telemetry_out, "w", encoding="utf-8") as fh:
            json.dump(telemetry.to_dict(), fh, indent=2, sort_keys=True)
        print(f"telemetry -> {args.telemetry_out}")
    return 0


def _main_contend(argv: List[str]) -> int:
    """``contend``: one observed run, reported as contention attribution."""
    from repro.obs import ContentionSink, EventBus
    from repro.sim.executor import execute_spec

    parser = argparse.ArgumentParser(
        prog="glsc-harness contend",
        parents=[_protocol_parent()],
        description=(
            "Run one kernel with the contention observatory attached "
            "and print the who-kills-whom report: thread x thread kill "
            "matrix, hot-line table (symbolized through the kernel's "
            "named memory regions), retry-storm timeline, and retry-"
            "depth histogram."
        ),
    )
    _add_spec_arguments(parser)
    parser.add_argument(
        "--json", action="store_true",
        help="print the full summary as JSON instead of markdown",
    )
    parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="rows in the hot-line table (default: 10)",
    )
    parser.add_argument(
        "--window", type=int, default=2048, metavar="CYC",
        help="timeline window width in cycles (default: 2048)",
    )
    parser.add_argument(
        "--storm-threshold", type=int, default=64, metavar="N",
        help="failed lanes per window that flag a retry storm "
             "(default: 64)",
    )
    args = parser.parse_args(argv)
    spec = _spec_from_args(args)
    config = spec.config()

    bus = EventBus()
    sink = bus.attach(ContentionSink(
        n_cores=config.n_cores,
        window=args.window,
        top_k=args.top,
        storm_threshold=args.storm_threshold,
    ))
    captured = {}

    def _capture(machine) -> None:
        captured["regions"] = machine.image.regions

    stats = execute_spec(spec, obs=bus, on_machine=_capture)
    bus.close()
    summary = sink.summary(regions=captured.get("regions"), stats=stats)

    if args.json:
        doc = summary.to_dict()
        doc["spec"] = spec.to_dict()
        doc["cycles"] = stats.cycles
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(f"{spec.label()}: {stats.cycles} cycles")
        print()
        print(summary.render())
    return 0


def _main_profile(argv: List[str]) -> int:
    """``profile``: one observed run, reported as text tables."""
    from repro.obs import EventBus, MetricsSink
    from repro.sim.trace import InstructionTrace

    parser = argparse.ArgumentParser(
        prog="glsc-harness profile",
        parents=[_protocol_parent()],
        description=(
            "Run one kernel with instruction tracing + metrics "
            "aggregation and print the latency/attribution report."
        ),
    )
    _add_spec_arguments(parser)
    parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="rows in the per-kind latency table (default: 10)",
    )
    parser.add_argument(
        "--limit", type=int, default=200_000, metavar="N",
        help="cap on retained instruction events (default: 200000)",
    )
    args = parser.parse_args(argv)
    spec = _spec_from_args(args)

    bus = EventBus()
    trace = bus.attach(InstructionTrace(limit=args.limit))
    metrics = bus.attach(MetricsSink())
    executor = Executor()
    stats = executor.run(spec, obs=bus)
    bus.close()

    telemetry = executor.telemetry[-1]
    print(f"{spec.label()}: {stats.cycles} cycles, "
          f"{stats.total_instructions} instructions")
    print()
    print(trace.render(top=args.top))
    if trace.dropped:
        print(f"({trace.dropped} instruction events beyond --limit "
              f"dropped; the table above is still exact)")
    print()
    print(metrics.render())
    print(f"sync share of occupancy: {trace.sync_share():.3f}")
    print(f"[{telemetry.wall_time_s:.2f}s wall, "
          f"{telemetry.cycles_per_second:.0f} cyc/s]")
    return 0


def _main_bench(argv: List[str]) -> int:
    """``bench``: the regression observatory (run/compare/report/reference)."""
    from repro.bench import (
        BenchRunner,
        Comparator,
        append_trajectory,
        current_git_sha,
        get_suite,
        latest_bench_file,
        load_bench,
        load_trajectory,
        render_markdown,
        trajectory_entry,
        write_bench,
    )
    from repro.bench.baseline import (
        REFERENCE_NAME,
        TRAJECTORY_NAME,
        load_reference,
        previous_entry,
    )
    from repro.bench.fidelity import distill_reference
    from repro.bench.suite import SUITE_NAMES

    parser = argparse.ArgumentParser(
        prog="glsc-harness bench",
        description=(
            "Performance & fidelity regression observatory: archive a "
            "bench run, gate it against the previous baseline and the "
            "paper-shape reference bands, and render trend reports."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def _add_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--dir", type=Path, default=Path("."), metavar="PATH",
            help="artifact directory holding BENCH_*.json, the "
                 "trajectory, and the reference (default: .)",
        )

    p_run = sub.add_parser(
        "run", help="execute a suite and archive it",
        parents=[_protocol_parent()],
        description=(
            "Execute a bench suite and archive it.  A non-default "
            "--protocol renames the suite to <suite>@<protocol> so "
            "baselines never mix protocols."
        ),
    )
    _add_dir(p_run)
    p_run.add_argument("--suite", default="full", choices=list(SUITE_NAMES))
    p_run.add_argument(
        "--repeats", type=int, default=3, metavar="N",
        help="fresh simulations per point (default: 3)",
    )
    p_run.add_argument(
        "--no-trajectory", action="store_true",
        help="write the BENCH file only; do not append the trajectory",
    )
    p_run.add_argument(
        "--profile", action="store_true",
        help="run under cProfile; writes profile_<sha>.pstats next to "
             "the BENCH file and prints the top 20 functions by "
             "cumulative time",
    )
    p_run.add_argument(
        "--no-phases", action="store_true",
        help="skip the per-point gather/compute/retry/stall "
             "attribution pass (halves bench wall time)",
    )
    p_run.add_argument(
        "--backend", default="solo", choices=("solo", "batch"),
        help="how timed repeats simulate: one machine at a time "
             "(solo, default) or many per process through the "
             "batched backend (batch)",
    )
    p_run.add_argument(
        "--batch-size", type=int, default=16, metavar="N",
        help="specs per batch with --backend batch (default: 16)",
    )

    for verb, help_text in (
        ("compare", "gate the newest run; exit 1 on a regression"),
        ("report", "render the markdown verdict + trajectory report"),
    ):
        p = sub.add_parser(verb, help=help_text)
        _add_dir(p)
        p.add_argument(
            "--bench", type=Path, default=None, metavar="FILE",
            help="bench document (default: newest BENCH_*.json in --dir)",
        )
        p.add_argument(
            "--reference", type=Path, default=None, metavar="FILE",
            help=f"fidelity-reference bands (default: --dir/{REFERENCE_NAME})",
        )
        p.add_argument(
            "--skip-perf", action="store_true",
            help="skip wall-time verdicts (baseline from another machine)",
        )
        p.add_argument(
            "--skip-cycles", action="store_true",
            help="skip deterministic cycle-drift verdicts",
        )
        p.add_argument(
            "--rel-tol", type=float, default=0.15, metavar="F",
            help="relative wall-time tolerance (default: 0.15)",
        )
        p.add_argument(
            "--gate-throughput", action="store_true",
            help="escalate the (normally informational) aggregate "
                 "sim_khz and cycles-per-instruction checks to "
                 "failing verdicts at --rel-tol",
        )
        if verb == "report":
            p.add_argument(
                "--out", type=Path, default=None, metavar="FILE",
                help="write markdown here instead of stdout",
            )
            p.add_argument(
                "--html", action="store_true",
                help="render the trajectory dashboard as static HTML "
                     "instead of the markdown report (--out defaults "
                     "to --dir/bench_dashboard.html)",
            )

    p_ref = sub.add_parser(
        "reference", help="distill fresh fidelity bands from a bench run"
    )
    _add_dir(p_ref)
    p_ref.add_argument("--bench", type=Path, default=None, metavar="FILE")
    p_ref.add_argument(
        "--out", type=Path, default=None, metavar="FILE",
        help=f"output path (default: --dir/{REFERENCE_NAME})",
    )
    p_ref.add_argument(
        "--rel-band", type=float, default=0.25, metavar="F",
        help="half-width of the emitted bands, relative (default: 0.25)",
    )
    p_ref.add_argument(
        "--fresh", action="store_true",
        help="overwrite instead of merging into an existing reference "
             "(merging keeps bands for points this run did not cover, "
             "e.g. the smoke suite's)",
    )

    args = parser.parse_args(argv)
    trajectory_path = args.dir / TRAJECTORY_NAME

    if args.verb == "run":
        suite = get_suite(args.suite, protocol=args.protocol)
        sha = current_git_sha(args.dir)
        backend_note = (
            f", batched x{args.batch_size}"
            if args.backend == "batch" else ""
        )
        print(
            f"bench run: suite {suite.name} ({len(suite)} points), "
            f"{args.repeats} repeat(s), sha {sha}{backend_note}"
        )
        runner = BenchRunner(
            suite, repeats=args.repeats, git_sha=sha,
            progress=lambda msg: print(f"  {msg}"),
            phases=not args.no_phases,
            backend=args.backend, batch_size=args.batch_size,
        )
        if args.profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            doc = runner.run()
            profiler.disable()
        else:
            doc = runner.run()
        path = write_bench(doc, args.dir)
        entry = trajectory_entry(doc)
        headline = entry["headline"]
        if not args.no_trajectory:
            append_trajectory(doc, trajectory_path)
        print(
            f"archived {path} "
            f"({headline['points']} points, "
            f"{headline['total_wall_s']:.2f}s median wall, "
            f"{headline['sim_khz']:.1f} sim_khz, "
            f"{headline['instr_per_sec']:.0f} instr/s, "
            f"mean Base/GLSC {headline['mean_speedup']:.3f})"
            + ("" if args.no_trajectory else f"; trajectory -> {trajectory_path}")
        )
        if args.profile:
            pstats_path = args.dir / f"profile_{sha}.pstats"
            profiler.dump_stats(pstats_path)
            print(f"profile -> {pstats_path}")
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.sort_stats("cumulative").print_stats(20)
        return 0

    # compare / report / reference share the bench-document lookup.
    bench_path = args.bench or latest_bench_file(args.dir)
    if bench_path is None:
        print(
            f"no BENCH_*.json under {args.dir}; run `bench run` first",
            file=sys.stderr,
        )
        return 2
    doc = load_bench(bench_path)

    if args.verb == "reference":
        out = args.out or (args.dir / REFERENCE_NAME)
        reference = distill_reference(doc, rel_band=args.rel_band)
        existing = None if args.fresh else load_reference(out)
        if existing is not None:
            merged = dict(existing)
            merged["source"] = reference["source"]
            merged["speedup_bands"] = dict(
                existing.get("speedup_bands", {}),
                **reference["speedup_bands"],
            )
            merged["failure_mix"] = dict(
                existing.get("failure_mix", {}),
                **reference["failure_mix"],
            )
            reference = merged
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(
            f"reference bands from {bench_path.name} "
            f"{'->' if existing is None else 'merged into'} {out} "
            f"({len(reference['speedup_bands'])} speedup bands, "
            f"{len(reference['failure_mix'])} failure-mix bands)"
        )
        return 0

    trajectory = load_trajectory(trajectory_path)

    if args.verb == "report" and args.html:
        from repro.bench.dashboard import render_dashboard

        out = args.out or (args.dir / "bench_dashboard.html")
        html_text = render_dashboard(
            trajectory, suite=doc.get("suite")
        )
        out.write_text(html_text, encoding="utf-8")
        print(
            f"dashboard -> {out} "
            f"({len(trajectory)} trajectory entries)"
        )
        return 0

    baseline = previous_entry(
        trajectory, doc.get("suite", "?"), exclude_sha=doc.get("git_sha")
    )
    reference = load_reference(args.reference or (args.dir / REFERENCE_NAME))
    comparator = Comparator(
        rel_tol=args.rel_tol,
        check_perf=not args.skip_perf,
        check_cycles=not args.skip_cycles,
        gate_throughput=args.gate_throughput,
    )
    comparison = comparator.compare(doc, baseline, reference)

    if args.verb == "report":
        markdown = render_markdown(comparison, trajectory, doc=doc)
        if args.out is not None:
            args.out.write_text(markdown, encoding="utf-8")
            print(f"report -> {args.out}")
        else:
            print(markdown)
        return 0

    print(comparison.render())
    if baseline is None and reference is None:
        print(
            "warning: neither a baseline trajectory entry nor a "
            "reference file was found; nothing was actually gated",
            file=sys.stderr,
        )
    return 1 if comparison.failed else 0


def _main_cache(argv: List[str]) -> int:
    """``cache``: inspect and maintain the on-disk result store."""
    parser = argparse.ArgumentParser(
        prog="glsc-harness cache",
        description=(
            "Inspect/maintain the persistent result store: list "
            "entries, aggregate stats (incl. hit/miss totals), and "
            "prune entries stranded by config-schema changes."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in (
        ("ls", "list stored results"),
        ("stats", "aggregate store statistics"),
        ("prune", "delete stale/corrupt entries"),
    ):
        p = sub.add_parser(verb, help=help_text,
                           parents=[_cache_parent()])
        if verb == "ls":
            p.add_argument(
                "--kernel", default=None, metavar="NAME",
                help="only entries of this kernel",
            )
        if verb == "prune":
            p.add_argument(
                "--dry-run", action="store_true",
                help="report what would be removed without deleting",
            )
    args = parser.parse_args(argv)
    store = ResultStore(args.cache_dir)

    if args.verb == "ls":
        count = 0
        print(f"{'digest':12s}  {'spec':44s} {'cycles':>10s}  created")
        for digest, record in store.records():
            spec_dict = record.get("spec") or {}
            if args.kernel and spec_dict.get("kernel") != args.kernel:
                continue
            try:
                label = RunSpec.from_dict(spec_dict).label() if spec_dict \
                    else "(no spec recorded)"
            except Exception:
                label = "(unreadable spec)"
            cycles = (record.get("stats") or {}).get("cycles", 0)
            created = time.strftime(
                "%Y-%m-%d %H:%M",
                time.localtime(record.get("created", 0)),
            )
            print(f"{digest[:12]:12s}  {label[:44]:44s} "
                  f"{cycles:>10d}  {created}")
            count += 1
        print(f"{count} entries in {store.root}")
        return 0

    if args.verb == "stats":
        info = store.describe()
        print(f"store: {info['root']}")
        print(
            f"  {info['entries']} entries, "
            f"{info['size_bytes'] / 1024:.1f} KiB, "
            f"{info['stale']} stale"
        )
        print(
            f"  served {info['hits']} hits / {info['misses']} misses "
            "(persistent tally)"
        )
        print(
            f"  {info['simulated_wall_s']:.2f}s of simulation represented "
            "(sum of record provenance wall times)"
        )
        if info["by_kernel"]:
            per = ", ".join(
                f"{k}={n}" for k, n in sorted(info["by_kernel"].items())
            )
            print(f"  by kernel: {per}")
        return 0

    # prune
    stale = store.prune(dry_run=args.dry_run)
    action = "would remove" if args.dry_run else "removed"
    print(f"{action} {len(stale)} stale entries from {store.root}")
    for digest in stale:
        print(f"  {digest[:12]}")
    return 0


def _main_worker(argv: List[str]) -> int:
    """``worker``: drain a queue:// work queue into the shared store."""
    from repro.obs.log import StructLogger
    from repro.service.queue import DEFAULT_LEASE_S, WorkQueue
    from repro.service.worker import worker_loop

    parser = argparse.ArgumentParser(
        prog="glsc-harness worker",
        parents=[_cache_parent()],
        description=(
            "Claim tasks from a queue:// work queue, simulate them, "
            "and persist the results to the shared result store.  Run "
            "N of these (any host sharing the filesystem) to drain "
            "one sweep; expired leases are requeued automatically."
        ),
    )
    parser.add_argument(
        "queue", metavar="URL", help="the work queue (queue://<dir>)"
    )
    parser.add_argument(
        "--worker-id", default=None, metavar="NAME",
        help="identity recorded in lease stamps and result provenance "
             "(default: <host>-<pid>)",
    )
    parser.add_argument(
        "--lease", type=float, default=DEFAULT_LEASE_S, metavar="S",
        help=f"lease seconds on claimed tasks (default: "
             f"{DEFAULT_LEASE_S:.0f})",
    )
    parser.add_argument(
        "--poll", type=float, default=0.2, metavar="S",
        help="sleep between claim attempts when idle (default: 0.2)",
    )
    parser.add_argument(
        "--exit-when-empty", action="store_true",
        help="return once the queue has no pending or leased tasks",
    )
    parser.add_argument(
        "--idle-exit", type=float, default=None, metavar="S",
        help="return after this many seconds without claiming a task",
    )
    parser.add_argument(
        "--max-tasks", type=int, default=None, metavar="N",
        help="return after executing N tasks",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-task log lines",
    )
    parser.add_argument(
        "--log-format", default="text", choices=("text", "json"),
        help="log line format: human text or structured JSON "
             "(default: text)",
    )
    args = parser.parse_args(argv)

    logger = (
        None if args.quiet
        else StructLogger(
            stream=sys.stderr, component="worker", fmt=args.log_format
        )
    )
    queue = WorkQueue.from_url(
        args.queue, lease_s=args.lease, logger=logger
    )
    store = ResultStore(args.cache_dir)
    summary = worker_loop(
        queue,
        store,
        worker_id=args.worker_id,
        poll_s=args.poll,
        exit_when_empty=args.exit_when_empty,
        idle_exit_s=args.idle_exit,
        max_tasks=args.max_tasks,
        log=logger,
    )
    print(
        f"worker {summary.worker_id}: {summary.executed} executed, "
        f"{summary.skipped} skipped, {summary.failed} failed, "
        f"{summary.requeued} requeued in {summary.wall_time_s:.2f}s"
    )
    return 1 if summary.failed else 0


def _main_status(argv: List[str]) -> int:
    """``status``: a drain's progress, read from the queue directory."""
    from repro.obs.sweeptrace import read_heartbeats
    from repro.service.queue import WorkQueue

    parser = argparse.ArgumentParser(
        prog="glsc-harness status",
        description=(
            "Show a queue:// drain in progress: pending and leased "
            "task files, and each worker's last heartbeat (claims, "
            "outcomes, simulation seconds, contention roll-up)."
        ),
    )
    parser.add_argument(
        "queue", metavar="URL", help="the work queue (queue://<dir>)"
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print one JSON document instead of the summary",
    )
    args = parser.parse_args(argv)

    queue = WorkQueue.from_url(args.queue)
    if not queue.root.is_dir():
        print(f"status: no queue directory at {queue.root}",
              file=sys.stderr)
        return 2
    counts = queue.counts()
    workers = read_heartbeats(queue.root)
    if args.json:
        doc = {"root": str(queue.root), **counts, "workers": workers}
        print(json.dumps(doc, indent=1, sort_keys=True))
        return 0

    print(
        f"queue {queue.root}: {counts['pending']} pending, "
        f"{counts['leased']} leased"
    )
    if not workers:
        print("workers: no heartbeats yet")
        return 0
    print(f"workers ({len(workers)} heartbeat(s)):")
    for beat in workers:
        print(
            f"  {beat.get('worker_id', '?')}: "
            f"{beat.get('claims', 0)} claims, "
            f"{beat.get('executed', 0)} executed, "
            f"{beat.get('skipped', 0)} skipped, "
            f"{beat.get('failed', 0)} failed, "
            f"{beat.get('sim_wall_s', 0.0):.2f}s simulating "
            f"(heartbeat {beat['age_s']:.1f}s ago)"
        )
    lanes = sum(beat.get("contention_failed_lanes", 0) for beat in workers)
    sc_failed = sum(
        beat.get("contention_sc_failures", 0) for beat in workers
    )
    if lanes or sc_failed:
        print(
            f"contention: {int(lanes)} failed GLSC lanes, "
            f"{int(sc_failed)} sc failures across workers"
        )
    return 0


def _main_sweep_trace(argv: List[str]) -> int:
    """``sweep-trace``: export a drain's spans as one Perfetto trace."""
    from repro.obs.perfetto import SweepTraceExporter
    from repro.obs.sweeptrace import collect_spans
    from repro.service.queue import parse_queue_url

    parser = argparse.ArgumentParser(
        prog="glsc-harness sweep-trace",
        description=(
            "Merge the span sidecars a traced sweep left under a "
            "queue:// directory (queue enqueue, worker "
            "claim/simulate/save) into one Chrome trace-event file — "
            "open it in https://ui.perfetto.dev to see the whole "
            "multi-worker drain, workers as process tracks."
        ),
    )
    parser.add_argument(
        "queue", metavar="URL", help="the drained queue (queue://<dir>)"
    )
    parser.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="restrict to one sweep's trace id (default: every span)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("sweep.trace.json"),
        metavar="FILE",
        help="output trace path (default: sweep.trace.json)",
    )
    args = parser.parse_args(argv)

    root = parse_queue_url(args.queue)
    spans = collect_spans(root, trace_id=args.trace_id)
    if not spans:
        print(
            f"no spans under {root}/spans"
            + (f" for trace {args.trace_id}" if args.trace_id else "")
            + " — was the sweep run with a queue:// backend?",
            file=sys.stderr,
        )
        return 2
    exporter = SweepTraceExporter.from_spans(spans)
    exporter.write(args.out)
    actors = sorted({s.get("actor", "?") for s in spans})
    digests = {s.get("digest") for s in spans if s.get("digest")}
    print(
        f"{len(spans)} spans, {len(digests)} spec(s), "
        f"{len(actors)} actor(s) ({', '.join(actors)}) -> {args.out}"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.harness`` / ``glsc-harness``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Subcommand dispatch: the experiment names stay positional for
    # back-compat, so only the non-experiment verbs are special.
    if argv and argv[0] == "trace":
        return _main_trace(argv[1:])
    if argv and argv[0] == "profile":
        return _main_profile(argv[1:])
    if argv and argv[0] == "contend":
        return _main_contend(argv[1:])
    if argv and argv[0] == "bench":
        return _main_bench(argv[1:])
    if argv and argv[0] == "cache":
        return _main_cache(argv[1:])
    if argv and argv[0] == "worker":
        return _main_worker(argv[1:])
    if argv and argv[0] == "status":
        return _main_status(argv[1:])
    if argv and argv[0] == "sweep-trace":
        return _main_sweep_trace(argv[1:])
    parser = argparse.ArgumentParser(
        prog="glsc-harness",
        parents=[_cache_parent(), _jobs_parent(), _protocol_parent(),
                 _telemetry_parent()],
        description=(
            "Regenerate the evaluation of 'Atomic Vector Operations on "
            "Chip Multiprocessors' (ISCA 2008) on the repro simulator. "
            "See also the 'trace', 'profile', 'contend', 'bench', "
            "'cache', 'worker', 'status', and 'sweep-trace' "
            "subcommands (--help on each)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS + EXTENSIONS + ("all",),
        help="which table/figure (or extension experiment) to regenerate",
    )
    parser.add_argument(
        "--kernels",
        nargs="+",
        default=list(KERNEL_ORDER),
        choices=list(KERNEL_ORDER),
        help="subset of benchmarks (default: all seven)",
    )
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=["A", "B"],
        choices=["A", "B", "random", "tiny"],
        help="datasets to sweep (default: A B)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk result store",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="URL",
        help="run simulations via a work-queue backend (queue://<dir>) "
             "drained by `worker` processes instead of locally",
    )
    args = parser.parse_args(argv)

    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    store = None
    if not args.no_cache:
        store = ResultStore(args.cache_dir)
        if store.root.exists() and not store.root.is_dir():
            parser.error(
                f"--cache-dir {store.root} exists and is not a directory"
            )
    if args.backend and store is None:
        parser.error("--backend requires the store (drop --no-cache)")
    executor = Executor(
        jobs=args.jobs,
        store=store,
        backend=args.backend,
        **(_protocol_overrides(args.protocol) or {}),
    )
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    started = time.time()
    for name in names:
        if name in EXTENSIONS:
            print(_render_extension(name, tuple(args.kernels), executor))
        else:
            print(_render(name, executor, tuple(args.kernels),
                          tuple(args.datasets)))
        print()
    elapsed = time.time() - started
    if args.telemetry and executor.telemetry:
        from repro.obs.telemetry import render_telemetry

        print(render_telemetry(executor.telemetry))
        print()
    queued = (
        f", {executor.counters.queued} via workers"
        if executor.counters.queued else ""
    )
    print(
        f"[{executor.simulations} simulations, "
        f"{executor.store_hits} from store{queued}, {elapsed:.1f}s]",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
