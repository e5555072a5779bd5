"""Plain-text tables of the experiment results, formatted like the paper.

Every ``render_*`` function takes the corresponding
:mod:`repro.harness.experiments` result and returns a string; the CLI
prints them.  Where the paper reports a comparable number, the row
carries it for side-by-side reading (EXPERIMENTS.md holds the full
discussion).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.harness.experiments import (
    Fig5Row,
    Fig6Row,
    Fig7Row,
    Fig8Row,
    Table4Row,
)
from repro.sim.config import CONFIG_NAMES

__all__ = [
    "render_table1",
    "render_table3",
    "render_fig5a",
    "render_fig5b",
    "render_fig6",
    "render_fig7",
    "render_fig8",
    "render_table4",
]


def _table(header: Sequence[str], rows: List[Sequence[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def render_table1(params: Dict[str, object]) -> str:
    """Table 1: simulated system parameters."""
    rows = [(str(k), str(v)) for k, v in params.items()]
    return "Table 1: simulated system parameters\n" + _table(
        ("parameter", "value"), rows
    )


def render_table3(rows: List[Dict[str, str]]) -> str:
    """Table 3: benchmark characteristics (our datasets vs paper's)."""
    body = [
        (
            r["benchmark"],
            r["atomic_op"],
            r["dataset"],
            r["ours"],
            r["paper"],
        )
        for r in rows
    ]
    return "Table 3: benchmarks and datasets\n" + _table(
        ("benchmark", "atomic operation", "ds", "this reproduction",
         "paper dataset"),
        body,
    )


def render_fig5a(rows: List[Fig5Row]) -> str:
    """Figure 5(a): synchronization time share."""
    body = [
        (r.kernel.upper(), r.dataset, f"{r.sync_percent:5.1f}%")
        for r in rows
    ]
    return (
        "Figure 5(a): % of execution time in synchronization ops "
        "(1x1, 1-wide SIMD, GLSC)\n" + _table(("benchmark", "ds", "sync"), body)
    )


def render_fig5b(rows: List[Fig5Row]) -> str:
    """Figure 5(b): SIMD efficiency."""
    body = [
        (
            r.kernel.upper(),
            r.dataset,
            f"{r.speedup_4wide:4.2f}x",
            f"{r.speedup_16wide:4.2f}x",
        )
        for r in rows
    ]
    return (
        "Figure 5(b): speedup over 1-wide SIMD (GLSC, 1x1)\n"
        + _table(("benchmark", "ds", "4-wide", "16-wide"), body)
    )


def render_fig6(rows: List[Fig6Row]) -> str:
    """Figure 6: Base vs GLSC speedups, 4-wide SIMD."""
    header = ["benchmark", "ds", "variant"] + list(CONFIG_NAMES)
    body = []
    for row in rows:
        for variant, series in (("Base", row.base), ("GLSC", row.glsc)):
            body.append(
                [row.kernel.upper(), row.dataset, variant]
                + [f"{series.get(t, float('nan')):5.2f}" for t in CONFIG_NAMES]
            )
    return (
        "Figure 6: speedup normalized to 1x1 GLSC time (4-wide SIMD)\n"
        + _table(header, body)
    )


def render_fig7(rows: List[Fig7Row]) -> str:
    """Figure 7: microbenchmark Base/GLSC ratios."""
    body = [
        (r.scenario, f"{r.ratio_4wide:4.2f}", f"{r.ratio_16wide:4.2f}")
        for r in rows
    ]
    return (
        "Figure 7: microbenchmark execution-time ratio Base/GLSC (4x4)\n"
        + _table(("scenario", "4-wide", "16-wide"), body)
    )


def render_fig8(rows: List[Fig8Row]) -> str:
    """Figure 8: Base/GLSC ratio by SIMD width."""
    widths = sorted(rows[0].ratios) if rows else []
    header = ["benchmark", "ds"] + [f"{w}-wide" for w in widths]
    body = [
        [row.kernel.upper(), row.dataset]
        + [f"{row.ratios[w]:4.2f}" for w in widths]
        for row in rows
    ]
    return (
        "Figure 8: execution-time ratio Base/GLSC at 4x4\n"
        + _table(header, body)
    )


def render_table4(rows: List[Table4Row]) -> str:
    """Table 4: analysis of GLSC."""
    body = [
        (
            r.kernel.upper(),
            r.dataset,
            f"{r.instruction_reduction:6.2f}%",
            f"{r.mem_stall_reduction:6.2f}%",
            f"{r.l1_combining_reduction:5.2f}% of {r.l1_sync_share:5.2f}%",
            f"{r.failure_rate_1x1:5.2f}%",
            f"{r.failure_rate_4x4:5.2f}%",
        )
        for r in rows
    ]
    return (
        "Table 4: analysis of GLSC (4-wide SIMD; reductions at 4x4)\n"
        + _table(
            (
                "benchmark",
                "ds",
                "instr red.",
                "mem-stall red.",
                "L1 accesses (combined of atomic)",
                "fail 1x1",
                "fail 4x4",
            ),
            body,
        )
    )
