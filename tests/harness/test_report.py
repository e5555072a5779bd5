"""Unit tests for report formatting (the paper's tables and figures)."""

import pytest

from repro.harness import experiments
from repro.harness.experiments import Fig5Row, Fig6Row, Fig8Row
from repro.harness.report import (
    render_fig5a,
    render_fig6,
    render_fig8,
    render_table4,
)
from repro.sim.executor import RunSpec
from repro.sim.stats import MachineStats


class TestTableRenderers:
    def test_fig5a_table(self):
        text = render_fig5a([Fig5Row("gbc", "A", sync_percent=12.5)])
        assert "GBC" in text and "12.5%" in text

    def test_fig6_table_has_all_topologies(self):
        row = Fig6Row(
            "hip",
            "A",
            base={"1x1": 0.8, "1x4": 2.0, "4x1": 2.1, "4x4": 5.0},
            glsc={"1x1": 1.0, "1x4": 2.5, "4x1": 2.6, "4x4": 6.0},
        )
        text = render_fig6([row])
        for topology in ("1x1", "1x4", "4x1", "4x4"):
            assert topology in text
        assert "Base" in text and "GLSC" in text

    def test_fig6_ratio_helper(self):
        row = Fig6Row("hip", "A", base={"4x4": 5.0}, glsc={"4x4": 6.0})
        assert row.ratio("4x4") == pytest.approx(1.2)

    def test_fig8_table(self):
        text = render_fig8([Fig8Row("tms", "B", ratios={1: 1.0, 16: 3.0})])
        assert "1-wide" in text and "16-wide" in text and "3.00" in text


def _canned_stats(cycles, sync=0, instr=100, stall=10, l1=100, l1_sync=40,
                  saved=20, attempts=0, successes=0):
    stats = MachineStats(cycles=cycles)
    thread = stats.new_thread()
    thread.instructions = instr
    thread.sync_cycles = sync
    thread.mem_stall_cycles = stall
    stats.l1_accesses = l1
    stats.l1_sync_accesses = l1_sync
    stats.l1_accesses_saved_by_combining = saved
    stats.gatherlink_elements = attempts
    stats.scattercond_successes = successes
    return stats


class CannedExecutor:
    """Serves a fixed {spec: stats} table; no simulation involved."""

    def __init__(self, table):
        self.table = table

    def run_sweep(self, sweep, obs=None):
        return {spec: self.table[spec] for spec in sweep}


class TestGoldenRenders:
    """Exact-output tests: a canned {spec: stats} mapping runs through
    the experiment reducers and must render byte-for-byte stable text."""

    def test_fig5a_golden(self):
        table = {
            RunSpec("tms", "A", "1x1", 1, "glsc"): _canned_stats(
                1000, sync=250),
            RunSpec("hip", "A", "1x1", 1, "glsc"): _canned_stats(
                2000, sync=100),
        }
        rows = experiments.fig5a(("tms", "hip"), ("A",),
                                 executor=CannedExecutor(table))
        assert render_fig5a(rows) == (
            "Figure 5(a): % of execution time in synchronization ops "
            "(1x1, 1-wide SIMD, GLSC)\n"
            "benchmark  ds  sync  \n"
            "---------  --  ------\n"
            "TMS        A    25.0%\n"
            "HIP        A     5.0%"
        )

    def test_fig8_golden(self):
        table = {}
        for width, (base, glsc) in zip(
            (1, 4, 16), ((4000, 2000), (2400, 1200), (1600, 1000))
        ):
            table[RunSpec("tms", "A", "4x4", width, "base")] = \
                _canned_stats(base)
            table[RunSpec("tms", "A", "4x4", width, "glsc")] = \
                _canned_stats(glsc)
        rows = experiments.fig8(("tms",), ("A",),
                                executor=CannedExecutor(table))
        assert render_fig8(rows) == (
            "Figure 8: execution-time ratio Base/GLSC at 4x4\n"
            "benchmark  ds  1-wide  4-wide  16-wide\n"
            "---------  --  ------  ------  -------\n"
            "TMS        A   2.00    2.00    1.60   "
        )

    def test_table4_golden(self):
        table = {
            RunSpec("tms", "A", "4x4", 4, "base"): _canned_stats(
                3000, instr=200, stall=100),
            RunSpec("tms", "A", "4x4", 4, "glsc"): _canned_stats(
                1500, instr=100, stall=40, l1=100, l1_sync=40, saved=20,
                attempts=100, successes=90),
            RunSpec("tms", "A", "1x1", 4, "glsc"): _canned_stats(
                1200, attempts=100, successes=98),
        }
        rows = experiments.table4(("tms",), ("A",),
                                  executor=CannedExecutor(table))
        assert render_table4(rows) == (
            "Table 4: analysis of GLSC (4-wide SIMD; reductions at 4x4)\n"
            "benchmark  ds  instr red.  mem-stall red.  "
            "L1 accesses (combined of atomic)  fail 1x1  fail 4x4\n"
            "---------  --  ----------  --------------  "
            "--------------------------------  --------  --------\n"
            "TMS        A    50.00%      60.00%         "
            "33.33% of 40.00%                   2.00%    10.00%  "
        )

    def test_empty_sweep_renders_header_only(self):
        assert render_fig5a([]) == (
            "Figure 5(a): % of execution time in synchronization ops "
            "(1x1, 1-wide SIMD, GLSC)\n"
            "benchmark  ds  sync\n"
            "---------  --  ----"
        )
        assert render_fig8([]) == (
            "Figure 8: execution-time ratio Base/GLSC at 4x4\n"
            "benchmark  ds\n"
            "---------  --"
        )
        assert render_fig6([]).splitlines()[0] == (
            "Figure 6: speedup normalized to 1x1 GLSC time (4-wide SIMD)"
        )
        empty_t4 = render_table4([]).splitlines()
        assert len(empty_t4) == 3  # title + header + rule, no data rows
        assert empty_t4[0].startswith("Table 4:")
