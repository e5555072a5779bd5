"""Markdown report + sparkline tests, and the tier-2 full-suite run."""

import pytest

from repro.bench import (
    BenchRunner,
    Comparator,
    render_markdown,
    sparkline,
    trajectory_entry,
)
from repro.bench.fidelity import distill_reference
from repro.bench.suite import BenchSuite, get_suite


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_uses_lowest_block(self):
        assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"

    def test_monotone_series_rises(self):
        line = sparkline([0, 1, 2, 3])
        assert line[0] == "▁" and line[-1] == "█"
        assert len(line) == 4


class TestMarkdownReport:
    @pytest.fixture(scope="class")
    def doc(self):
        suite = BenchSuite.grid(
            "tiny", ("tms",), "tiny", topologies=("1x2",), widths=(4,)
        )
        return BenchRunner(suite, repeats=1, git_sha="abc1234").run()

    def test_clean_report(self, doc):
        comparison = Comparator().compare(
            doc, trajectory_entry(doc), distill_reference(doc)
        )
        markdown = render_markdown(
            comparison, [trajectory_entry(doc)], doc=doc
        )
        assert "# Bench report — `abc1234`" in markdown
        assert "Gate: ok" in markdown
        assert "Every metric within bounds." in markdown
        assert "## Fidelity snapshot" in markdown
        assert "## Trajectory" in markdown
        assert "total wall (s)" in markdown

    def test_regressed_report_lists_exceptions(self, doc):
        import copy

        slowed = copy.deepcopy(doc)
        for point in slowed["points"]:
            # Ten times slower and past the comparator's absolute
            # floor, however fast this host ran the tiny point.
            point["wall_s"]["median"] = (
                10 * point["wall_s"]["median"] + Comparator().abs_floor_s
            )
        comparison = Comparator().compare(slowed, trajectory_entry(doc))
        markdown = render_markdown(comparison)
        assert "Gate: REGRESSED" in markdown
        assert "## Exceptions" in markdown
        assert "**regressed**" in markdown


@pytest.mark.tier2
class TestFullSuiteTier2:
    """The real observatory grid, end to end (slow; tier-2 only)."""

    def test_full_suite_runs_and_self_compares_clean(self):
        doc = BenchRunner(get_suite("full"), repeats=1,
                          git_sha="tier2run").run()
        assert len(doc["points"]) == 84
        assert doc["deterministic"] is True
        # 28 (kernel, width, topology) cells => 42 ratio keys at 2
        # topologies x 3 widths x 7 kernels.
        assert len(doc["fidelity"]["speedup"]) == 42
        comparison = Comparator().compare(
            doc, trajectory_entry(doc), distill_reference(doc)
        )
        assert not comparison.failed
