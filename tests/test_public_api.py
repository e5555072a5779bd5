"""The stable public surface: everything in ISSUE 7's contract imports
from ``repro`` directly and ``__all__`` is honest (tier 1).
"""

import repro


STABLE = (
    "RunSpec",
    "Sweep",
    "Executor",
    "ResultStore",
    "MachineConfig",
    "MachineStats",
)


class TestPublicSurface:
    def test_stable_names_importable_from_top_level(self):
        for name in STABLE:
            assert hasattr(repro, name), name
            assert name in repro.__all__, name

    def test_all_is_honest(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_is_sorted_and_unique(self):
        names = [n for n in repro.__all__ if not n.startswith("__")]
        assert names == sorted(set(names))

    def test_session_facade_not_reexported(self):
        assert not hasattr(repro, "Session")

    def test_top_level_spellings_are_the_canonical_classes(self):
        from repro.sim.executor import Executor, RunSpec, Sweep
        from repro.sim.store import ResultStore

        assert repro.RunSpec is RunSpec
        assert repro.Sweep is Sweep
        assert repro.Executor is Executor
        assert repro.ResultStore is ResultStore

    def test_quickstart_types_roundtrip(self, tmp_path):
        spec = repro.RunSpec("tms", "tiny", "1x1", 4, "glsc")
        store = repro.ResultStore(tmp_path / "cache")
        stats = repro.Executor(store=store).run(spec)
        assert isinstance(stats, repro.MachineStats)
        assert store.load(spec.digest()) == stats
