"""Many concurrent writers, one store: the put-race contract.

Four processes hammer the same ``ResultStore`` with overlapping
digests.  Afterwards every record must parse (atomic-rename puts never
leave torn files) and last-writer-wins must be unobservable (racing
records are value-equal apart from provenance).  The synthetic
stats here are deterministic functions of the digest so value-equality
across writers holds by construction, exactly as it does for real
runs.
"""

import multiprocessing

import pytest

from repro.sim.stats import MachineStats
from repro.sim.store import ResultStore

WRITERS = 4
ROUNDS = 25
DIGESTS = [f"{i:02d}" + "ab" * 31 for i in range(8)]  # shared by all


def _stats_for(digest: str) -> MachineStats:
    """Deterministic synthetic stats — same digest, same value."""
    seed = int(digest[:2])
    return MachineStats(cycles=1000 + seed, l1_accesses=seed * 7)


def _writer(root, writer_id: int) -> None:
    store = ResultStore(root)
    for round_no in range(ROUNDS):
        for digest in DIGESTS:
            store.save(
                digest,
                _stats_for(digest),
                spec={"kernel": f"k{int(digest[:2])}"},
                provenance={"writer": writer_id, "round": round_no},
            )


@pytest.fixture(scope="module")
def hammered_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(target=_writer, args=(root, writer_id))
        for writer_id in range(WRITERS)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    return ResultStore(root)


class TestConcurrentWriters:
    def test_every_record_parses_and_has_the_expected_value(
        self, hammered_store
    ):
        assert sorted(hammered_store.digests()) == sorted(DIGESTS)
        for digest in DIGESTS:
            record = hammered_store.load_record(digest)
            assert record is not None, f"torn/unreadable record {digest}"
            assert record["stats"] == _stats_for(digest).to_dict()

    def test_winner_is_one_complete_writer_not_a_blend(
        self, hammered_store
    ):
        for digest in DIGESTS:
            provenance = hammered_store.load_record(digest)["provenance"]
            assert provenance["writer"] in range(WRITERS)
            assert provenance["round"] in range(ROUNDS)
