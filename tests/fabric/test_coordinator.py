"""Coordination layer: reaper election, strided assignment, collect."""

import pytest

from repro.fabric import (
    FabricQueue,
    IncompleteSweepError,
    collect,
    elect_reaper,
    execute_shard,
    fabric_status,
    shard_preference,
)


@pytest.fixture
def queue(tmp_path, make_scenario):
    q = FabricQueue(tmp_path / "job")
    q.create_job(make_scenario(), lease_ttl=5.0)
    return q


class TestElection:
    def test_no_workers_no_reaper(self, queue):
        assert elect_reaper(queue, []) is None

    def test_small_fleets_pick_highest_id(self, queue):
        assert elect_reaper(queue, ["alice"]) == "alice"
        assert elect_reaper(queue, ["bob", "alice"]) == "bob"

    def test_election_is_deterministic_and_order_free(self, queue):
        fleet = ["w-03", "w-01", "w-02", "w-04"]
        first = elect_reaper(queue, fleet)
        assert first in fleet
        # Every worker runs the election locally on its own view; the
        # result must not depend on enumeration order.
        assert elect_reaper(queue, list(reversed(fleet))) == first
        assert elect_reaper(queue, sorted(fleet)) == first


class TestAssignment:
    def test_strided_ranges_are_disjoint_and_cover(self):
        shards = [f"p{i:04d}" for i in range(7)]
        fleet = ["a", "b", "c"]
        owned = []
        for rank, worker in enumerate(fleet):
            width = sum(1 for i in range(7) if i % 3 == rank)
            owned.extend(shard_preference(shards, worker, fleet)[:width])
        # Each worker's preferred range is its stride; together they tile
        # the grid exactly once.
        assert sorted(owned) == shards

    def test_every_worker_eventually_covers_everything(self):
        shards = [f"p{i:04d}" for i in range(5)]
        order = shard_preference(shards, "b", ["a", "b"])
        assert sorted(order) == shards

    def test_unknown_worker_gets_plain_order(self):
        shards = ["p0000", "p0001"]
        assert shard_preference(shards, "stranger", ["a", "b"]) == shards


class TestCollect:
    def test_collect_refuses_incomplete_sweep(self, queue):
        with pytest.raises(IncompleteSweepError, match="p0000"):
            collect(queue.root)

    def test_collect_assembles_and_reaps(self, queue, make_scenario):
        scenario = make_scenario()
        store = queue.store()
        for position, n in enumerate(scenario.sizes):
            store.save(scenario, n, position, execute_shard(scenario, position))
        queue.claim("p0000", "dead-worker")
        queue.mark_done("p0000", "dead-worker", {})
        run = collect(queue.root, meta={"executor": "fabric"})
        assert [ts.n for ts in run.trial_sets] == list(scenario.sizes)
        # Collect sweeps the crash-orphaned done lease.
        assert list(queue.leases_dir.glob("p*.json")) == []

    def test_status_includes_reaper(self, queue):
        queue.register_worker("alice")
        status = fabric_status(queue.root)
        assert status["reaper"] == "alice"
