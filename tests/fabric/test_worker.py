"""Worker-loop behaviour: exact RNG slices, dedup, resume, fault plans."""

import pytest

from repro.fabric import (
    FabricQueue,
    FaultPlan,
    collect,
    execute_shard,
    run_worker,
    shard_trial_rngs,
)
from repro.runtime import run_scenario


class TestRngDerivation:
    def test_shard_slices_match_runner_grid_order(self, make_scenario):
        # The worker must reproduce run_scenario's per-trial streams bit
        # for bit: each shard aggregates to the very TrialSet the
        # in-process runner computes for that grid position.
        scenario = make_scenario()
        baseline = run_scenario(scenario, jobs=1)
        for position in range(len(scenario.sizes)):
            assert (
                execute_shard(scenario, position)
                == baseline.trial_sets[position]
            )

    def test_slices_are_disjoint_and_ordered(self, make_scenario):
        # Concatenating every shard's slice reproduces the runner's flat
        # spawn sequence: same child at the same flat index, draw for draw,
        # and the lazy slices equal eagerly spawned children.
        import numpy as np

        from repro.util.rng import RandomSource

        scenario = make_scenario()
        flat = []
        for position in range(len(scenario.sizes)):
            flat.extend(shard_trial_rngs(scenario, position))
        reference = RandomSource(scenario.seed).spawn_many(len(flat))
        eager = np.random.SeedSequence(scenario.seed).spawn(len(flat))
        assert len(flat) == len(scenario.sizes) * scenario.trials
        for sliced, direct, sequence in zip(flat, reference, eager):
            assert sliced.generator.random() == direct.generator.random()
            oracle = RandomSource(sequence)
            oracle.generator.random()
            assert sliced.uniform_int(1, 2**40) == oracle.uniform_int(1, 2**40)


class TestWorkerLoop:
    def test_single_worker_completes_job(self, tmp_path, make_scenario):
        scenario = make_scenario()
        queue = FabricQueue(tmp_path / "job")
        queue.create_job(scenario, lease_ttl=5.0)
        summary = run_worker(queue.root, worker_id="solo")
        assert summary["all_done"]
        assert sorted(summary["completed"]) == ["p0000", "p0001", "p0002"]
        assert summary["trials"] == len(scenario.sizes) * scenario.trials
        run = collect(queue.root)
        assert run.trial_sets == run_scenario(scenario, jobs=1).trial_sets
        # The crash-safety invariant: a finished job holds no leases.
        assert list(queue.leases_dir.glob("p*.json")) == []

    def test_cached_shard_is_marked_done_without_recompute(
        self, tmp_path, make_scenario
    ):
        scenario = make_scenario()
        queue = FabricQueue(tmp_path / "job")
        queue.create_job(scenario, lease_ttl=5.0)
        # Pre-populate one shard's result (a previous fleet's work).
        store = queue.store()
        store.save(scenario, scenario.sizes[0], 0, execute_shard(scenario, 0))
        summary = run_worker(queue.root, worker_id="solo")
        assert summary["all_done"]
        # Only the two missing shards' trials were executed.
        assert summary["trials"] == 2 * scenario.trials

    def test_max_shards_stops_early(self, tmp_path, make_scenario):
        queue = FabricQueue(tmp_path / "job")
        queue.create_job(make_scenario(), lease_ttl=5.0)
        summary = run_worker(queue.root, worker_id="solo", max_shards=1)
        assert len(summary["completed"]) == 1
        assert not summary["all_done"]

    def test_missing_job_is_loud(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no fabric job"):
            run_worker(tmp_path / "nope")

    def test_worker_survives_corrupting_its_own_lease(
        self, tmp_path, make_scenario
    ):
        # The corrupt-a-lease fault: a torn write over the worker's own
        # lease file must not stop the shard from completing.
        scenario = make_scenario()
        queue = FabricQueue(tmp_path / "job")
        queue.create_job(scenario, lease_ttl=5.0)
        summary = run_worker(
            queue.root,
            worker_id="solo",
            fault_plan=FaultPlan(corrupt_lease_after_trials=1),
        )
        assert summary["all_done"]
        run = collect(queue.root)
        assert run.trial_sets == run_scenario(scenario, jobs=1).trial_sets
        assert list(queue.leases_dir.glob("p*.json")) == []

    def test_duplicate_execution_is_deduped_by_store(
        self, tmp_path, make_scenario
    ):
        # Two workers both executing every shard (no coordination at all)
        # still converge to one result set — leases are efficiency only.
        scenario = make_scenario()
        queue = FabricQueue(tmp_path / "job")
        queue.create_job(scenario, lease_ttl=5.0)
        store = queue.store()
        for position, n in enumerate(scenario.sizes):
            store.save(scenario, n, position, execute_shard(scenario, position))
        before = {
            p.name: p.read_bytes() for p in store.root.glob("*.json")
        }
        run_worker(queue.root, worker_id="dup")
        after = {p.name: p.read_bytes() for p in store.root.glob("*.json")}
        assert after == before
