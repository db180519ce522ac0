"""Fleet coordination: leader election, shard assignment, supervised sweeps.

The reaper (the worker allowed to break an expired lease the moment it
expires) is a pure function of the job identity and the sorted
live-worker set, so every worker computes it locally and arrives at the
same choice with zero extra communication.  The same view of the fleet
drives shard assignment: each worker prefers the shard positions strided
to its rank and steals the rest only when its own range is exhausted.

Coordination is advisory everywhere: two workers with momentarily
different views of the fleet at worst both execute a shard, and the
content-addressed :class:`~repro.runtime.store.ResultStore` dedupes the
results.  See :mod:`repro.fabric.queue` for the underlying guarantees.
"""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
import sys
import time

from repro.fabric.queue import (
    DEFAULT_LEASE_TTL,
    FabricQueue,
    IncompleteSweepError,
)
from repro.runtime.runner import ScenarioRun, import_protocol_stack
from repro.runtime.scenario import Scenario

logger = logging.getLogger(__name__)

__all__ = [
    "collect",
    "elect_reaper",
    "fabric_status",
    "run_fabric_sweep",
    "shard_preference",
]

def _election_seed(scenario: Scenario, workers: tuple[str, ...]) -> int:
    digest = hashlib.sha256(
        json.dumps(
            [scenario.name, scenario.seed, list(workers)], sort_keys=True
        ).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def elect_reaper(
    queue: FabricQueue, workers: list[str] | None = None
) -> str | None:
    """The worker entitled to reap expired leases immediately.

    With three or more live workers this hashes the job identity and the
    sorted worker list (:func:`_election_seed`) onto one of them, so the
    choice is deterministic and independent of enumeration order.  Fewer
    than three workers keep "highest id wins".
    """
    workers = (
        queue.live_workers() if workers is None else sorted(workers)
    )
    if not workers:
        return None
    if len(workers) < 3:
        return workers[-1]
    seed = _election_seed(queue.scenario(), tuple(workers))
    elected = workers[seed % len(workers)]
    logger.debug("elected reaper %s over %d live workers", elected, len(workers))
    return elected


def shard_preference(
    shard_ids: list[str], worker_id: str, workers: list[str]
) -> list[str]:
    """This worker's claim order: its strided range first, stealing after.

    The assignment derives from the same deterministic elected view on
    every worker, so ranges are disjoint while every worker still covers
    every shard eventually (work stealing keeps a dead worker's range
    from stalling the sweep).
    """
    if worker_id not in workers or len(workers) <= 1:
        return list(shard_ids)
    rank = workers.index(worker_id)
    width = len(workers)
    mine = [s for i, s in enumerate(shard_ids) if i % width == rank]
    rest = [s for i, s in enumerate(shard_ids) if i % width != rank]
    return mine + rest


def fabric_status(fabric_dir) -> dict:
    """Queue status plus the current election outcome."""
    queue = FabricQueue(fabric_dir)
    status = queue.status()
    status["reaper"] = elect_reaper(queue, status["workers"]["live"])
    return status


def collect(fabric_dir, meta: dict | None = None) -> ScenarioRun:
    """Assemble the finished sweep's :class:`ScenarioRun` from the store.

    Every shard's trial set was produced by the same per-trial RNG
    derivation and the same :func:`aggregate_trials` fold the in-process
    runner uses, so the assembled run is bit-identical to ``jobs=1``.
    """
    queue = FabricQueue(fabric_dir)
    scenario = queue.scenario()
    store = queue.store()
    trial_sets = []
    missing = []
    for position, n in enumerate(scenario.sizes):
        trial_set = store.load(scenario, n, position)
        if trial_set is None:
            missing.append(f"p{position:04d} (n={n})")
        else:
            trial_sets.append(trial_set)
    if missing:
        raise IncompleteSweepError(
            f"sweep at {queue.root} is incomplete: missing shards "
            f"{', '.join(missing)} — run more workers (repro worker "
            f"{queue.root}) and collect again"
        )
    queue.reap_done_leases()
    return ScenarioRun(
        scenario=scenario,
        trial_sets=tuple(trial_sets),
        meta=dict(meta or {"executor": "fabric"}),
    )


def run_fabric_sweep(
    scenario: Scenario,
    fabric_dir,
    workers: int = 1,
    store=None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    fault_plans: dict | None = None,
    poll: float = 0.05,
    timeout: float | None = None,
    meta: dict | None = None,
) -> ScenarioRun:
    """Create (or resume) the job and drive it with local worker processes.

    ``fault_plans`` maps a worker index to a
    :class:`~repro.fabric.worker.FaultPlan` — the fault-injection harness
    for the fabric itself.  The supervisor keeps the sweep live: when
    every worker has died (injected kills, real crashes) but shards
    remain, it spawns a replacement, so an injected mid-shard SIGKILL
    still resumes to completion.  Results are collected from the job's
    content-addressed store, bit-identical to ``jobs=1``.
    """
    if workers < 1:
        raise ValueError(f"fabric needs >= 1 worker, got {workers}")
    from repro.fabric.worker import worker_entry

    queue = FabricQueue(fabric_dir)
    queue.create_job(
        scenario,
        lease_ttl=lease_ttl,
        store_root=None if store is None else store.root,
        store_max_entries=None if store is None else store.max_entries,
    )
    context = (
        multiprocessing.get_context("fork")
        if sys.platform == "linux"
        else multiprocessing.get_context()
    )
    fault_plans = fault_plans or {}
    spawned = 0
    import_protocol_stack()

    def spawn(index: int, tag: str = "local"):
        nonlocal spawned
        process = context.Process(
            target=worker_entry,
            args=(str(fabric_dir), f"{tag}-{index:02d}"),
            kwargs={"fault_plan": fault_plans.get(index), "poll": poll},
            daemon=True,
        )
        process.start()
        spawned += 1
        return process

    processes = [spawn(index) for index in range(workers)]
    deadline = None if timeout is None else time.time() + timeout
    respawns = 0
    try:
        while not queue.all_done():
            processes = [p for p in processes if p.is_alive()]
            if not processes:
                # The whole fleet died with shards pending: crash-safe
                # resume means the supervisor re-seeds it.  A bounded
                # budget turns a systematically-failing scenario into an
                # error instead of an infinite respawn loop.
                if respawns >= workers + 4:
                    raise RuntimeError(
                        f"fabric workers keep dying with shards pending at "
                        f"{queue.root} ({respawns} respawns); inspect "
                        f"`repro fabric status {queue.root}`"
                    )
                respawns += 1
                logger.warning(
                    "fabric fleet at %s died with %d shards pending; "
                    "respawning worker (%d/%d)",
                    queue.root,
                    len(queue.pending_shards()),
                    respawns,
                    workers + 4,
                )
                processes = [spawn(respawns, tag="respawn")]
            if deadline is not None and time.time() > deadline:
                raise IncompleteSweepError(
                    f"fabric sweep at {queue.root} did not finish within "
                    f"{timeout}s ({len(queue.pending_shards())} shards "
                    f"pending)"
                )
            time.sleep(min(poll, 0.1))
    finally:
        for process in processes:
            process.join(timeout=10.0)
        for process in processes:
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5.0)
    run_meta = dict(meta or {})
    run_meta.setdefault("executor", "fabric")
    run_meta.update(
        fabric_dir=str(queue.root),
        workers_spawned=spawned,
        worker_respawns=respawns,
        shards=len(scenario.sizes),
    )
    return collect(fabric_dir, meta=run_meta)
