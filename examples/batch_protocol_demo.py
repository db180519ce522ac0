"""Array-native protocols: porting a Node subclass to BatchProtocol.

Walks the EXPERIMENTS.md migration recipe on a minimal protocol —
max-id flooding on a cycle (every node repeatedly broadcasts the largest
id it has heard; after n rounds everyone knows the maximum) — then shows
the same `--node-api` switch on a shipped port (ring LCR).  A node list
runs on the same batch loop as the port: the engine wraps it in
`ScalarAdapter`.

Run with:  PYTHONPATH=src python examples/batch_protocol_demo.py
"""

import time

import numpy as np

from repro.classical.leader_election.ring import lcr_ring
from repro.network import graphs
from repro.network.batch import BatchProtocol, MessageBatch
from repro.network.engine import SynchronousEngine
from repro.network.message import Message
from repro.network.metrics import MetricsRecorder
from repro.network.node import Node
from repro.util.rng import RandomSource


# -- 1. the scalar protocol: one step() call per node per round ---------------


class FloodNode(Node):
    """Broadcast the largest id heard so far; halt after ``deadline`` rounds."""

    def __init__(self, uid, degree, rng, deadline):
        super().__init__(uid, degree, rng)
        self.deadline = deadline
        self.best = uid

    def step(self, round_index, inbox):
        for _, message in inbox:
            if message.payload > self.best:
                self.best = message.payload
        if round_index >= self.deadline:
            self.halt()
            return []
        return [(p, Message("flood", payload=self.best)) for p in range(self.degree)]


# -- 2. the array-native port: one step_batch() call per round ----------------


class FloodBatch(BatchProtocol):
    """The same protocol as struct-of-arrays state + grouped reductions.

    Migration recipe applied: per-node ``best`` becomes a column; the
    inbox loop becomes one ``np.maximum.at``; the outbox is built in
    canonical order (senders ascending) by repeating each alive node
    ``degree`` times; halting is one mask assignment.
    """

    def __init__(self, topology, deadline):
        super().__init__(topology.n)
        self.deadline = deadline
        self.best = np.arange(topology.n, dtype=np.int64)
        self.degree = np.asarray(
            [topology.degree(v) for v in range(topology.n)], dtype=np.int64
        )
        # ports 0..degree-1 per node, flattened in node order once.
        self._senders = np.repeat(np.arange(topology.n, dtype=np.int64), self.degree)
        self._ports = np.concatenate(
            [np.arange(d, dtype=np.int64) for d in self.degree.tolist()]
        )

    def step_batch(self, round_index, inbox):
        if len(inbox):
            np.maximum.at(self.best, inbox.receivers, inbox.values)
        if round_index >= self.deadline:
            self.halted[:] = True
            return None
        alive_rows = ~self.halted[self._senders]
        senders = self._senders[alive_rows]
        return MessageBatch(
            senders=senders,
            ports=self._ports[alive_rows],
            kinds=np.zeros(len(senders), dtype=np.int64),
            values=self.best[senders],
        )


def run_flood(topology, mode):
    rng = RandomSource(0)
    metrics = MetricsRecorder()
    deadline = topology.n
    if mode == "batch":
        program = FloodBatch(topology, deadline)
    else:
        nodes = [
            FloodNode(v, topology.degree(v), rng.spawn(), deadline)
            for v in range(topology.n)
        ]
        program = nodes
    engine = SynchronousEngine(topology, program, metrics, label="flood")
    start = time.perf_counter()
    engine.run(max_rounds=deadline + 1)
    elapsed = time.perf_counter() - start
    if mode == "batch":
        best = program.best.tolist()
    else:
        best = [n.best for n in program]
    return best, metrics.messages, metrics.rounds, elapsed


def main():
    topology = graphs.cycle(512)
    print(f"max-id flood on C_{topology.n}:")
    baseline = None
    for mode in ("scalar", "batch"):
        best, messages, rounds, elapsed = run_flood(topology, mode)
        assert all(b == topology.n - 1 for b in best)
        if baseline is None:
            baseline = (best, messages, rounds)
        else:
            assert (best, messages, rounds) == baseline, "paths must agree"
        print(
            f"  {mode:<8} {messages:>9,} msgs over {rounds} rounds "
            f"in {elapsed * 1e3:7.1f} ms  ({rounds / elapsed:,.0f} rounds/s)"
        )

    print("\nshipped port — ring LCR, scalar vs batch dispatch:")
    for api in ("scalar", "batch"):
        start = time.perf_counter()
        result = lcr_ring(1024, RandomSource(3), node_api=api)
        elapsed = time.perf_counter() - start
        print(
            f"  node_api={api:<7} leader={result.leader} "
            f"messages={result.messages:,} rounds={result.rounds} "
            f"in {elapsed * 1e3:7.1f} ms"
        )
    print("\n(identical leaders/messages/rounds: the batch path is")
    print(" bit-identical, it just crosses the numpy boundary once per")
    print(" round instead of once per node.)")


if __name__ == "__main__":
    main()
