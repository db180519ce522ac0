"""Classical leader election in diameter-2 networks — [CPR20] style, Õ(n).

The tight classical bound for diameter-2 networks is Θ(n) messages [CPR20].
This baseline realizes the standard upper-bound structure: candidates
broadcast their rank to *all* neighbours; because the diameter is 2, any two
candidates are adjacent or share a common neighbour, so every referee can
arbitrate.  With Θ(log n) candidates the cost is Θ(n·log n) = Õ(n) messages —
the envelope QuantumQWLE's Õ(n^{2/3}) breaches.

Runs on the real synchronous engine (three rounds).
"""

from __future__ import annotations

import numpy as np

from repro.core.candidates import candidate_probability, rank_space
from repro.core.results import LeaderElectionResult
from repro.network.batch import (
    STATUS_ELECTED,
    STATUS_NON_ELECTED,
    BatchProtocol,
    MessageBatch,
    wants_batch_dispatch,
)
from repro.network.engine import SynchronousEngine
from repro.network.kernels import get_kernels
from repro.network.message import Message
from repro.network.metrics import MetricsRecorder
from repro.network.node import Node, Status
from repro.network.topology import Topology
from repro.util.rng import RandomSource

__all__ = ["classical_le_diameter2"]


class _CPRNode(Node):
    """Engine node: candidates flood neighbours, referees arbitrate."""

    def __init__(self, uid: int, degree: int, rng: RandomSource):
        super().__init__(uid, degree, rng)
        self.is_candidate = False
        self.rank = 0
        self.best_seen = 0
        self.senders: list[int] = []

    def start(self, probability: float, space: int) -> None:
        self.is_candidate = self.rng.bernoulli(probability)
        if self.is_candidate:
            self.rank = self.rng.uniform_int(1, space)
        else:
            self.status = Status.NON_ELECTED

    def step(self, round_index: int, inbox):
        if round_index == 0:
            if not self.is_candidate:
                return []
            return [
                (port, Message("rank", payload=self.rank))
                for port in range(self.degree)
            ]
        if round_index == 1:
            for port, message in inbox:
                self.best_seen = max(self.best_seen, message.payload)
            # One reply per distinct arrival port: a duplicating adversary
            # can deliver the same probe twice, and CONGEST allows one
            # message per port per round.
            self.senders = list(dict.fromkeys(port for port, _ in inbox))
            return [
                (port, Message("best", payload=self.best_seen))
                for port in self.senders
            ]
        if round_index == 2:
            if self.is_candidate:
                # A candidate may itself be a referee (e.g. adjacent to a
                # rival with no common neighbour): its own best_seen counts.
                highest_reply = max(
                    (message.payload for _, message in inbox),
                    default=0,
                )
                highest_reply = max(highest_reply, self.best_seen)
                if highest_reply > self.rank:
                    self.status = Status.NON_ELECTED
                else:
                    self.status = Status.ELECTED
            self.halt()
            return []
        return []


#: CPR wire vocabulary shared by the scalar and array-native implementations.
_CPR_RANK, _CPR_BEST = 0, 1


class _CPRBatch(BatchProtocol):
    """Array-native three-round CPR protocol.

    Column state: ``is_candidate``, ``rank``, ``best_seen``, plus the
    per-node degree vector (one :meth:`PortTable.degrees_of` gather, no
    per-node topology queries).  Round 0 broadcasts candidate ranks on
    every port; round 1 turns the inbox around (``senders = receivers``)
    with the group maximum gathered in; round 2 decides and halts.
    """

    def __init__(self, n: int, rngs, degrees: np.ndarray):
        super().__init__(n)
        self.rngs = rngs
        self.degrees = degrees
        self.kernels = get_kernels()
        self.is_candidate = np.zeros(n, dtype=bool)
        self.rank = np.zeros(n, dtype=np.int64)
        self.best_seen = np.zeros(n, dtype=np.int64)

    def start(self, probability: float, space: int) -> int:
        """Candidate/rank draws, bit-identical to ``_CPRNode.start`` per stream.

        Every node's candidate flip is one vectorized first draw over the
        :class:`~repro.util.rng.NodeStreams`; only candidates then draw a
        rank from their own stream.
        """
        self.is_candidate[:] = self.rngs.bernoulli(probability)
        self.status_codes[~self.is_candidate] = STATUS_NON_ELECTED
        for v in np.flatnonzero(self.is_candidate).tolist():
            self.rank[v] = self.rngs[v].uniform_int(1, space)
        return int(np.count_nonzero(self.is_candidate))

    def step_batch(self, round_index, inbox):
        if round_index == 0:
            candidates = np.nonzero(self.is_candidate & ~self.halted)[0]
            if not len(candidates):
                return None
            counts = self.degrees[candidates]
            total = int(counts.sum())
            if total == 0:
                return None
            senders = np.repeat(candidates, counts)
            starts = np.cumsum(counts) - counts
            ports = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
            return MessageBatch(
                senders=senders,
                ports=ports,
                kinds=np.full(total, _CPR_RANK, dtype=np.int64),
                values=self.rank[senders],
            )
        if round_index == 1:
            if not len(inbox):
                return None
            rec = inbox.receivers
            self.kernels.scatter_max(self.best_seen, rec, inbox.values)
            # One reply per distinct arrival port, as in the scalar node.
            replies = inbox.first_per_port()
            rec = replies.receivers
            return MessageBatch(
                senders=rec,
                ports=replies.ports,
                kinds=np.full(len(replies), _CPR_BEST, dtype=np.int64),
                values=self.best_seen[rec],
            )
        if round_index == 2:
            highest = self.best_seen.copy()
            if len(inbox):
                self.kernels.scatter_max(highest, inbox.receivers, inbox.values)
            alive = ~self.halted
            candidate = self.is_candidate & alive
            self.status_codes[candidate & (highest > self.rank)] = (
                STATUS_NON_ELECTED
            )
            self.status_codes[candidate & (highest <= self.rank)] = STATUS_ELECTED
            self.halted |= alive
        return None


def classical_le_diameter2(
    topology: Topology,
    rng: RandomSource,
    adversary=None,
    node_api: str = "scalar",
) -> LeaderElectionResult:
    """Run the classical Õ(n) LE baseline on a diameter-≤2 network.

    ``adversary`` is an optional
    :class:`~repro.adversary.AdversarySpec` applied at the engine level.
    ``node_api`` selects the engine dispatch: ``"scalar"`` steps
    :class:`_CPRNode` instances, ``"batch"`` (or ``"auto"``) runs the
    array-native :class:`_CPRBatch` program — bit-identical by
    construction under the same seeds and adversary specs.
    """
    n = topology.n
    if n < 2:
        raise ValueError(f"need n >= 2 nodes, got {n}")

    metrics = MetricsRecorder()
    armed = (
        adversary.arm(adversary.derive_rng(rng), n)
        if adversary is not None and not adversary.is_null
        else None
    )
    node_rngs = rng.spawn_many(n)
    # One vectorized degree gather through the cached port table instead of
    # n per-node topology queries (the table is reused by the engine).
    degrees = topology.port_table().degrees_of(np.arange(n))
    probability = candidate_probability(n)
    space = rank_space(n)
    if wants_batch_dispatch(node_api):
        program = _CPRBatch(n, node_rngs, degrees)
        candidates = program.start(probability, space)
    else:
        program = [
            _CPRNode(v, int(degrees[v]), node_rngs[v]) for v in range(n)
        ]
        candidates = 0
        for node in program:
            node.start(probability, space)
            candidates += node.is_candidate

    engine = SynchronousEngine(
        topology, program, metrics, label="cpr-le", adversary=armed
    )
    engine.run(max_rounds=4)

    statuses = (
        program.statuses()
        if isinstance(program, BatchProtocol)
        else {v: program[v].status for v in range(n)}
    )
    meta = {"candidates": candidates}
    meta.update(engine.accounting_meta())
    return LeaderElectionResult(
        n=n,
        statuses=statuses,
        metrics=metrics,
        meta=meta,
        crashed=engine.crashed_nodes,
    )
