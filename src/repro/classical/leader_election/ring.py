"""Classic ring leader election — Chang–Roberts (LCR) and Hirschberg–Sinclair.

Not part of the paper's headline results, but the canonical substrate
protocols for oriented rings, used to exercise (and regression-test) the
synchronous engine with genuinely multi-round message-passing behaviour:

* **LCR** — unidirectional, O(n²) worst-case / O(n·log n) expected messages;
* **Hirschberg–Sinclair** — bidirectional doubling probes, O(n·log n)
  worst-case messages.

Identifiers come from private randomness (ranks in {1, …, n⁴}), matching the
library-wide anonymous-network convention.
"""

from __future__ import annotations

import numpy as np

from repro.core.candidates import rank_space
from repro.core.results import LeaderElectionResult
from repro.network.batch import (
    STATUS_ELECTED,
    STATUS_NON_ELECTED,
    BatchProtocol,
    MessageBatch,
    wants_batch_dispatch,
)
from repro.network.engine import SynchronousEngine
from repro.network.graphs import cycle
from repro.network.message import Message
from repro.network.metrics import MetricsRecorder
from repro.network.node import Node, Status
from repro.util.rng import RandomSource

__all__ = ["lcr_ring", "hirschberg_sinclair_ring"]


def _ring_ports(topology, v: int) -> tuple[int, int]:
    """(clockwise_port, counterclockwise_port) of node v on cycle(n).

    The oriented-ring assumption: every node knows which port is clockwise.
    """
    n = topology.n
    cw = topology.port_to(v, (v + 1) % n)
    ccw = topology.port_to(v, (v - 1) % n)
    return cw, ccw


class _LCRNode(Node):
    """Chang–Roberts: forward larger ids clockwise; own id returning wins."""

    def __init__(self, uid, degree, rng, ring_id: int, cw_port: int):
        super().__init__(uid, degree, rng)
        self.ring_id = ring_id
        self.cw_port = cw_port
        self.outbox: list[tuple[int, Message]] = []
        self.started = False

    def step(self, round_index: int, inbox):
        out: list[tuple[int, Message]] = []
        if not self.started:
            self.started = True
            out.append((self.cw_port, Message("probe", payload=self.ring_id)))
        halting = False
        best_probe = None
        for _, message in inbox:
            if message.kind == "probe":
                if message.payload == self.ring_id:
                    self.status = Status.ELECTED
                    out.append((self.cw_port, Message("halt", payload=self.ring_id)))
                elif message.payload > self.ring_id:
                    if best_probe is None or message.payload > best_probe:
                        best_probe = message.payload
                # smaller ids are swallowed
            elif message.kind == "halt":
                if self.status is Status.ELECTED:
                    halting = True  # own halt token came full circle
                else:
                    self.status = Status.NON_ELECTED
                    out.append((self.cw_port, message))
                    halting = True
        if best_probe is not None and self.status is not Status.ELECTED:
            out.append((self.cw_port, Message("probe", payload=best_probe)))
        # CONGEST: collapse to one message per port per round (keep the most
        # important: halt > probe with the largest id).
        per_port: dict[int, Message] = {}
        for port, message in out:
            current = per_port.get(port)
            if current is None:
                per_port[port] = message
            elif message.kind == "halt" or (
                current.kind == "probe"
                and message.kind == "probe"
                and message.payload > current.payload
            ):
                per_port[port] = message
        if halting:
            self.halt()
        return list(per_port.items())


#: LCR wire vocabulary shared by the scalar and array-native implementations.
_LCR_PROBE, _LCR_HALT = 0, 1


class _LCRBatch(BatchProtocol):
    """Array-native Chang–Roberts: the whole ring advances per numpy call.

    State is three columns (``ring_id``, ``cw_port``, inherited
    ``status_codes``/``halted``); each round reduces the inbox's receiver
    groups with ``reduceat`` and emits at most one message per node — the
    same per-port collapse the scalar :class:`_LCRNode` performs, expressed
    once over all nodes.  Trace-identical to the scalar implementation
    (same RNG draws, same canonical send order, same CONGEST collapse
    priorities), which the parity property tests assert bit-for-bit.
    """

    def __init__(self, topology, ring_ids: list[int]):
        n = topology.n
        super().__init__(n)
        self.ring_id = np.asarray(ring_ids, dtype=np.int64)
        self.cw_port = np.asarray(
            [topology.port_to(v, (v + 1) % n) for v in range(n)], dtype=np.int64
        )

    def step_batch(self, round_index, inbox):
        if round_index == 0:
            # Every alive node opens with its own id clockwise ("started").
            senders = np.nonzero(~self.halted)[0]
            return MessageBatch(
                senders=senders,
                ports=self.cw_port[senders],
                kinds=np.full(len(senders), _LCR_PROBE, dtype=np.int64),
                values=self.ring_id[senders],
            )
        if not len(inbox):
            return None
        # Work over the inbox rows, not all n nodes: late rounds carry a
        # handful of messages on an n-ring.
        nodes = inbox.receivers
        values = inbox.values
        probe = inbox.kinds == _LCR_PROBE
        any_halt = inbox.kinds == _LCR_HALT
        own_id = self.ring_id[nodes]
        any_own = probe & (values == own_id)
        best = np.where(probe & (values > own_id), values, -1)
        # The scalar per-port collapse keeps the *last* halt a node
        # appended; track each receiver's last inbound halt position.
        last_halt = np.where(any_halt, np.arange(len(nodes)), -1)
        # Delays and duplicates can stack one node's inbox: reduce each
        # receiver group (the inbox is sorted by receiver).
        starts = np.flatnonzero(np.concatenate(([True], nodes[1:] != nodes[:-1])))
        nodes = nodes[starts]
        any_own = np.logical_or.reduceat(any_own, starts)
        any_halt = np.logical_or.reduceat(any_halt, starts)
        best = np.maximum.reduceat(best, starts)
        last_halt = np.maximum.reduceat(last_halt, starts)
        entering_elected = self.status_codes[nodes] == STATUS_ELECTED
        # Status transitions (ELECTED absorbs within a round, exactly as
        # the scalar message loop behaves for any inbox interleaving).
        self.status_codes[nodes[any_own]] = STATUS_ELECTED
        self.status_codes[nodes[any_halt & ~entering_elected & ~any_own]] = (
            STATUS_NON_ELECTED
        )
        # Outgoing message per node after the CONGEST collapse: a halt
        # with the node's own id when its probe returned, else the last
        # forwarded halt, else the strongest bigger probe — and an
        # already-elected node only ever re-announces its own halt.
        quiet = ~any_own & ~entering_elected
        halt_fwd = quiet & any_halt
        probe_out = quiet & ~any_halt & (best >= 0)
        self.halted[nodes[any_halt]] = True
        emit = any_own | halt_fwd | probe_out
        if not emit.any():
            return None
        senders = nodes[emit]
        return MessageBatch(
            senders=senders,
            ports=self.cw_port[senders],
            kinds=np.where(probe_out[emit], _LCR_PROBE, _LCR_HALT),
            values=np.where(
                any_own[emit],
                self.ring_id[senders],
                np.where(halt_fwd[emit], values[last_halt[emit]], best[emit]),
            ),
        )


def lcr_ring(
    n: int, rng: RandomSource, adversary=None, node_api: str = "scalar"
) -> LeaderElectionResult:
    """Run Chang–Roberts on an oriented ring of n nodes.

    ``adversary`` (an optional :class:`~repro.adversary.AdversarySpec`)
    injects engine-level faults; a dropped winning probe or halt token
    makes the ring run out its round budget undecided — exactly the
    resilience behaviour fault sweeps measure.

    ``node_api`` selects the engine dispatch: ``"scalar"`` steps the
    legacy :class:`_LCRNode` instances one by one, ``"batch"`` (or
    ``"auto"``) runs the array-native :class:`_LCRBatch` program — both
    are bit-identical under the same seeds and adversary specs.
    """
    if n < 3:
        raise ValueError(f"ring needs n >= 3 nodes, got {n}")
    topology = cycle(n)
    metrics = MetricsRecorder()
    armed = (
        adversary.arm(adversary.derive_rng(rng), n)
        if adversary is not None and not adversary.is_null
        else None
    )
    node_rngs = rng.spawn_many(n)
    space = rank_space(n)
    if wants_batch_dispatch(node_api):
        ids = node_rngs.uniform_int(1, space).tolist()
        program = _LCRBatch(topology, ids)
    else:
        ids = [node_rngs[v].uniform_int(1, space) for v in range(n)]
        program = [
            _LCRNode(v, 2, node_rngs[v], ids[v], _ring_ports(topology, v)[0])
            for v in range(n)
        ]
    engine = SynchronousEngine(
        topology, program, metrics, label="lcr", adversary=armed
    )
    engine.run(max_rounds=3 * n + 4)
    statuses = (
        program.statuses()
        if isinstance(program, BatchProtocol)
        else {v: program[v].status for v in range(n)}
    )
    for v in range(n):  # anyone still undecided (duplicate-id pathology)
        if statuses[v] is Status.UNDECIDED:
            statuses[v] = Status.NON_ELECTED
    meta = {"unique_ids": len(set(ids)) == n}
    meta.update(engine.accounting_meta())
    return LeaderElectionResult(
        n=n, statuses=statuses, metrics=metrics, meta=meta,
        crashed=engine.crashed_nodes,
    )


class _HSNode(Node):
    """Hirschberg–Sinclair: doubling bidirectional probes."""

    def __init__(self, uid, degree, rng, ring_id: int, cw_port: int, ccw_port: int):
        super().__init__(uid, degree, rng)
        self.ring_id = ring_id
        self.ports = {"cw": cw_port, "ccw": ccw_port}
        self.opposite = {cw_port: ccw_port, ccw_port: cw_port}
        self.phase = 0
        self.replies = 0
        self.competing = True
        self.started = False

    def _probes(self) -> list[tuple[int, Message]]:
        hops = 1 << self.phase
        return [
            (
                self.ports[direction],
                Message("probe", payload=(self.ring_id, hops)),
            )
            for direction in ("cw", "ccw")
        ]

    def step(self, round_index: int, inbox):
        out: list[tuple[int, Message]] = []
        if not self.started:
            self.started = True
            out.extend(self._probes())
        halting = False
        for port, message in inbox:
            if message.kind == "probe":
                probe_id, hops = message.payload
                if probe_id == self.ring_id:
                    if self.started and self.status is not Status.ELECTED:
                        # Our own probe circled the whole ring: we win.
                        self.status = Status.ELECTED
                        out.append(
                            (self.ports["cw"], Message("halt", payload=self.ring_id))
                        )
                elif probe_id > self.ring_id:
                    self.competing = False
                    if hops > 1:
                        out.append(
                            (
                                self.opposite[port],
                                Message("probe", payload=(probe_id, hops - 1)),
                            )
                        )
                    else:
                        out.append((port, Message("reply", payload=probe_id)))
                # probes with smaller ids are swallowed
            elif message.kind == "reply":
                if message.payload == self.ring_id:
                    self.replies += 1
                    if self.replies == 2:
                        self.replies = 0
                        self.phase += 1
                        out.extend(self._probes())
                else:
                    out.append((self.opposite[port], message))
            elif message.kind == "halt":
                if self.status is Status.ELECTED:
                    halting = True
                else:
                    self.status = Status.NON_ELECTED
                    out.append((self.ports["cw"], message))
                    halting = True
        # CONGEST: at most one message per port per round; prioritize halt,
        # then replies, then the strongest probe.
        rank = {"halt": 3, "reply": 2, "probe": 1}
        per_port: dict[int, Message] = {}
        for port, message in out:
            current = per_port.get(port)
            if current is None or rank[message.kind] > rank[current.kind] or (
                message.kind == "probe"
                and current.kind == "probe"
                and message.payload[0] > current.payload[0]
            ):
                per_port[port] = message
        if halting:
            self.halt()
        return list(per_port.items())


#: HS wire vocabulary shared by the scalar and array-native implementations.
#: Probes carry (id, hops-remaining) — id in ``values``, hops in the typed
#: ``extras["hops"]`` column; replies/halts carry an id and hops = 0.
_HS_PROBE, _HS_REPLY, _HS_HALT = 0, 1, 2


class _HSBatch(BatchProtocol):
    """Array-native Hirschberg–Sinclair: doubling probes, whole ring per call.

    The scalar :class:`_HSNode` processes its inbox *sequentially* — a
    reply may bump the phase whose new probes then outrank earlier
    emissions in the per-port CONGEST collapse.  The batch form replays
    that exactly: inbox rows are processed in per-receiver passes (pass k
    handles every node's k-th message, so state updates from pass k are
    visible in pass k+1), and emissions land in per-(node, direction)
    outbox *slots* carrying the scalar collapse priorities (halt 3 >
    reply 2 > probe 1, probes tie-break on larger id, first write wins
    otherwise).  Slot fill sequence numbers reproduce the scalar dict's
    insertion order, giving the identical canonical send order.
    """

    def __init__(self, topology, ring_ids: list[int]):
        n = topology.n
        super().__init__(n)
        self.ring_id = np.asarray(ring_ids, dtype=np.int64)
        self.cw_port = np.asarray(
            [topology.port_to(v, (v + 1) % n) for v in range(n)], dtype=np.int64
        )
        self.ccw_port = np.asarray(
            [topology.port_to(v, (v - 1) % n) for v in range(n)], dtype=np.int64
        )
        self.phase = np.zeros(n, dtype=np.int64)
        self.replies = np.zeros(n, dtype=np.int64)
        # Per-(node, direction) outbox slots: slot 2v is v's clockwise
        # message this round, slot 2v+1 its counterclockwise one.
        self.slot_rank = np.zeros(2 * n, dtype=np.int64)
        self.slot_kind = np.zeros(2 * n, dtype=np.int64)
        self.slot_value = np.zeros(2 * n, dtype=np.int64)
        self.slot_hops = np.zeros(2 * n, dtype=np.int64)
        self.slot_seq = np.zeros(2 * n, dtype=np.int64)
        self._touched: list[np.ndarray] = []
        self._seq = 0

    # -- outbox slot machinery ---------------------------------------------

    def _emit(self, nodes, dirs, kind, values, hops, rank) -> None:
        """Offer one message per node to its (node, dir) slot.

        Mirrors the scalar per-port collapse: higher rank replaces, equal
        probe ranks tie-break on larger id, everything else keeps the
        incumbent.  ``dirs``/``hops`` may be scalars or arrays.
        """
        seq = self._seq
        self._seq += 1
        if not len(nodes):
            return
        slots = 2 * nodes + dirs
        cur = self.slot_rank[slots]
        if rank == 1:
            replace = (cur == 0) | (
                (cur == 1) & (values > self.slot_value[slots])
            )
        else:
            replace = cur < rank
        if not replace.any():
            return
        s = slots[replace]
        self.slot_kind[s] = kind
        self.slot_value[s] = values[replace]
        self.slot_hops[s] = hops[replace] if isinstance(hops, np.ndarray) else hops
        # First fill records the insertion position (scalar dict order);
        # replacements keep it, exactly like overwriting a dict key.
        self.slot_seq[s[cur[replace] == 0]] = seq
        self.slot_rank[s] = rank
        self._touched.append(s)

    def _flush(self):
        if not self._touched:
            return None
        slots = np.unique(np.concatenate(self._touched))
        senders = slots >> 1
        dirs = slots & 1
        order = np.lexsort((dirs, self.slot_seq[slots], senders))
        slots = slots[order]
        senders = senders[order]
        dirs = dirs[order]
        batch = MessageBatch(
            senders=senders,
            ports=np.where(
                dirs == 0, self.cw_port[senders], self.ccw_port[senders]
            ),
            kinds=self.slot_kind[slots].copy(),
            values=self.slot_value[slots].copy(),
            extras={"hops": self.slot_hops[slots].copy()},
        )
        self.slot_rank[slots] = 0
        self._touched = []
        return batch

    # -- per-pass protocol logic -------------------------------------------

    def _pass(self, v, port, kind, val, hop) -> None:
        """Process each selected node's next inbox message (≤ 1 per node)."""
        arrive_dir = np.where(port == self.cw_port[v], 0, 1)
        probe = kind == _HS_PROBE
        reply = kind == _HS_REPLY
        halt = kind == _HS_HALT
        my_id = self.ring_id[v]

        # Own probe circled the whole ring: we win (idempotent per round).
        own = probe & (val == my_id) & (self.status_codes[v] != STATUS_ELECTED)
        if own.any():
            w = v[own]
            self.status_codes[w] = STATUS_ELECTED
            self._emit(w, 0, _HS_HALT, self.ring_id[w], 0, 3)

        bigger = probe & (val > my_id)
        fwd = bigger & (hop > 1)
        if fwd.any():
            self._emit(
                v[fwd], 1 - arrive_dir[fwd], _HS_PROBE, val[fwd], hop[fwd] - 1, 1
            )
        turn = bigger & (hop == 1)
        if turn.any():
            self._emit(v[turn], arrive_dir[turn], _HS_REPLY, val[turn], 0, 2)

        mine = reply & (val == my_id)
        if mine.any():
            w = v[mine]
            self.replies[w] += 1
            up = w[self.replies[w] == 2]
            if len(up):
                self.replies[up] = 0
                self.phase[up] += 1
                new_hops = np.int64(1) << self.phase[up]
                self._emit(up, 0, _HS_PROBE, self.ring_id[up], new_hops, 1)
                self._emit(up, 1, _HS_PROBE, self.ring_id[up], new_hops, 1)
        fwd_reply = reply & (val != my_id)
        if fwd_reply.any():
            self._emit(
                v[fwd_reply],
                1 - arrive_dir[fwd_reply],
                _HS_REPLY,
                val[fwd_reply],
                0,
                2,
            )

        if halt.any():
            elected = self.status_codes[v] == STATUS_ELECTED
            # A halting node still processes its remaining inbox (and its
            # same-round sends go out), matching scalar halt semantics.
            self.halted[v[halt & elected]] = True
            lose = halt & ~elected
            if lose.any():
                w = v[lose]
                self.status_codes[w] = STATUS_NON_ELECTED
                self._emit(w, 0, _HS_HALT, val[lose], 0, 3)
                self.halted[w] = True

    def step_batch(self, round_index, inbox):
        self._seq = 0
        if round_index == 0:
            alive = np.nonzero(~self.halted)[0]
            ones = np.ones(len(alive), dtype=np.int64)  # hops = 1 << phase 0
            self._emit(alive, 0, _HS_PROBE, self.ring_id[alive], ones, 1)
            self._emit(alive, 1, _HS_PROBE, self.ring_id[alive], ones, 1)
            return self._flush()
        if not len(inbox):
            return None
        rec = inbox.receivers
        hops = inbox.extras["hops"]
        # Pass k processes every node's k-th inbox row, so sequential
        # per-node state updates land before the node's next message.
        first = np.ones(len(rec), dtype=bool)
        first[1:] = rec[1:] != rec[:-1]
        starts = np.nonzero(first)[0]
        sizes = np.diff(np.append(starts, len(rec)))
        k_rank = np.arange(len(rec)) - np.repeat(starts, sizes)
        for k in range(int(sizes.max())):
            sel = np.nonzero(k_rank == k)[0]
            self._pass(
                rec[sel],
                inbox.ports[sel],
                inbox.kinds[sel],
                inbox.values[sel],
                hops[sel],
            )
        return self._flush()


def hirschberg_sinclair_ring(
    n: int, rng: RandomSource, adversary=None, node_api: str = "scalar"
) -> LeaderElectionResult:
    """Run Hirschberg–Sinclair on an oriented ring of n nodes.

    ``adversary`` injects engine-level faults, as in :func:`lcr_ring`.

    ``node_api`` selects the engine dispatch: ``"scalar"`` steps
    :class:`_HSNode` instances one by one, ``"batch"`` (or ``"auto"``)
    runs the array-native :class:`_HSBatch` program — bit-identical
    under the same seeds and adversary specs.
    """
    if n < 3:
        raise ValueError(f"ring needs n >= 3 nodes, got {n}")
    topology = cycle(n)
    metrics = MetricsRecorder()
    armed = (
        adversary.arm(adversary.derive_rng(rng), n)
        if adversary is not None and not adversary.is_null
        else None
    )
    node_rngs = rng.spawn_many(n)
    space = rank_space(n)
    if wants_batch_dispatch(node_api):
        ids = node_rngs.uniform_int(1, space).tolist()
        program = _HSBatch(topology, ids)
    else:
        ids = [node_rngs[v].uniform_int(1, space) for v in range(n)]
        program = []
        for v in range(n):
            cw, ccw = _ring_ports(topology, v)
            program.append(_HSNode(v, 2, node_rngs[v], ids[v], cw, ccw))
    engine = SynchronousEngine(
        topology, program, metrics, label="hs", adversary=armed
    )
    engine.run(max_rounds=12 * n + 16)
    statuses = (
        program.statuses()
        if isinstance(program, BatchProtocol)
        else {v: program[v].status for v in range(n)}
    )
    for v in range(n):
        if statuses[v] is Status.UNDECIDED:
            statuses[v] = Status.NON_ELECTED
    meta = {"unique_ids": len(set(ids)) == n}
    meta.update(engine.accounting_meta())
    return LeaderElectionResult(
        n=n, statuses=statuses, metrics=metrics, meta=meta,
        crashed=engine.crashed_nodes,
    )
