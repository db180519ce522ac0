"""Synchronous round-by-round execution engine (classical CONGEST).

This engine is a *faithful* simulator: it delivers messages port-to-port,
enforces the CONGEST constraint of one message per directed edge per round,
and charges every delivered message to the metrics recorder.  It is used by
the classical baselines whose round counts are small enough to simulate
directly (ring LE, KPP complete-graph LE, CPR diameter-2 LE, ...).

Two run loops implement :meth:`SynchronousEngine.run`, one production loop
and one oracle:

* the **batch** loop (``backend="fast"``, the default) makes one
  ``step_batch`` call per round over array inboxes/outboxes
  (:class:`~repro.network.batch.MessageBatch`) and resolves every
  receiver and arrival port with numpy gathers through the topology's
  precomputed :class:`~repro.network.porttable.PortTable` — O(1) routing
  per message and vectorized CONGEST-violation detection.  A
  :class:`~repro.network.batch.BatchProtocol` runs on it directly; a
  scalar list of :class:`~repro.network.node.Node` instances runs on it
  through :class:`~repro.network.batch.ScalarAdapter`;
* the **reference** loop (``backend="reference"``) delivers one message at
  a time in pure Python and is kept as the differential-testing oracle for
  ``Node`` lists.  A native ``BatchProtocol`` has no per-node form, so
  selecting ``"reference"`` for one warns and runs the batch loop (its
  oracle is the protocol's *scalar* implementation).

Both loops are trace-equivalent by construction — same delivery order,
same metrics charges, same RNG consumption — which the test suite asserts
across every topology family.  The default backend can be overridden
per-engine (``backend=``) or process-wide via the ``REPRO_ENGINE``
environment variable (which worker processes inherit).

Fault injection: the engine optionally takes an armed adversary
(:meth:`repro.adversary.AdversarySpec.arm`) that may drop, delay, or
duplicate messages in transit and crash-stop nodes on a schedule.  Both
loops consume the adversary identically — each round's sends are
flattened in canonical order (sender ascending, outbox position) before
fault masks are drawn — so trial results stay bit-identical across
backends under the same adversary seed.  The batch loop applies the
masks directly on its outbox arrays; the reference loop is the
differential oracle for faulty runs too.  Undelivered-message accounting
distinguishes adversary losses from protocol slack
(:meth:`SynchronousEngine.undelivered_detail`).

Adaptive adversaries (``ArmedAdversary.observes``) additionally receive a
per-round traffic observation callback: both loops call
``observe_round(round_index, senders, ports, receivers)`` at the same
canonical point — after routing resolves, before fault masks are drawn,
once per round with at least one message — so traffic-conditioned fault
decisions (and their RNG draws) are bit-identical across them.
``run()`` also validates the armed crash schedule against the round
budget, warning about crash rounds that can never fire.

Note on buffer reuse: inbox lists are recycled across rounds, so a node
that wants to retain its inbox beyond the current ``step`` call must copy
it (all in-repo protocols already do).
"""

from __future__ import annotations

import gc
import os
import warnings
from time import perf_counter

import numpy as np

from repro.network.batch import BatchProtocol, MessageBatch, ScalarAdapter
from repro.network.kernels import get_kernels
from repro.network.message import (
    Message,
    congest_capacity_bits,
    message_units_array,
)
from repro.network.metrics import MetricsRecorder
from repro.network.node import Node
from repro.network.topology import Topology
from repro.telemetry import current_profiler, current_tracer, metrics_registry

__all__ = [
    "BACKENDS",
    "CongestViolation",
    "SynchronousEngine",
    "default_backend",
]

#: Engine backends selectable via ``SynchronousEngine(backend=...)``:
#: the production batch loop and the reference oracle loop.
BACKENDS = ("fast", "reference")


def default_backend() -> str:
    """The process-wide default backend (``REPRO_ENGINE`` env, or "fast")."""
    backend = os.environ.get("REPRO_ENGINE", "fast")
    if backend not in BACKENDS:
        raise ValueError(
            f"REPRO_ENGINE must be one of {BACKENDS}, got {backend!r}"
        )
    return backend


class CongestViolation(RuntimeError):
    """Raised when a node sends more than one message per port per round."""


class SynchronousEngine:
    """Runs a node program — scalar ``Node`` list or ``BatchProtocol`` —
    in lockstep rounds.

    ``program`` is either a list of :class:`~repro.network.node.Node`
    instances or one :class:`~repro.network.batch.BatchProtocol`.  Both
    run on the batch loop under the default ``fast`` backend (a node list
    through :class:`~repro.network.batch.ScalarAdapter`); ``reference``
    selects the oracle loop for a node list.  Prefer building runs through
    the protocol registry (:mod:`repro.runtime`), which owns the node-API
    selection (``--node-api``).
    """

    def __init__(
        self,
        topology: Topology,
        program: list[Node] | BatchProtocol | None = None,
        metrics: MetricsRecorder = None,
        label: str = "engine",
        backend: str | None = None,
        adversary=None,
        kernel: str | None = None,
        *,
        tracer=None,
        profiler=None,
    ):
        if program is None:
            raise TypeError("SynchronousEngine needs a node program")
        if metrics is None:
            raise TypeError("SynchronousEngine needs a MetricsRecorder")
        if isinstance(program, BatchProtocol):
            if program.n != topology.n:
                raise ValueError(
                    f"topology has {topology.n} nodes but the batch program "
                    f"has {program.n}"
                )
            self.program: BatchProtocol | None = program
            self.nodes = []
        else:
            if len(program) != topology.n:
                raise ValueError(
                    f"topology has {topology.n} nodes but {len(program)} "
                    f"were provided"
                )
            self.program = None
            self.nodes = program
        backend = backend if backend is not None else default_backend()
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        self.topology = topology
        self.metrics = metrics
        self.label = label
        self.backend = backend
        #: Kernel tier for the per-round array primitives (routing gather,
        #: stable receiver sort).  ``None`` resolves the process default
        #: (``REPRO_KERNEL``); both tiers are bit-identical, so the choice
        #: affects wall-clock only.
        self.kernels = get_kernels(kernel)
        #: An :class:`~repro.adversary.ArmedAdversary` (or None).  Armed
        #: state is single-use: one adversary per engine per protocol run.
        self.adversary = adversary
        #: Telemetry hooks resolve from the process context (``REPRO_TRACE``
        #: / ``REPRO_PROFILE`` env) unless passed explicitly.  Neither ever
        #: draws from a run RNG stream or alters delivery, so traced and
        #: profiled runs stay bit-identical to bare ones.
        self.tracer = tracer if tracer is not None else current_tracer()
        self.profiler = profiler if profiler is not None else current_profiler()
        self.rounds_executed = 0
        self._in_flight = 0
        self._dropped_protocol = 0
        self._dropped_adversary = 0
        self._crashed: set[int] = set()
        #: Always-on reconciliation counters, accumulated independently of
        #: the adversary's own ledger so :meth:`reconcile_accounting` can
        #: cross-check the two sources (plus ``undelivered_detail``) after
        #: every faulty run.
        self._units_total = 0
        self._adv_dropped = 0
        self._adv_delayed = 0
        self._adv_duplicated = 0
        self._dropped_to_crashed = 0

    def run(self, max_rounds: int) -> int:
        """Run until all nodes halt or ``max_rounds`` elapse; returns rounds used."""
        if self.adversary is not None:
            # Fail loudly (once) on crash schedules the budget can never
            # reach — a silent no-op fault plan is a misconfigured scenario.
            self.adversary.check_crash_horizon(max_rounds)
        tracer = self.tracer
        program = self.program
        path = "batch"
        if self.backend == "reference" and program is None:
            path = "reference"
        elif self.backend == "reference":
            warnings.warn(
                "backend='reference' has no effect on a BatchProtocol "
                "program: the batch dispatch path will run.  The "
                "differential oracle for a batch protocol is its scalar "
                "implementation — select it with node_api='scalar' "
                "(CLI: --node-api scalar)",
                RuntimeWarning,
                stacklevel=2,
            )
        if tracer.enabled:
            tracer.emit(
                "engine_start",
                label=self.label,
                n=self.topology.n,
                path=path,
                max_rounds=max_rounds,
                adversary=self.adversary is not None,
            )
        if path == "reference":
            rounds = self._run_reference(max_rounds)
        else:
            if program is None:
                program = ScalarAdapter(self.nodes)
            rounds = self._run_batch(program, max_rounds)
        if tracer.enabled:
            tracer.emit(
                "engine_end",
                label=self.label,
                rounds=rounds,
                units=self._units_total,
                **self.undelivered_detail(),
            )
        if self.adversary is not None:
            self.reconcile_accounting()
        self._charge_registry(rounds)
        return rounds

    def _charge_registry(self, rounds: int) -> None:
        """Fold this run's totals into the process metrics registry.

        Charged once per run (not per round) so the always-on cost stays
        out of the hot loops.
        """
        registry = metrics_registry()
        registry.counter("repro_engine_runs_total").inc()
        registry.counter("repro_engine_rounds_total").inc(rounds)
        registry.counter("repro_engine_message_units_total").inc(self._units_total)
        if self.adversary is not None:
            registry.counter("repro_engine_messages_dropped_total").inc(
                self._adv_dropped
            )
            registry.counter("repro_engine_messages_delayed_total").inc(
                self._adv_delayed
            )
            registry.counter("repro_engine_messages_duplicated_total").inc(
                self._adv_duplicated
            )
            registry.counter("repro_engine_nodes_crashed_total").inc(
                len(self._crashed)
            )

    def reconcile_accounting(self) -> dict:
        """Cross-check the engine's fault counters against the adversary.

        Three accounting sources describe a faulty run: the engine's own
        per-round telemetry counters, the armed adversary's ledger
        (``fault_stats``), and the undelivered-message classification
        (``undelivered_detail``).  They are derived independently, so any
        drift between them is a bug in exactly one of the three — this
        raises ``RuntimeError`` naming the divergent quantity instead of
        letting it leak into published aggregates.  Runs automatically at
        the end of every adversarial :meth:`run`; returns the agreed
        values.
        """
        adv = self.adversary
        if adv is None:
            return {}
        checks = {
            "messages_dropped": (self._adv_dropped, adv.messages_dropped),
            "messages_delayed": (self._adv_delayed, adv.messages_delayed),
            "messages_duplicated": (self._adv_duplicated, adv.messages_duplicated),
            "nodes_crashed": (len(self._crashed), adv.nodes_crashed),
            "dropped_adversary": (
                self._dropped_adversary,
                self._adv_dropped + self._dropped_to_crashed,
            ),
        }
        drift = {key: pair for key, pair in checks.items() if pair[0] != pair[1]}
        if drift:
            detail = ", ".join(
                f"{key}: engine={a} ledger={b}"
                for key, (a, b) in sorted(drift.items())
            )
            raise RuntimeError(
                f"fault accounting drift on engine {self.label!r}: {detail}"
            )
        return {key: pair[0] for key, pair in checks.items()}

    def _apply_crashes(self, round_index: int, alive: int) -> int:
        """Crash-stop scheduled victims before they execute ``round_index``."""
        tracer = self.tracer
        for v in self.adversary.crashes_at(round_index):
            node = self.nodes[v]
            if not node.halted:
                node.halted = True
                self._crashed.add(v)
                self.adversary.note_crash(round_index)
                if tracer.enabled:
                    tracer.emit(
                        "crash", label=self.label, round=round_index, node=v
                    )
                alive -= 1
        return alive

    # -- reference loop (the differential oracle) ------------------------------

    def _run_reference(self, max_rounds: int) -> int:
        """One message at a time in pure Python: collect, fault, deliver.

        The two-pass shape keeps the round's sends in the same canonical
        order (sender ascending, outbox position) the batch loop flattens
        them into, so both loops hand :meth:`ArmedAdversary.message_masks`
        identical arrays and consume the adversary stream identically.
        """
        n = self.topology.n
        adv = self.adversary
        self._in_flight = 0
        dropped_protocol = 0
        dropped_adversary = 0
        inboxes: list[list[tuple[int, Message]]] = [[] for _ in range(n)]
        spare: list[list[tuple[int, Message]]] = [[] for _ in range(n)]
        alive = sum(not node.halted for node in self.nodes)
        tracer = self.tracer
        trace_rounds = tracer.enabled
        for _ in range(max_rounds):
            round_index = self.rounds_executed
            if adv is not None:
                alive = self._apply_crashes(round_index, alive)
            if alive == 0:
                break
            sends: list[tuple[int, int, Message]] = []
            messages_this_round = 0
            round_dropped = round_delayed = round_duplicated = 0
            for v, node in enumerate(self.nodes):
                if node.halted:
                    if v in self._crashed:
                        dropped_adversary += len(inboxes[v])
                        self._dropped_to_crashed += len(inboxes[v])
                    else:
                        dropped_protocol += len(inboxes[v])
                    continue
                outbox = node.step(round_index, inboxes[v])
                if node.halted:
                    alive -= 1
                used_ports: set[int] = set()
                for port, message in outbox:
                    if port in used_ports:
                        raise CongestViolation(
                            f"node {v} sent two messages on port {port} in "
                            f"round {round_index}"
                        )
                    used_ports.add(port)
                    message.sender = v
                    message.sender_port = port
                    sends.append((v, port, message))
                    messages_this_round += message.message_units(n)
            self.metrics.charge(self.label, messages=messages_this_round, rounds=1)
            self._units_total += messages_this_round
            next_inboxes = spare
            masks = None
            if adv is not None:
                for receiver, port, message in adv.pop_delayed(round_index + 1):
                    next_inboxes[receiver].append((port, message))
                if sends and (adv.has_message_faults or adv.observes):
                    count = len(sends)
                    senders_arr = np.fromiter(
                        (s for s, _, _ in sends), dtype=np.int64, count=count
                    )
                    ports_arr = np.fromiter(
                        (p for _, p, _ in sends), dtype=np.int64, count=count
                    )
                    if adv.observes:
                        # Canonical observation point: after routing
                        # resolves, before fault masks are drawn — identical
                        # to the batch loop, so adaptive decisions (and
                        # their RNG draws) match bit for bit.
                        receivers_arr = np.fromiter(
                            (
                                self.topology.neighbor_at_port(v, p)
                                for v, p, _ in sends
                            ),
                            dtype=np.int64,
                            count=count,
                        )
                        adv.observe_round(
                            round_index, senders_arr, ports_arr, receivers_arr
                        )
                    if adv.has_message_faults:
                        masks = adv.message_masks(
                            round_index, senders_arr, ports_arr
                        )
                        round_dropped = int(masks[0].sum())
                        round_delayed = int(masks[1].sum())
                        round_duplicated = int(masks[2].sum())
                        self._adv_dropped += round_dropped
                        self._adv_delayed += round_delayed
                        self._adv_duplicated += round_duplicated
            for i, (v, port, message) in enumerate(sends):
                receiver = self.topology.neighbor_at_port(v, port)
                receiver_port = self.topology.port_to(receiver, v)
                if masks is not None:
                    drop, delay, duplicate = masks
                    if drop[i]:
                        dropped_adversary += 1
                        continue
                    if delay[i]:
                        adv.push_delayed(
                            round_index + 1 + adv.spec.delay_rounds,
                            receiver,
                            receiver_port,
                            message,
                        )
                        continue
                    if duplicate[i]:
                        next_inboxes[receiver].append((receiver_port, message))
                next_inboxes[receiver].append((receiver_port, message))
            if trace_rounds:
                tracer.emit(
                    "round",
                    label=self.label,
                    round=round_index,
                    sent=len(sends),
                    units=messages_this_round,
                    dropped=round_dropped,
                    delayed=round_delayed,
                    duplicated=round_duplicated,
                )
            spare = inboxes
            inboxes = next_inboxes
            for box in spare:
                box.clear()
            self.rounds_executed += 1
        self._dropped_protocol = dropped_protocol
        self._dropped_adversary = dropped_adversary
        self._in_flight = sum(len(inbox) for inbox in inboxes)
        if adv is not None:
            self._in_flight += adv.pending_delayed
        return self.rounds_executed

    # -- batch loop (the production path) --------------------------------------

    def _apply_crashes_batch(
        self, program: BatchProtocol, round_index: int, alive: int
    ) -> int:
        """Crash-stop scheduled victims of a :class:`BatchProtocol` program."""
        halted = program.halted_mask()
        tracer = self.tracer
        for v in self.adversary.crashes_at(round_index):
            if not halted[v]:
                program.force_halt(v)
                self._crashed.add(v)
                self.adversary.note_crash(round_index)
                if tracer.enabled:
                    tracer.emit(
                        "crash", label=self.label, round=round_index, node=v
                    )
                alive -= 1
        return alive

    def _run_batch(self, program: BatchProtocol, max_rounds: int) -> int:
        # A ScalarAdapter round allocates thousands of acyclic containers
        # (inbox tuples, outbox lists); CPython's generation-0 collector
        # re-scans them constantly for cycles that cannot exist.  Pausing
        # collection for the run is worth ~1.5x on dense rounds;
        # array-native programs allocate almost nothing per round, and
        # protocols that allocate cyclic garbage inside ``step`` just
        # defer its collection until the run returns.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run_batch_inner(program, max_rounds)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run_batch_inner(self, program: BatchProtocol, max_rounds: int) -> int:
        """One ``step_batch`` call per round over the whole alive network.

        Trace-equivalent to the reference loop by construction: inbound
        rows to halted nodes are dropped with the same accounting, fault
        masks are drawn over the same canonically-ordered ``(senders,
        ports)`` arrays, delayed arrivals precede the round's direct
        sends, and the stable receiver sort reproduces the reference
        loop's per-inbox append order.
        """
        n = self.topology.n
        table = self.topology.port_table()
        max_ports = max(1, table.max_ports)
        capacity = congest_capacity_bits(n) if n >= 2 else 1
        adv = self.adversary
        object_mode = program.uses_messages
        self._in_flight = 0
        dropped_protocol = 0
        dropped_adversary = 0
        empty = MessageBatch.empty(object_mode)
        inbox = empty
        #: Extras column layout ((name, dtype), ...) captured from the
        #: first outbox that carries typed extra payload columns; the
        #: delay queue and inbox assembly preserve it for the whole run.
        extra_schema: tuple | None = None
        alive = program.alive_count()
        # Telemetry hooks, hoisted so the disabled cost per round is a
        # handful of local-bool branches (the ≤1% overhead gate in
        # benchmarks/bench_engine.py holds the loop to that).
        tracer = self.tracer
        trace_rounds = tracer.enabled
        prof = self.profiler
        for _ in range(max_rounds):
            round_index = self.rounds_executed
            if adv is not None:
                alive = self._apply_crashes_batch(program, round_index, alive)
            if alive == 0:
                break
            round_dropped = round_delayed = round_duplicated = 0
            if prof is not None:
                t_phase = perf_counter()
            if len(inbox):
                # Halted receivers drop their pending inbox rows — same
                # classification as the reference loop (crash-stopped nodes
                # charge the adversary, self-halted ones the protocol).
                to_halted = program.halted_mask()[inbox.receivers]
                if to_halted.any():
                    if self._crashed:
                        crashed = np.fromiter(
                            self._crashed, dtype=np.int64, count=len(self._crashed)
                        )
                        to_crashed = to_halted & np.isin(inbox.receivers, crashed)
                        crashed_count = int(np.count_nonzero(to_crashed))
                        dropped_adversary += crashed_count
                        self._dropped_to_crashed += crashed_count
                        dropped_protocol += int(
                            np.count_nonzero(to_halted & ~to_crashed)
                        )
                    else:
                        dropped_protocol += int(np.count_nonzero(to_halted))
                    inbox = inbox.take(np.nonzero(~to_halted)[0])
            outbox = program.step_batch(round_index, inbox)
            alive = program.alive_count()
            if prof is not None:
                t_now = perf_counter()
                prof.add("engine.step", t_now - t_phase)
                t_phase = t_now
            count = 0 if outbox is None else len(outbox)
            round_sent = count
            messages_this_round = 0
            delayed = adv.pop_delayed(round_index + 1) if adv is not None else []
            receiver_arr = arrival_arr = None
            if count:
                senders = outbox.senders
                ports = outbox.ports
                if count > 1 and np.any(np.diff(senders) < 0):
                    raise ValueError(
                        f"step_batch outbox violates canonical sender order "
                        f"in round {round_index} (senders must be ascending)"
                    )
                bad_index = table.find_bad_port(senders, ports)
                if bad_index is not None:
                    raise ValueError(
                        f"node {int(senders[bad_index])} sent on invalid "
                        f"port {int(ports[bad_index])} in round {round_index}"
                    )
                self._check_congest(senders, ports, max_ports, round_index)
                receiver_arr, arrival_arr = table.route(
                    senders, ports, self.kernels
                )
                if not object_mode and outbox.extras is not None:
                    if extra_schema is None:
                        extra_schema = tuple(
                            (name, column.dtype)
                            for name, column in outbox.extras.items()
                        )
                    elif [name for name, _ in extra_schema] != list(
                        outbox.extras
                    ):
                        raise ValueError(
                            f"step_batch outbox changed its extras schema in "
                            f"round {round_index}: expected columns "
                            f"{[name for name, _ in extra_schema]}, got "
                            f"{list(outbox.extras)}"
                        )
                if object_mode:
                    payloads = outbox.payloads
                    for message, sender, port in zip(
                        payloads, senders.tolist(), ports.tolist()
                    ):
                        message.sender = sender
                        message.sender_port = port
                    if any(message.bits for message in payloads):
                        bits = np.fromiter(
                            (m.bits for m in payloads), dtype=np.int64, count=count
                        )
                        units = message_units_array(bits, capacity)
                        messages_this_round = int(units.sum())
                    else:
                        messages_this_round = count
                elif outbox.bits is not None and np.any(outbox.bits):
                    units = message_units_array(outbox.bits, capacity)
                    messages_this_round = int(units.sum())
                else:
                    messages_this_round = count
                if adv is not None and adv.observes:
                    # Canonical observation point (same as the reference
                    # loop): routed arrays in canonical send order, before
                    # any fault mask is drawn.
                    adv.observe_round(round_index, senders, ports, receiver_arr)
                if adv is not None and adv.has_message_faults:
                    # Same single message_masks call per round, over the
                    # same canonical arrays, as the reference loop.
                    drop, delay, duplicate = adv.message_masks(
                        round_index, senders, ports
                    )
                    # Disjoint-mask sums: the same values the adversary's
                    # ledger just accrued, kept for reconciliation.
                    round_dropped = int(drop.sum())
                    round_delayed = int(delay.sum())
                    round_duplicated = int(duplicate.sum())
                    self._adv_dropped += round_dropped
                    self._adv_delayed += round_delayed
                    self._adv_duplicated += round_duplicated
                    if round_dropped or round_delayed or round_duplicated:
                        dropped_adversary += round_dropped
                        if round_delayed:
                            arrival_round = round_index + 1 + adv.spec.delay_rounds
                            held = np.nonzero(delay)[0].tolist()
                            if object_mode:
                                held_payloads = [payloads[i] for i in held]
                            else:
                                extra_held = (
                                    ()
                                    if outbox.extras is None
                                    else tuple(
                                        outbox.extras[name][held].tolist()
                                        for name, _ in extra_schema
                                    )
                                )
                                held_payloads = list(
                                    zip(
                                        senders[held].tolist(),
                                        outbox.kinds[held].tolist(),
                                        outbox.values[held].tolist(),
                                        (
                                            [0] * len(held)
                                            if outbox.bits is None
                                            else outbox.bits[held].tolist()
                                        ),
                                        *extra_held,
                                    )
                                )
                            adv.push_delayed_many(
                                arrival_round,
                                list(
                                    zip(
                                        receiver_arr[held].tolist(),
                                        arrival_arr[held].tolist(),
                                        held_payloads,
                                    )
                                ),
                            )
                        keep = np.nonzero(~(drop | delay))[0]
                        if round_duplicated:
                            keep = np.repeat(keep, np.where(duplicate[keep], 2, 1))
                        receiver_arr = receiver_arr[keep]
                        arrival_arr = arrival_arr[keep]
                        outbox = outbox.take(keep)
                        count = len(outbox)
            if prof is not None:
                t_now = perf_counter()
                prof.add("engine.gather", t_now - t_phase)
                t_phase = t_now
            # Assemble next round's inbox: delayed arrivals precede the
            # round's direct sends (the reference loop's append order);
            # one stable sort groups rows by receiver while preserving it.
            total = len(delayed) + count
            if total:
                d = len(delayed)
                recv = np.empty(total, dtype=np.int64)
                arrp = np.empty(total, dtype=np.int64)
                orig = np.empty(total, dtype=np.int64)
                if object_mode:
                    pay: list = [None] * total
                else:
                    kinds = np.empty(total, dtype=np.int64)
                    values = np.empty(total, dtype=np.int64)
                    bits_col = np.zeros(total, dtype=np.int64)
                    extra_cols = (
                        []
                        if extra_schema is None
                        else [
                            np.zeros(total, dtype=dtype)
                            for _, dtype in extra_schema
                        ]
                    )
                for i, (receiver, port, payload) in enumerate(delayed):
                    recv[i] = receiver
                    arrp[i] = port
                    if object_mode:
                        orig[i] = payload.sender
                        pay[i] = payload
                    else:
                        orig[i], kinds[i], values[i], bits_col[i] = payload[:4]
                        # Rows delayed before the schema appeared carry no
                        # extras tail; their columns stay zero-filled.
                        for j, value in enumerate(payload[4:]):
                            extra_cols[j][i] = value
                if count:
                    recv[d:] = receiver_arr
                    arrp[d:] = arrival_arr
                    orig[d:] = outbox.senders
                    if object_mode:
                        pay[d:] = outbox.payloads
                    else:
                        kinds[d:] = outbox.kinds
                        values[d:] = outbox.values
                        if outbox.bits is not None:
                            bits_col[d:] = outbox.bits
                        if outbox.extras is not None:
                            for j, (name, _) in enumerate(extra_schema):
                                extra_cols[j][d:] = outbox.extras[name]
                order = self.kernels.stable_receiver_order(recv, n)
                inbox = MessageBatch(
                    senders=orig[order],
                    ports=arrp[order],
                    kinds=None if object_mode else kinds[order],
                    values=None if object_mode else values[order],
                    bits=None if object_mode else bits_col[order],
                    payloads=(
                        [pay[i] for i in order.tolist()] if object_mode else None
                    ),
                    extras=(
                        None
                        if object_mode or extra_schema is None
                        else {
                            name: column[order]
                            for (name, _), column in zip(
                                extra_schema, extra_cols
                            )
                        }
                    ),
                    receivers=recv[order],
                )
            else:
                inbox = empty
            if prof is not None:
                prof.add("engine.deliver", perf_counter() - t_phase)
            self.metrics.charge(self.label, messages=messages_this_round, rounds=1)
            self._units_total += messages_this_round
            if trace_rounds:
                tracer.emit(
                    "round",
                    label=self.label,
                    round=round_index,
                    sent=round_sent,
                    units=messages_this_round,
                    dropped=round_dropped,
                    delayed=round_delayed,
                    duplicated=round_duplicated,
                )
            self.rounds_executed += 1
        self._dropped_protocol = dropped_protocol
        self._dropped_adversary = dropped_adversary
        self._in_flight = len(inbox)
        if adv is not None:
            self._in_flight += adv.pending_delayed
        return self.rounds_executed

    @staticmethod
    def _check_congest(senders, ports, max_ports: int, round_index: int) -> None:
        """Duplicate (sender, port) pairs violate one-message-per-edge."""
        slots = senders * max_ports + ports
        slots.sort()
        duplicates = np.nonzero(np.diff(slots) == 0)[0]
        if duplicates.size:
            slot = int(slots[duplicates[0]])
            raise CongestViolation(
                f"node {slot // max_ports} sent two messages on port "
                f"{slot % max_ports} in round {round_index}"
            )

    # -- accounting ------------------------------------------------------------

    @property
    def crashed_nodes(self) -> frozenset:
        """Nodes the adversary crash-stopped (empty without an adversary).

        Protocols hand this to their result so correctness conditions can
        be evaluated over the surviving nodes, the standard crash-stop
        convention.
        """
        return frozenset(self._crashed)

    def undelivered(self) -> int:
        """Total messages never consumed when :meth:`run` last returned.

        The sum of :meth:`undelivered_detail`'s three classes; non-zero
        only when the engine halted mid-protocol or an adversary interfered.
        """
        return self._in_flight + self._dropped_protocol + self._dropped_adversary

    def undelivered_detail(self) -> dict:
        """Undelivered messages split by cause.

        * ``in_flight`` — sends still queued when the round budget ran out
          (including adversary-delayed messages whose delay never expired);
        * ``dropped_protocol`` — protocol slack: messages addressed to
          nodes that had already halted on their own;
        * ``dropped_adversary`` — adversary losses: transit drops plus
          messages addressed to crash-stopped nodes.
        """
        return {
            "in_flight": self._in_flight,
            "dropped_protocol": self._dropped_protocol,
            "dropped_adversary": self._dropped_adversary,
        }

    def fault_stats(self) -> dict | None:
        """The armed adversary's fault accounting, or None when unarmed."""
        if self.adversary is None:
            return None
        return self.adversary.stats(self.rounds_executed)

    def accounting_meta(self) -> dict:
        """Result-meta entries for undelivered and fault accounting.

        Without an adversary, entries appear only when something went
        undelivered (the legacy convention).  With an adversary armed,
        every key is always present — including zeros — so per-trial
        extras aggregate cleanly across a sweep.
        """
        meta: dict = {}
        total = self.undelivered()
        if total or self.adversary is not None:
            meta["undelivered"] = total
            meta["undelivered_in_flight"] = self._in_flight
            meta["undelivered_dropped_protocol"] = self._dropped_protocol
            meta["undelivered_dropped_adversary"] = self._dropped_adversary
        stats = self.fault_stats()
        if stats is not None:
            meta.update(stats)
        return meta
