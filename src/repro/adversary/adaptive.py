"""Traffic-conditioned (adaptive) adversaries with eavesdropping ledgers.

An :class:`AdaptiveAdversary` is an :class:`~repro.adversary.armed.ArmedAdversary`
whose fault decisions react to the traffic it observes.  The engine feeds
it every round's canonical sends through :meth:`observe_round` — invoked
at the same point by both engine run loops (the production batch loop
and the reference oracle), immediately after routing and immediately
before fault masks are drawn — so batch ≡ scalar ≡ reference stays
bit-identical under identical adversary seeds.

Strategies (:data:`~repro.adversary.spec.ADAPTIVE_STRATEGIES`):

* **target-leader** — suppress the node whose cumulative outbound volume
  dominates (ties break to the lowest id): once engaged, its sends are
  dropped with probability ``adaptive_rate``.  The target is re-elected
  every round from the volumes observed so far, so suppression follows
  the protocol's actual communication leader as it shifts.
* **target-leader-crash** — one-shot variant: the first time the strategy
  engages, the dominant sender is crash-stopped before the *next* round
  (recorded in :attr:`crash_target`).
* **congestion** — reactive loss: each message is dropped with
  probability ``adaptive_rate`` scaled by its directed edge's share of
  the heaviest observed per-edge load, so hot edges lose proportionally
  more traffic than cold ones.

Eavesdropping composes with any strategy (or stands alone): directed
edges are tapped either explicitly (``eavesdrop_edges`` as
``(sender, port)`` pairs) or by a Bernoulli draw at ``eavesdrop_rate``
the first time an edge carries a message.  Every message on a tapped edge
is *read* into the security ledger (edges tapped, messages read, per-edge
detail, first-compromise round); with ``eavesdrop_drop_rate > 0`` tapped
messages are additionally *intercepted* (dropped in transit).

Determinism contract (the adaptive extension of the base class's):

* :meth:`observe_round` is called exactly once per round with at least
  one message, before :meth:`message_masks`, with the round's sends in
  canonical order — so every path presents identical arrays;
* adaptive RNG draws happen in a fixed order inside the observe/mask
  pair: new-edge tap decisions (ascending edge slot, one vectorized draw,
  only when ``0 < eavesdrop_rate < 1`` and new edges appeared), then in
  :meth:`message_masks` the congestion draw, the target-suppression draw
  (only when ``0 < adaptive_rate < 1``), the interception draw (only when
  ``0 < eavesdrop_drop_rate < 1`` and a tapped message is in flight) —
  and finally the base class's static drop/delay/duplicate draws;
* the strategy sees traffic *through the current round* (a rushing
  adversary: it may react to sends still in flight), but only engages
  after ``adaptive_after`` fully observed rounds.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.armed import ArmedAdversary
from repro.adversary.spec import AdversarySpec
from repro.util.rng import RandomSource

__all__ = ["AdaptiveAdversary"]


class AdaptiveAdversary(ArmedAdversary):
    """Per-run state for a traffic-conditioned adversary."""

    observes = True

    def __init__(self, spec: AdversarySpec, rng: RandomSource, n: int):
        super().__init__(spec, rng, n)
        # Observed traffic: cumulative outbound sends per node and
        # cumulative load per directed edge (slot = sender * n + port;
        # unique because port < degree <= n - 1).
        self._out_volume = np.zeros(n, dtype=np.int64)
        self._edge_load: dict[int, int] = {}
        self._max_edge_load = 0
        self._rounds_observed = 0
        # Strategy state.
        self._target = -1
        self._crash_fired = False
        #: The node crash-stopped by ``target-leader-crash`` (None until
        #: the one-shot strategy fires).
        self.crash_target: int | None = None
        # Eavesdropping: tap decisions are per directed edge, made once —
        # explicit edges at arm time, rate-tapped edges the first time
        # they carry a message.
        self._tap_decided: set[int] = set()
        self._tapped: set[int] = set()
        for sender, port in spec.eavesdrop_edges:
            if sender < n and port < n:
                slot = sender * n + port
                self._tap_decided.add(slot)
                self._tapped.add(slot)
        self._tapped_arr: np.ndarray | None = None
        self._edge_ledger: dict[int, dict] = {}
        # Per-round decision state handed from observe_round to
        # message_masks (consumed within the same round).
        self._round_tap_mask: np.ndarray | None = None
        self._round_rates: np.ndarray | None = None
        # Ledger totals.
        self.edges_tapped = len(self._tapped)
        self.messages_read = 0
        self.messages_intercepted = 0
        self.first_compromise_round: int | None = None

    # -- observation -----------------------------------------------------------

    @property
    def current_target(self) -> int | None:
        """The node currently suppressed by ``target-leader`` (or None)."""
        return self._target if self._target >= 0 else None

    def observe_round(
        self,
        round_index: int,
        senders: np.ndarray,
        ports: np.ndarray,
        receivers: np.ndarray,
    ) -> None:
        """Feed one round's canonical sends into the adversary's view.

        Called by every engine path with the same arrays it hands to
        :meth:`message_masks` (plus the resolved receivers), immediately
        before the masks are drawn.  Updates the traffic accumulators,
        makes tap decisions for newly seen edges, records reads into the
        security ledger, and stages this round's strategy decisions.
        """
        spec = self.spec
        n = self.n
        slots = senders * n + ports
        # Tap decisions for edges seen for the first time, in ascending
        # slot order (identical across paths: same arrays in, one draw).
        if spec.eavesdrop_rate > 0:
            fresh = [
                slot
                for slot in np.unique(slots).tolist()
                if slot not in self._tap_decided
            ]
            if fresh:
                if spec.eavesdrop_rate >= 1.0:
                    taps = [True] * len(fresh)
                else:
                    taps = (
                        self._generator.random(len(fresh)) < spec.eavesdrop_rate
                    ).tolist()
                for slot, tapped in zip(fresh, taps):
                    self._tap_decided.add(slot)
                    if tapped:
                        self._tapped.add(slot)
                        self.edges_tapped += 1
                self._tapped_arr = None
        # Reads on tapped edges.
        self._round_tap_mask = None
        if self._tapped:
            if self._tapped_arr is None:
                self._tapped_arr = np.fromiter(
                    self._tapped, dtype=np.int64, count=len(self._tapped)
                )
                self._tapped_arr.sort()
            tap_mask = np.isin(slots, self._tapped_arr)
            reads = int(np.count_nonzero(tap_mask))
            if reads:
                self.messages_read += reads
                if self.first_compromise_round is None:
                    self.first_compromise_round = round_index
                read_idx = np.nonzero(tap_mask)[0]
                uniq, first_pos, counts = np.unique(
                    slots[read_idx], return_index=True, return_counts=True
                )
                for slot, pos, count in zip(
                    uniq.tolist(), first_pos.tolist(), counts.tolist()
                ):
                    entry = self._edge_ledger.get(slot)
                    if entry is None:
                        i = int(read_idx[pos])
                        self._edge_ledger[slot] = {
                            "sender": slot // n,
                            "port": slot % n,
                            "receiver": int(receivers[i]),
                            "messages_read": count,
                            "first_round": round_index,
                        }
                    else:
                        entry["messages_read"] += count
                if spec.eavesdrop_drop_rate > 0:
                    self._round_tap_mask = tap_mask
        # Traffic accumulators (this round's sends included: a rushing
        # adversary reacts to traffic still in flight).
        np.add.at(self._out_volume, senders, 1)
        if spec.adaptive == "congestion":
            uniq, counts = np.unique(slots, return_counts=True)
            load = self._edge_load
            for slot, count in zip(uniq.tolist(), counts.tolist()):
                total = load.get(slot, 0) + count
                load[slot] = total
                if total > self._max_edge_load:
                    self._max_edge_load = total
        engaged = self._rounds_observed >= spec.adaptive_after
        self._rounds_observed += 1
        # Stage this round's strategy decisions for message_masks.
        self._round_rates = None
        if not engaged:
            return
        if spec.adaptive == "target-leader":
            self._target = int(self._out_volume.argmax())
        elif spec.adaptive == "target-leader-crash":
            if not self._crash_fired:
                target = int(self._out_volume.argmax())
                self._crash_rounds.setdefault(round_index + 1, []).append(target)
                self._crash_fired = True
                self.crash_target = target
        elif spec.adaptive == "congestion" and spec.adaptive_rate > 0:
            loads = np.fromiter(
                (self._edge_load[slot] for slot in slots.tolist()),
                dtype=np.float64,
                count=len(slots),
            )
            self._round_rates = spec.adaptive_rate * loads / self._max_edge_load

    # -- fault masks -----------------------------------------------------------

    def message_masks(
        self, round_index: int, senders: np.ndarray, ports: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Adaptive drops merged under the base class's static masks.

        Adaptive decisions staged by :meth:`observe_round` become a forced
        drop mask that :meth:`~ArmedAdversary._draw_masks` merges before
        the delay/duplicate draws, so accounting (and the eavesdropping
        ledger) reconciles exactly with the ``fault_*`` totals.
        """
        spec = self.spec
        count = len(senders)
        forced: np.ndarray | None = None
        if self._round_rates is not None:
            forced = self._generator.random(count) < self._round_rates
            self._round_rates = None
        if (
            spec.adaptive == "target-leader"
            and self._target >= 0
            and spec.adaptive_rate > 0
        ):
            mask = senders == self._target
            if spec.adaptive_rate < 1.0:
                mask = mask & (self._generator.random(count) < spec.adaptive_rate)
            forced = mask if forced is None else forced | mask
        if self._round_tap_mask is not None:
            mask = self._round_tap_mask
            self._round_tap_mask = None
            if spec.eavesdrop_drop_rate < 1.0:
                mask = mask & (
                    self._generator.random(count) < spec.eavesdrop_drop_rate
                )
            self.messages_intercepted += int(np.count_nonzero(mask))
            forced = mask if forced is None else forced | mask
        return self._draw_masks(round_index, senders, ports, forced)

    # -- accounting ------------------------------------------------------------

    def stats(self, rounds_executed: int) -> dict:
        """Base fault accounting plus the eavesdropping ledger totals.

        ``eavesdrop_first_compromise_round`` is -1 when no tapped edge
        ever carried a message (keys stay numeric so sweep aggregation
        keeps them).
        """
        data = super().stats(rounds_executed)
        data["eavesdrop_edges_tapped"] = self.edges_tapped
        data["eavesdrop_messages_read"] = self.messages_read
        data["eavesdrop_messages_intercepted"] = self.messages_intercepted
        data["eavesdrop_first_compromise_round"] = (
            -1 if self.first_compromise_round is None else self.first_compromise_round
        )
        return data

    def security_ledger(self) -> dict:
        """The full security-accounting ledger, per-edge detail included.

        ``edges`` rows are sorted by ``(sender, port)`` and carry the
        resolved receiver, so the ledger reads as "who overheard whom".
        The totals reconcile with :meth:`stats`: ``messages_read`` is the
        sum of the per-edge counts, and every intercepted message was
        read first (``messages_intercepted <= messages_read``).
        """
        return {
            "edges_tapped": self.edges_tapped,
            "messages_read": self.messages_read,
            "messages_intercepted": self.messages_intercepted,
            "first_compromise_round": self.first_compromise_round,
            "edges": [
                dict(self._edge_ledger[slot])
                for slot in sorted(self._edge_ledger)
            ],
        }
