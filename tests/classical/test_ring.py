"""Tests for the ring leader-election protocols (engine demonstrators)."""

import math

import pytest

from repro.classical.leader_election.ring import (
    _LCR_HALT,
    _LCR_PROBE,
    _LCRBatch,
    _LCRNode,
    hirschberg_sinclair_ring,
    lcr_ring,
)
from repro.network.batch import STATUS_CODES, STATUS_ELECTED, MessageBatch
from repro.network.graphs import cycle
from repro.network.message import Message
from repro.network.node import Status
from repro.util.rng import RandomSource


class TestLCR:
    @pytest.mark.parametrize("n", [3, 5, 16, 64])
    def test_elects_unique_leader(self, n):
        result = lcr_ring(n, RandomSource(n))
        assert result.success

    def test_many_seeds(self):
        successes = sum(lcr_ring(24, RandomSource(s)).success for s in range(20))
        assert successes == 20

    def test_message_bound_quadratic_worst_case(self):
        result = lcr_ring(32, RandomSource(0))
        assert result.messages <= 32 * 32 + 3 * 32  # O(n²) + halt lap

    def test_rounds_linear(self):
        result = lcr_ring(40, RandomSource(1))
        assert result.rounds <= 3 * 40 + 4

    def test_rejects_tiny_ring(self):
        with pytest.raises(ValueError):
            lcr_ring(2, RandomSource(0))

    def test_batch_round_matches_scalar_on_stacked_inboxes(self):
        # Delays and duplicates can stack several probes and halts in one
        # inbox; the batch round must reduce each receiver group exactly
        # as the scalar node loops over its inbox.
        topology = cycle(6)
        ids = [10, 20, 30, 40, 50, 60]
        inbox = [  # (receiver, kind, value), sorted by receiver
            (0, "probe", 10), (0, "halt", 60),  # own probe returns
            (1, "probe", 50), (1, "halt", 60), (1, "probe", 55),
            (2, "probe", 70), (2, "halt", 30),  # already elected
            (3, "probe", 35), (3, "probe", 45), (3, "probe", 41),
            (4, "halt", 99), (4, "halt", 98),  # the last halt is forwarded
        ]
        batch = _LCRBatch(topology, ids)
        batch.status_codes[2] = STATUS_ELECTED
        kind_code = {"probe": _LCR_PROBE, "halt": _LCR_HALT}
        ccw = [topology.port_to(v, (v - 1) % 6) for v in range(6)]
        out = batch.step_batch(
            1,
            MessageBatch(
                senders=[(r - 1) % 6 for r, _, _ in inbox],
                ports=[ccw[r] for r, _, _ in inbox],
                kinds=[kind_code[k] for _, k, _ in inbox],
                values=[value for _, _, value in inbox],
                receivers=[r for r, _, _ in inbox],
            ),
        )
        expected = []
        for v in range(6):
            node = _LCRNode(v, 2, None, ids[v], topology.port_to(v, (v + 1) % 6))
            node.started = True
            if v == 2:
                node.status = Status.ELECTED
            sent = node.step(
                1,
                [(ccw[r], Message(k, payload=x)) for r, k, x in inbox if r == v],
            )
            expected += [(v, p, kind_code[m.kind], m.payload) for p, m in sent]
            assert STATUS_CODES[batch.status_codes[v]] is node.status
            assert batch.halted[v] == node.halted
        assert expected == list(
            zip(
                out.senders.tolist(),
                out.ports.tolist(),
                out.kinds.tolist(),
                out.values.tolist(),
            )
        )


class TestHirschbergSinclair:
    @pytest.mark.parametrize("n", [3, 6, 17, 64])
    def test_elects_unique_leader(self, n):
        result = hirschberg_sinclair_ring(n, RandomSource(n + 100))
        assert result.success

    def test_many_seeds(self):
        successes = sum(
            hirschberg_sinclair_ring(24, RandomSource(s)).success
            for s in range(20)
        )
        assert successes == 20

    def test_message_bound_n_log_n(self):
        n = 64
        result = hirschberg_sinclair_ring(n, RandomSource(2))
        # 8n per phase, ceil(log2 n)+1 phases, plus halt lap and slack.
        bound = 10 * n * (math.ceil(math.log2(n)) + 2)
        assert result.messages <= bound

    def test_hs_beats_lcr_asymptotically_on_bad_orders(self):
        """On average random ids LCR is fine, but HS has the better worst-case
        guarantee; check both complete and compare messages at larger n."""
        n = 128
        lcr = lcr_ring(n, RandomSource(3))
        hs = hirschberg_sinclair_ring(n, RandomSource(3))
        assert lcr.success and hs.success
