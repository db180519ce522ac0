"""Property tests: fast/reference trace equivalence under adversaries.

The acceptance bar for the adversary subsystem: for any adversary spec —
rate-based drops/delays/duplicates, scheduled edge drops, crash-stop
schedules, and combinations — both engine backends must produce
bit-identical traces (delivered messages, metrics, undelivered split,
fault accounting) from the same seeds, across topology families, and
engine-driven protocol trials must be bit-identical end to end.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import AdversarySpec
from repro.classical.leader_election.complete_kpp import classical_le_complete
from repro.classical.leader_election.diameter2_cpr import classical_le_diameter2
from repro.classical.leader_election.ring import hirschberg_sinclair_ring, lcr_ring
from repro.network import graphs
from repro.network.engine import SynchronousEngine
from repro.network.message import Message
from repro.network.metrics import MetricsRecorder
from repro.network.node import Node
from repro.util.rng import RandomSource

#: Well over the acceptance bar of three families.
FAMILIES = {
    "complete": graphs.complete,
    "cycle": graphs.cycle,
    "star": graphs.star,
    "wheel": graphs.wheel,
    "path": graphs.path,
}


class _Chatter(Node):
    """Multi-round all-port gossip: every fault class has targets."""

    def __init__(self, uid, degree, rng, rounds):
        super().__init__(uid, degree, rng)
        self.rounds = rounds
        self.received = []

    def step(self, round_index, inbox):
        self.received.extend(
            (round_index, port, m.sender, m.payload) for port, m in inbox
        )
        if round_index < self.rounds:
            return [
                (p, Message("g", payload=(self.uid, round_index, p)))
                for p in range(self.degree)
            ]
        self.halt()
        return []


def _trace(family, n, spec, seed, backend):
    topology = FAMILIES[family](n)
    rng = RandomSource(seed)
    armed = spec.arm(spec.derive_rng(rng), topology.n) if not spec.is_null else None
    nodes = [
        _Chatter(v, topology.degree(v), rng.spawn(), rounds=4)
        for v in range(topology.n)
    ]
    metrics = MetricsRecorder()
    engine = SynchronousEngine(
        topology, nodes, metrics, backend=backend, adversary=armed
    )
    engine.run(max_rounds=12)
    return (
        metrics.messages,
        metrics.rounds,
        engine.rounds_executed,
        engine.undelivered_detail(),
        engine.fault_stats(),
        [node.received for node in nodes],
    )


@st.composite
def _adversary_specs(draw):
    spec = AdversarySpec(
        drop_rate=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
        delay_rate=draw(st.sampled_from([0.0, 0.2, 0.7])),
        delay_rounds=draw(st.integers(min_value=1, max_value=3)),
        duplicate_rate=draw(st.sampled_from([0.0, 0.3, 1.0])),
        drop_schedule=tuple(
            draw(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=4),
                        st.integers(min_value=0, max_value=5),
                        st.integers(min_value=0, max_value=3),
                    ),
                    max_size=3,
                )
            )
        ),
        crashes=tuple(
            draw(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=5),
                        st.integers(min_value=0, max_value=4),
                    ),
                    max_size=2,
                )
            )
        ),
        crash_count=draw(st.integers(min_value=0, max_value=2)),
        crash_by=draw(st.integers(min_value=1, max_value=4)),
    )
    return spec


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(min_value=4, max_value=9),
    spec=_adversary_specs(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_trace_equivalence_under_adversary(family, n, spec, seed):
    """Drop/delay/duplicate/crash traces match bit for bit across backends."""
    fast = _trace(family, n, spec, seed, "fast")
    reference = _trace(family, n, spec, seed, "reference")
    assert fast == reference


@settings(max_examples=20, deadline=None)
@given(
    drop=st.sampled_from([0.05, 0.3]),
    duplicate=st.sampled_from([0.0, 0.2]),
    crash=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_protocol_trials_identical_across_backends(drop, duplicate, crash, seed):
    """Full engine-driven protocol runs are bit-identical under faults.

    Covers four topology families end to end: K_n (KPP LE), cycles (LCR
    and Hirschberg–Sinclair), and stars/wheels (CPR diameter-2 LE) —
    statuses, crashed sets, messages, rounds, and the fault-accounting
    meta all must match.
    """
    spec = AdversarySpec(
        drop_rate=drop, duplicate_rate=duplicate, crash_count=crash, crash_by=3
    )

    def summary(result):
        return (
            result.messages,
            result.rounds,
            result.success,
            result.leader,
            sorted(result.crashed),
            {v: s.value for v, s in result.statuses.items()},
            result.meta,
        )

    import os

    runs = {}
    for backend in ("fast", "reference"):
        os.environ["REPRO_ENGINE"] = backend
        try:
            runs[backend] = [
                summary(classical_le_complete(16, RandomSource(seed), adversary=spec)),
                summary(lcr_ring(8, RandomSource(seed), adversary=spec)),
                summary(
                    hirschberg_sinclair_ring(8, RandomSource(seed), adversary=spec)
                ),
                summary(
                    classical_le_diameter2(
                        graphs.star(12), RandomSource(seed), adversary=spec
                    )
                ),
                summary(
                    classical_le_diameter2(
                        graphs.wheel(12), RandomSource(seed), adversary=spec
                    )
                ),
            ]
        finally:
            os.environ.pop("REPRO_ENGINE", None)
    assert runs["fast"] == runs["reference"]
