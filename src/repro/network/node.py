"""Node state for protocols running on the synchronous engine.

Every node carries the special ``status`` variable of the leader-election
problem definition (Section 2.2): initially ⊥ (``Status.UNDECIDED``), finally
exactly one ELECTED and the rest NON_ELECTED.  Agreement protocols use the
separate ``decision`` field (None encodes ⊥).
"""

from __future__ import annotations

import enum

from repro.network.message import Message
from repro.util.rng import RandomSource

__all__ = ["Node", "Status"]


class Status(enum.Enum):
    """Leader-election status values from Section 2.2."""

    UNDECIDED = "undecided"  # the paper's ⊥
    ELECTED = "elected"
    NON_ELECTED = "non-elected"


class Node:
    """Base class for engine-driven nodes (KT0: knows only its port count).

    Subclasses override :meth:`step`, which receives the messages delivered
    this round as ``(port, Message)`` pairs and returns the messages to send
    as ``(port, Message)`` pairs.  A node that sets ``halted`` stops being
    scheduled.
    """

    def __init__(self, uid: int, degree: int, rng: RandomSource):
        self.uid = uid
        self.degree = degree
        self.rng = rng
        self.status = Status.UNDECIDED
        self.decision: int | None = None
        self.halted = False

    def step(self, round_index: int, inbox: list[tuple[int, Message]]) -> list[tuple[int, Message]]:
        """One synchronous round; default behaviour is silence."""
        return []

    def halt(self) -> None:
        """Stop participating in the protocol from the next round on.

        Halt semantics are identical across both engine run loops (the
        batch loop, which runs node lists through
        :class:`~repro.network.batch.ScalarAdapter`, and the
        ``reference`` loop):

        * messages returned by the *same* ``step`` call that halts are
          still sent (halting takes effect after the round's sends);
        * from the next round on the node is never stepped again and any
          message addressed to it is dropped on arrival — charged to the
          sender's metrics when sent, then counted as ``dropped_protocol``
          in :meth:`SynchronousEngine.undelivered_detail` (or
          ``dropped_adversary`` when the halt was a crash-stop);
        * the engine stops as soon as every node has halted.
        """
        self.halted = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(uid={self.uid}, status={self.status.value})"
