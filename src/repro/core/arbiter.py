"""Output-port arbiters.

An arbiter picks, among the candidate queues feeding one output port and
VC, the queue whose head should be transmitted next.  Per the paper's
implementability constraint it may look only at queue *heads* -- and only
at the heads of the *backlogged* queues: the switch hands ``pick`` the
indices of the non-empty candidates (in no particular order), so the
cost of a decision follows the number of contenders, not the radix:

- :class:`EDFPicker` -- minimum head deadline (ties by arrival order).
  Over FIFO queues this is the *Simple* scheme, over take-over queues the
  *Advanced* scheme, and over heap queues it realizes exact EDF (*Ideal*),
  because then every queue's head is its true minimum.
- :class:`RoundRobinPicker` -- deadline-blind rotating priority, as a
  conventional switch (*Traditional 2 VCs*) would use.

``pick`` also accepts an optional ``sendable`` predicate used for credit
masking (skipping candidates that would not fit downstream).  The
traditional architecture masks, as real request-grant arbiters do.  The
EDF architectures must *not* mask: the appendix's no-reordering proof
requires that only the minimum-deadline candidate be checked for
credits, so their switch calls ``pick`` without a predicate and then
checks the single winner itself.  (``tests/core/test_takeover_credit_rule.py``
shows what masking would break: packets of one flow leave out of order.)

``pick`` is side-effect free; the switch calls :meth:`Picker.granted`
once the chosen head actually wins the credit check and is sent, so a
blocked candidate does not perturb stateful pickers.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.queues.base import DeadlineTagged, PacketQueue

__all__ = ["EDFPicker", "MeteredPicker", "Picker", "RoundRobinPicker"]

SendablePredicate = Callable[[DeadlineTagged], bool]


class Picker:
    """Interface: choose an index into ``queues`` or None if nothing to send.

    ``backlogged`` holds exactly the indices of the non-empty queues, each
    once, in arbitrary order; the result must not depend on that order.
    """

    __slots__ = ()

    def pick(
        self,
        queues: Sequence[PacketQueue],
        backlogged: Sequence[int],
        sendable: Optional[SendablePredicate] = None,
    ) -> Optional[int]:
        raise NotImplementedError

    def granted(self, index: int) -> None:
        """Notification that the pick at ``index`` was transmitted."""
        return None


class EDFPicker(Picker):
    """Earliest-deadline-first over queue heads.

    Ties break on packet uid (global arrival order), which both keeps the
    simulation deterministic and matches the hardware intuition that the
    older packet wins a deadline tie.
    """

    __slots__ = ()

    def pick(
        self,
        queues: Sequence[PacketQueue],
        backlogged: Sequence[int],
        sendable: Optional[SendablePredicate] = None,
    ) -> Optional[int]:
        # The order of ``(deadline, uid)`` tuples, compared field by field
        # as integers: this loop runs once per contender per decision.
        best_index: Optional[int] = None
        best_deadline = best_uid = 0
        for index in backlogged:
            head = queues[index].head()
            if sendable is not None and not sendable(head):
                continue
            deadline = head.deadline
            if (
                best_index is None
                or deadline < best_deadline
                or (deadline == best_deadline and head.uid < best_uid)
            ):
                best_index = index
                best_deadline = deadline
                best_uid = head.uid
        return best_index


class RoundRobinPicker(Picker):
    """Rotating-priority arbiter, one rotation pointer per instance.

    The pointer advances past a queue only when it is actually *granted*
    (transmitted), giving the long-run fairness a conventional crossbar
    scheduler provides between input ports.
    """

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = 0

    def pick(
        self,
        queues: Sequence[PacketQueue],
        backlogged: Sequence[int],
        sendable: Optional[SendablePredicate] = None,
    ) -> Optional[int]:
        if not backlogged:
            return None
        n = len(queues)
        start = self._next % n
        best_index: Optional[int] = None
        best_offset = n
        for index in backlogged:
            # Cyclic distance from the pointer: the first sendable queue a
            # rotating scan from ``start`` would reach has the smallest.
            offset = (index - start) % n
            if offset >= best_offset:
                continue
            if sendable is not None and not sendable(queues[index].head()):
                continue
            best_index = index
            best_offset = offset
        return best_index

    def granted(self, index: int) -> None:
        self._next = index + 1


class MeteredPicker(Picker):
    """Transparent wrapper counting arbitration attempts and grants.

    The counters are injected (any object with an integer ``value``,
    bumped in place: no call per pick) so this module
    stays free of an ``repro.obs`` import; the switch only wraps its
    pickers when metrics are enabled, so the disabled path never pays the
    extra indirection.
    """

    __slots__ = ("inner", "picks", "grants")

    def __init__(self, inner: Picker, picks, grants):
        self.inner = inner
        self.picks = picks
        self.grants = grants

    def pick(
        self,
        queues: Sequence[PacketQueue],
        backlogged: Sequence[int],
        sendable: Optional[SendablePredicate] = None,
    ) -> Optional[int]:
        self.picks.value += 1
        return self.inner.pick(queues, backlogged, sendable)

    def granted(self, index: int) -> None:
        self.grants.value += 1
        self.inner.granted(index)
