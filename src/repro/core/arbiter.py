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

A head is read as the queue's ``front`` field (a register in hardware;
see :mod:`repro.core.queues.base`).

``pick`` also accepts an optional integer ``budget`` used for credit
masking: the VC's downstream credits, so any candidate whose head is
larger than the budget is skipped.  The traditional architecture masks,
as real request-grant arbiters do.  The EDF architectures must *not*
mask: the appendix's no-reordering proof requires that only the
minimum-deadline candidate be checked for credits, so their switch calls
``pick`` without a budget and then checks the single winner itself.
(``tests/core/test_takeover_credit_rule.py`` shows what masking would
break: packets of one flow leave out of order.)

``pick`` is side-effect free; the switch calls :meth:`Picker.granted`
once the chosen head actually wins the credit check and is sent, so a
blocked candidate does not perturb stateful pickers.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.queues.base import PacketQueue

__all__ = ["EDFPicker", "MeteredPicker", "Picker", "RoundRobinPicker"]


class Picker:
    """Interface: choose an index into ``queues`` or None if nothing to send.

    ``backlogged`` holds exactly the indices of the non-empty queues, each
    once, in arbitrary order; the result must not depend on that order.
    With a ``budget`` (bytes of credit), a candidate whose head is larger
    than the budget is not eligible.
    """

    __slots__ = ()

    def pick(
        self,
        queues: Sequence[PacketQueue],
        backlogged: Sequence[int],
        budget: Optional[int] = None,
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
        budget: Optional[int] = None,
    ) -> Optional[int]:
        # The order of ``(deadline, uid)`` tuples, compared field by field
        # as integers: this loop runs once per contender per decision.
        best_index: Optional[int] = None
        best_deadline = best_uid = 0
        for index in backlogged:
            head = queues[index].front
            if budget is not None and head.size > budget:
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
        budget: Optional[int] = None,
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
            if budget is not None and queues[index].front.size > budget:
                continue
            best_index = index
            best_offset = offset
        return best_index

    def granted(self, index: int) -> None:
        self._next = index + 1


class MeteredPicker(Picker):
    """Transparent wrapper counting arbitration attempts.

    The counter is injected (any object with an integer ``value``,
    bumped in place: no call per pick) so this module stays free of an
    ``repro.obs`` import; the switch only wraps its pickers when metrics
    are enabled, so the disabled path never pays the extra indirection.
    Grants are not counted here: every grant is a ``packets_forwarded``
    the switch already counts, so ``granted`` is the inner picker's own.
    """

    __slots__ = ("inner", "picks", "granted")

    def __init__(self, inner: Picker, picks):
        self.inner = inner
        self.picks = picks
        self.granted = inner.granted

    def pick(
        self,
        queues: Sequence[PacketQueue],
        backlogged: Sequence[int],
        budget: Optional[int] = None,
    ) -> Optional[int]:
        self.picks.value += 1
        return self.inner.pick(queues, backlogged, budget)
