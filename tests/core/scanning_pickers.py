"""Test oracle: the scanning pickers, kept verbatim from before the switch
tracked its backlogged inputs.

They poll every candidate queue's ``head()`` and skip the empty ones, so
they accept the ``backlogged`` argument and ignore it.  Production
arbitration (``repro.core.arbiter``) must agree with them on every pick;
``tests/network/test_arbiter_differential.py`` and the fabric fuzzer
swap them in via ``dataclasses.replace(arch, picker_factory=...)``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.core.arbiter import EDFPicker, Picker, RoundRobinPicker, SendablePredicate
from repro.core.architectures import Architecture
from repro.core.queues.base import PacketQueue

__all__ = ["ScanningEDFPicker", "ScanningRoundRobinPicker", "with_scanning_pickers"]


class ScanningEDFPicker(Picker):
    __slots__ = ()

    def pick(
        self,
        queues: Sequence[PacketQueue],
        backlogged: Sequence[int],
        sendable: Optional[SendablePredicate] = None,
    ) -> Optional[int]:
        best_index: Optional[int] = None
        best_key: Optional[tuple[int, int]] = None
        for index, queue in enumerate(queues):
            head = queue.head()
            if head is None:
                continue
            if sendable is not None and not sendable(head):
                continue
            key = (head.deadline, head.uid)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        return best_index


class ScanningRoundRobinPicker(Picker):
    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = 0

    def pick(
        self,
        queues: Sequence[PacketQueue],
        backlogged: Sequence[int],
        sendable: Optional[SendablePredicate] = None,
    ) -> Optional[int]:
        n = len(queues)
        if n == 0:
            return None
        start = self._next % n
        for offset in range(n):
            index = (start + offset) % n
            head = queues[index].head()
            if head is None:
                continue
            if sendable is not None and not sendable(head):
                continue
            return index
        return None

    def granted(self, index: int) -> None:
        self._next = index + 1


_ORACLE_FOR = {EDFPicker: ScanningEDFPicker, RoundRobinPicker: ScanningRoundRobinPicker}


def with_scanning_pickers(arch: Architecture) -> Architecture:
    """``arch`` with its picker replaced by the scanning oracle of the same policy."""
    return replace(arch, picker_factory=_ORACLE_FOR[arch.picker_factory])
