"""The four switch architectures evaluated in Section 4.1.

Each preset bundles the two things that differ between architectures:

- which buffer structure every (input, output, VC) queue uses, and
- which arbiter picks among queue heads at an output port.

Hosts also differ: the EDF-based architectures inject in ascending
deadline order (Section 3.2's dual host queues), while the traditional
architecture injects FIFO per VC -- ``host_edf`` records that.

===================  ===============  ============  =========
preset               switch queues    arbiter       host_edf
===================  ===============  ============  =========
``traditional-2vc``  FIFO             round-robin   no
``ideal``            EDF heap         EDF           yes
``simple-2vc``       FIFO             EDF (heads)   yes
``advanced-2vc``     ordered+takeover EDF (heads)   yes
===================  ===============  ============  =========

In every case VC0 (regulated) has absolute priority over VC1
(best-effort) at the output ports; that policy lives in the switch, not
here, because it is common to all four.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.arbiter import EDFPicker, Picker, RoundRobinPicker
from repro.core.queues import EDFHeapQueue, FifoQueue, PacketQueue, TakeOverQueue

__all__ = [
    "ADVANCED_2VC",
    "ARCHITECTURES",
    "Architecture",
    "IDEAL",
    "SIMPLE_2VC",
    "TRADITIONAL_2VC",
]


@dataclass(frozen=True)
class Architecture:
    """A named switch/host configuration (one curve in the paper's figures)."""

    name: str
    #: Label used in the paper's figures.
    label: str
    queue_factory: Callable[[], PacketQueue]
    picker_factory: Callable[[], Picker]
    #: Whether end hosts sort their injection queues by deadline.
    host_edf: bool
    #: Whether the output arbiter may skip candidates that lack downstream
    #: credits (conventional request masking).  The EDF architectures must
    #: keep this off: the appendix's no-reordering proof requires that
    #: *only* the minimum-deadline candidate be checked for credits.
    credit_masking: bool = False


TRADITIONAL_2VC = Architecture(
    name="traditional-2vc",
    label="Traditional 2 VCs",
    queue_factory=FifoQueue,
    picker_factory=RoundRobinPicker,
    host_edf=False,
    credit_masking=True,
)

IDEAL = Architecture(
    name="ideal",
    label="Ideal",
    queue_factory=EDFHeapQueue,
    picker_factory=EDFPicker,
    host_edf=True,
)

SIMPLE_2VC = Architecture(
    name="simple-2vc",
    label="Simple 2 VCs",
    queue_factory=FifoQueue,
    picker_factory=EDFPicker,
    host_edf=True,
)

ADVANCED_2VC = Architecture(
    name="advanced-2vc",
    label="Advanced 2 VCs",
    queue_factory=TakeOverQueue,
    picker_factory=EDFPicker,
    host_edf=True,
)

#: All presets, in the paper's figure order.
ARCHITECTURES = {arch.name: arch for arch in (TRADITIONAL_2VC, IDEAL, SIMPLE_2VC, ADVANCED_2VC)}
