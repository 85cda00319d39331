"""The paper's primary contribution: deadline-based QoS without sorted buffers.

Layout:

- :mod:`~repro.core.flow` -- flow descriptors and per-flow sender state.
- :mod:`~repro.core.deadline` -- the Virtual-Clock deadline stampers of
  Section 3.1 (rate-based, which control uses at the link rate; frame-based).
- :mod:`~repro.core.eligible` -- eligible-time smoothing.
- :mod:`~repro.core.queues` -- the buffer structures under study: plain
  FIFO, exact-EDF heap, and the ordered/take-over FIFO pair of
  Section 3.4 whose correctness the appendix proves.
- :mod:`~repro.core.arbiter` -- head-of-queue pickers (EDF and
  round-robin) used by switch output ports.
- :mod:`~repro.core.ttd` -- time-to-destination deadline encoding
  (Section 3.3), which removes the need for synchronized clocks.
- :mod:`~repro.core.admission` -- centralized bandwidth reservation with
  load-balanced fixed-path assignment.
- :mod:`~repro.core.architectures` -- the four evaluated switch
  architectures (Traditional/Ideal/Simple/Advanced) as named presets.
"""

from repro.core.flow import FlowRegistry, FlowSpec, FlowState
from repro.core.deadline import DeadlineStamper, FrameBasedStamper, RateBasedStamper
from repro.core.queues import EDFHeapQueue, FifoQueue, PacketQueue, TakeOverQueue
from repro.core.arbiter import EDFPicker, Picker, RoundRobinPicker
from repro.core.ttd import ClockDomain, deadline_from_ttd, ttd_from_deadline
from repro.core.admission import AdmissionController, AdmissionError, Reservation
from repro.core.architectures import (
    ADVANCED_2VC,
    ARCHITECTURES,
    IDEAL,
    IDEAL_PIPELINED,
    SIMPLE_2VC,
    TRADITIONAL_2VC,
    Architecture,
    get_architecture,
)
from repro.core.invariants import InvariantViolation, invariant

__all__ = [
    "ADVANCED_2VC",
    "ARCHITECTURES",
    "AdmissionController",
    "AdmissionError",
    "Architecture",
    "ClockDomain",
    "DeadlineStamper",
    "EDFHeapQueue",
    "EDFPicker",
    "FifoQueue",
    "FlowRegistry",
    "FlowSpec",
    "FlowState",
    "InvariantViolation",
    "FrameBasedStamper",
    "IDEAL",
    "IDEAL_PIPELINED",
    "PacketQueue",
    "Picker",
    "RateBasedStamper",
    "Reservation",
    "RoundRobinPicker",
    "SIMPLE_2VC",
    "TRADITIONAL_2VC",
    "TakeOverQueue",
    "deadline_from_ttd",
    "get_architecture",
    "invariant",
    "ttd_from_deadline",
]
