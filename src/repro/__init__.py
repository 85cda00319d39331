"""repro -- Deadline-based QoS for high-performance networks.

A complete, self-contained reproduction of

    A. Martinez, F. J. Alfaro, J. L. Sanchez, J. Duato,
    "Deadline-based QoS Algorithms for High-performance Networks",
    IPPS 2007.

The package implements the paper's contribution (end-host Virtual-Clock
deadline stamping, eligible-time smoothing, the ordered/take-over FIFO
pair, and EDF head-of-queue arbitration over two VCs) together with every
substrate it needs: a discrete-event simulation kernel, a credit-flow-
controlled multistage interconnection network, NPF-benchmark-style
traffic generators, and the statistics/figure harness that regenerates
the paper's evaluation.

Quick start::

    from repro.exec import execute_config
    from repro.experiments import ExperimentConfig

    summary = execute_config(ExperimentConfig(architecture="advanced-2vc",
                                              load=0.8, seed=1))
    print(summary.table())

See ``examples/quickstart.py`` for the flow-level API.
"""

from repro.constants import N_VCS, VC_BEST_EFFORT, VC_REGULATED
from repro.core import (
    ADVANCED_2VC,
    ARCHITECTURES,
    AdmissionController,
    AdmissionError,
    Architecture,
    EDFHeapQueue,
    EDFPicker,
    FifoQueue,
    FlowRegistry,
    FlowSpec,
    FlowState,
    FrameBasedStamper,
    IDEAL,
    RateBasedStamper,
    RoundRobinPicker,
    SIMPLE_2VC,
    TRADITIONAL_2VC,
    TakeOverQueue,
)
from repro.network import (
    Fabric,
    Host,
    Link,
    Packet,
    Switch,
    Topology,
    build_fabric,
    build_fat_tree,
    build_folded_shuffle_min,
    paper_topology,
)
from repro.sim import Engine, RandomStreams

__version__ = "1.0.0"

__all__ = [
    "ADVANCED_2VC",
    "ARCHITECTURES",
    "AdmissionController",
    "AdmissionError",
    "Architecture",
    "EDFHeapQueue",
    "EDFPicker",
    "Engine",
    "Fabric",
    "FifoQueue",
    "FlowRegistry",
    "FlowSpec",
    "FlowState",
    "FrameBasedStamper",
    "Host",
    "IDEAL",
    "Link",
    "N_VCS",
    "Packet",
    "RandomStreams",
    "RateBasedStamper",
    "RoundRobinPicker",
    "SIMPLE_2VC",
    "Switch",
    "TRADITIONAL_2VC",
    "TakeOverQueue",
    "Topology",
    "VC_BEST_EFFORT",
    "VC_REGULATED",
    "build_fabric",
    "build_fat_tree",
    "build_folded_shuffle_min",
    "paper_topology",
    "__version__",
]
