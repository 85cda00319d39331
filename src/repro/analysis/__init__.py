"""Analysis tools that quantify the paper's *cost* claims.

The paper's Section 6 argues the FIFO-based proposals cost roughly the
same silicon as a conventional two-VC switch, while the Ideal heap
buffer is "unfeasible".  :mod:`repro.analysis.cost` turns that argument
into numbers: it instruments the queue structures and arbiters, runs the
workload, and reports comparator operations per forwarded packet plus a
static hardware inventory per architecture.  :mod:`repro.analysis.utilization`
reports per-link load and tier balance.

Where a class's latency goes (held at the source NIC or spent in the
network) is the span tracer's job: ``repro-qos run --trace-spans S
--span-policy head --span-rate 1.0`` then ``repro-qos trace blame --all S``
(:mod:`repro.obs.blame`).
"""

from repro.analysis.utilization import LinkLoad, UtilizationReport, measure_utilization
from repro.analysis.cost import (
    CostCounters,
    CostReport,
    HardwareInventory,
    instrument_architecture,
    measure_scheduling_cost,
    static_inventory,
)

__all__ = [
    "CostCounters",
    "CostReport",
    "HardwareInventory",
    "LinkLoad",
    "UtilizationReport",
    "instrument_architecture",
    "measure_scheduling_cost",
    "measure_utilization",
    "static_inventory",
]
