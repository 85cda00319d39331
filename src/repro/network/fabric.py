"""Fabric assembly: topology + architecture + parameters -> runnable network.

:class:`Fabric` instantiates hosts, switches, and (simplex) links from a
:class:`~repro.network.topology.Topology`, wires up routing and the
centralized admission controller, and offers the flow-level API the
traffic generators and examples use:

- :meth:`Fabric.open_flow` -- create a flow, run admission (bandwidth
  reservation for regulated flows, balanced fixed-path assignment for
  control and best-effort), and fix its source route;
- :meth:`Fabric.submit` -- hand an application message to the source NIC;
- :meth:`Fabric.subscribe_delivery` -- receive every delivered packet
  (the statistics collectors hook in here);
- :meth:`Fabric.run` -- advance simulated time.

Default parameters are the paper's (Section 4.1): 8 Gb/s links, 16-port
switches, 8 KB of buffer per VC, 2 KB MTU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.admission import AdmissionController, AdmissionError
from repro.core.architectures import ADVANCED_2VC, Architecture
from repro.core.deadline import DeadlineStamper
from repro.core.eligible import DEFAULT_OFFSET_NS, EligiblePolicy
from repro.core.flow import FlowKind, FlowRegistry, FlowState
from repro.core.invariants import invariant
from repro.core.ttd import ClockDomain
from repro.network.host import Host
from repro.network.link import Link
from repro.network.packet import Packet, PacketFactory, VC_BEST_EFFORT, VC_REGULATED
from repro.network.routing import RoutingTable
from repro.network.switch import Switch
from repro.network.topology import Topology, paper_topology
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from repro.sim.units import KB, gbps

__all__ = ["Fabric", "FabricParams", "build_fabric"]


@dataclass(frozen=True)
class FabricParams:
    """Hardware parameters; defaults are the paper's configuration."""

    #: Link data rate in Gb/s (8 Gb/s == 1 byte/ns).
    link_gbps: float = 8.0
    #: Maximum transfer unit in bytes (the paper's MPEG example uses 2 KB).
    mtu: int = 2 * KB
    #: Input buffer per VC at switch ports (Section 4.1: 8 KB per VC).
    buffer_bytes_per_vc: int = 8 * KB
    #: Input buffer per VC at host NICs.
    host_buffer_bytes_per_vc: int = 8 * KB
    #: One-way propagation + PHY pipeline delay per link hop.
    link_delay_ns: int = 20
    #: Eligible-time offset (Section 3.1: 20 us works well); None disables.
    eligible_offset_ns: Optional[int] = DEFAULT_OFFSET_NS
    #: Admission ceiling: fraction of each link reservable by regulated flows.
    max_utilization: float = 1.0
    #: Section 3.3 mode: maximum absolute skew of per-node free-running
    #: clocks.  0 = synchronized clocks (deadlines ride as absolute times).
    #: Nonzero = every node gets a fixed random offset in [-skew, +skew],
    #: hosts stamp deadlines on their local clocks, and every link carries
    #: the deadline as a TTD and re-bases it -- results must be identical,
    #: which the TTD integration tests assert.
    clock_skew_ns: int = 0
    clock_skew_seed: int = 0
    #: Virtual channels per port.  2 is the paper's proposal; larger values
    #: build the Section 6 counterfactual (e.g. a conventional switch with
    #: one strict-priority VC per traffic class).  Lower index = higher
    #: priority.
    n_vcs: int = 2

    def __post_init__(self) -> None:
        if self.mtu <= 0:
            raise ValueError(f"MTU must be positive, got {self.mtu}")
        if self.n_vcs < 1:
            raise ValueError(f"need at least one VC, got {self.n_vcs}")
        if self.buffer_bytes_per_vc < self.mtu:
            raise ValueError(
                f"switch buffer per VC ({self.buffer_bytes_per_vc} B) must hold "
                f"at least one MTU ({self.mtu} B) or nothing can ever be sent"
            )
        if self.host_buffer_bytes_per_vc < self.mtu:
            raise ValueError(
                f"host buffer per VC ({self.host_buffer_bytes_per_vc} B) must "
                f"hold at least one MTU ({self.mtu} B)"
            )

    @property
    def bytes_per_ns(self) -> float:
        return gbps(self.link_gbps)


DeliveryCallback = Callable[[Packet, int], None]


class Fabric:
    """A fully wired simulated network."""

    def __init__(
        self,
        topology: Topology,
        architecture: Architecture = ADVANCED_2VC,
        params: FabricParams = FabricParams(),
        *,
        engine: Optional[Engine] = None,
        trace=None,
        metrics=None,
        tracer=None,
        packet_pooling: bool = False,
    ):
        self.topology = topology
        self.architecture = architecture
        self.params = params
        self.engine = engine or Engine()
        #: Fabric-wide uid minting (+ optional free-list pooling): one
        #: factory shared by every host keeps uids unique fabric-wide and
        #: deterministic per run.  Pooling is opt-in because delivery
        #: subscribers outside this repo may retain Packet objects; see
        #: PacketFactory.recycle for the lifecycle contract.
        self.packet_factory = PacketFactory(pooling=packet_pooling)
        self.trace = trace
        self.metrics = metrics
        self.tracer = tracer
        self.flows = FlowRegistry()
        self.routing = RoutingTable(topology)
        self.admission = AdmissionController(
            self.routing,
            params.bytes_per_ns,
            max_utilization=params.max_utilization,
        )
        self._delivery_subscribers: List[DeliveryCallback] = []

        # Section 3.3: optional unsynchronized clocks + TTD deadline carriage.
        self.clock_domain = None
        if params.clock_skew_ns:
            skew_rng = RandomStreams(params.clock_skew_seed).stream("clock-skew")
            self.clock_domain = ClockDomain(
                {
                    node: skew_rng.randint(-params.clock_skew_ns, params.clock_skew_ns)
                    for node in (*topology.host_ids, *topology.switch_ids)
                }
            )

        # The one observation handle every component reports to; None on
        # an unobserved run, so the hot paths have nothing to call and the
        # network model never imports its observers.
        obs = None
        if trace is not None or metrics is not None or tracer is not None:
            from repro.obs.observer import FabricObserver

            obs = FabricObserver(trace, metrics, tracer, params.n_vcs)
        eligible_policy = EligiblePolicy(params.eligible_offset_ns)
        self.hosts: List[Host] = [
            Host(
                self.engine,
                node_id,
                index,
                architecture,
                eligible_policy=eligible_policy,
                mtu=params.mtu,
                on_delivery=self._dispatch_delivery,
                clock_offset=(
                    self.clock_domain.offset(node_id) if self.clock_domain else 0
                ),
                n_vcs=params.n_vcs,
                obs=obs,
                packet_factory=self.packet_factory,
            )
            for index, node_id in enumerate(topology.host_ids)
        ]
        self.switches: Dict[str, Switch] = {
            sw_id: Switch(
                self.engine,
                sw_id,
                topology.radix(sw_id),
                architecture,
                n_vcs=params.n_vcs,
                obs=obs,
            )
            for sw_id in topology.switch_ids
        }
        self.links: Dict[tuple[str, int], Link] = {}
        self._wire_links()

    # ------------------------------------------------------------------
    def _wire_links(self) -> None:
        params = self.params
        for src, sport, dst, dport in self.topology.directed_links():
            buf = (
                params.host_buffer_bytes_per_vc
                if self.topology.is_host(dst)
                else params.buffer_bytes_per_vc
            )
            link = Link(
                self.engine,
                src=src,
                src_port=sport,
                dst=dst,
                dst_port=dport,
                bytes_per_ns=params.bytes_per_ns,
                prop_delay_ns=params.link_delay_ns,
                buffer_bytes_per_vc=(buf,) * params.n_vcs,
            )
            link.clock_domain = self.clock_domain
            self.links[(src, sport)] = link
            if self.topology.is_host(src):
                self.hosts[self.topology.host_index(src)].attach_out(link)
            else:
                self.switches[src].attach_out(sport, link)
            if self.topology.is_host(dst):
                self.hosts[self.topology.host_index(dst)].attach_in(link)
            else:
                self.switches[dst].attach_in(dport, link)

    def _dispatch_delivery(self, pkt: Packet, now: int) -> None:
        for fn in self._delivery_subscribers:
            fn(pkt, now)

    # ------------------------------------------------------------------
    # flow management
    # ------------------------------------------------------------------
    def open_flow(
        self,
        src: int,
        dst: int,
        tclass: str,
        *,
        kind: str = FlowKind.RATE,
        vc: Optional[int] = None,
        bw_bytes_per_ns: Optional[float] = None,
        target_latency_ns: Optional[int] = None,
        smoothing: bool = False,
        stamper: Optional[DeadlineStamper] = None,
    ) -> FlowState:
        """Create a flow, run admission, and fix its route.

        - RATE flows on the regulated VC reserve ``bw_bytes_per_ns``
          end-to-end and may raise
          :class:`~repro.core.admission.AdmissionError`.
        - FRAME flows reserve ``bw_bytes_per_ns`` too (the video stream's
          average rate) but stamp deadlines from ``target_latency_ns``.
        - CONTROL flows skip reservation (the paper gives them no
          admission) and stamp at full link bandwidth.
        - Best-effort flows (``vc=1``) never reserve; their
          ``bw_bytes_per_ns`` only shapes deadlines (and path balancing).

        ``stamper`` makes the flow stamp from a virtual clock it shares
        with others (a per-host record) instead of one of its own.
        """
        if vc is None:
            vc = VC_BEST_EFFORT if tclass in ("best-effort", "background") else VC_REGULATED
        if not 0 <= vc < self.params.n_vcs:
            raise ValueError(
                f"vc {vc} out of range for a {self.params.n_vcs}-VC fabric"
            )
        if kind == FlowKind.CONTROL and bw_bytes_per_ns is None:
            bw_bytes_per_ns = self.params.bytes_per_ns
        flow = self.flows.create(
            src, dst, tclass, kind, vc, bw_bytes_per_ns, target_latency_ns, smoothing,
            stamper=stamper,
        )
        reserve = vc == VC_REGULATED and kind != FlowKind.CONTROL
        if reserve:
            invariant(bw_bytes_per_ns is not None, "regulated flows need a rate to reserve")
            try:
                reservation = self.admission.reserve(
                    flow.spec.flow_id, src, dst, bw_bytes_per_ns
                )
            except AdmissionError:
                # A rejected flow never existed: keep it out of the registry.
                self.flows.close(flow.spec.flow_id)
                raise
            route = reservation.path
        else:
            weight = bw_bytes_per_ns if bw_bytes_per_ns else 1.0
            route = self.admission.assign_path(src, dst, weight=weight)
        flow.path = route.ports
        return flow

    def submit(self, flow: FlowState, message_bytes: int) -> None:
        """Hand one application message to the flow's source NIC."""
        self.hosts[flow.spec.src].submit_message(flow, message_bytes)

    # ------------------------------------------------------------------
    def subscribe_delivery(self, fn: DeliveryCallback) -> None:
        self._delivery_subscribers.append(fn)

    def run(self, until: int) -> None:
        self.engine.run(until=until)

    # ------------------------------------------------------------------
    # fabric-wide accounting (tests: conservation of packets)
    # ------------------------------------------------------------------
    def packets_in_flight(self) -> int:
        """Submitted but not yet delivered (host queues + switch VOQs + wires)."""
        submitted = sum(h.packets_submitted for h in self.hosts)
        delivered = sum(h.packets_received for h in self.hosts)
        return submitted - delivered

    def queued_in_switches(self) -> int:
        return sum(sw.queued_packets() for sw in self.switches.values())

    def queued_in_hosts(self) -> int:
        return sum(h.queued_packets() for h in self.hosts)

    def takeover_hits(self) -> int:
        """Fabric-wide take-over (U) queue arrivals."""
        return sum(sw.takeover_hits() for sw in self.switches.values())

    def link_utilization(self) -> float:
        """Mean fraction of simulated time the links spent transmitting."""
        now = self.engine.now
        if not self.links or now <= 0:
            return 0.0
        return sum(link.busy_ns for link in self.links.values()) / (now * len(self.links))


def build_fabric(
    architecture: Architecture = ADVANCED_2VC,
    topology: Optional[Topology] = None,
    params: FabricParams = FabricParams(),
    **kwargs,
) -> Fabric:
    """Convenience constructor; defaults to the paper's 128-endpoint MIN."""
    return Fabric(topology or paper_topology(), architecture, params, **kwargs)
