"""Tests for flow descriptors and the registry."""

import pytest

from repro.constants import VC_BEST_EFFORT, VC_REGULATED
from repro.core.deadline import FrameBasedStamper, RateBasedStamper
from repro.core.flow import FlowKind, FlowRegistry, FlowSpec


class TestFlowSpec:
    def test_rate_flow_requires_bandwidth(self):
        with pytest.raises(ValueError):
            FlowSpec(flow_id=1, src=0, dst=1, tclass="x", kind=FlowKind.RATE)

    def test_frame_flow_requires_target(self):
        with pytest.raises(ValueError):
            FlowSpec(flow_id=1, src=0, dst=1, tclass="x", kind=FlowKind.FRAME)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            FlowSpec(flow_id=1, src=3, dst=3, tclass="x", bw_bytes_per_ns=1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FlowSpec(flow_id=1, src=0, dst=1, tclass="x", kind="bogus", bw_bytes_per_ns=1.0)

    def test_negative_vc_rejected(self):
        # Any non-negative VC index is allowed at spec level (multi-VC
        # fabrics exist); the fabric bounds it against its own VC count.
        with pytest.raises(ValueError):
            FlowSpec(flow_id=1, src=0, dst=1, tclass="x", vc=-1, bw_bytes_per_ns=1.0)
        FlowSpec(flow_id=1, src=0, dst=1, tclass="x", vc=3, bw_bytes_per_ns=1.0)

    @pytest.mark.parametrize(
        "kind,kwargs,stamper_cls",
        [
            (FlowKind.RATE, {"bw_bytes_per_ns": 0.5}, RateBasedStamper),
            # Control is rate-based at the link rate: the same stamper.
            pytest.param(
                FlowKind.CONTROL, {"bw_bytes_per_ns": 1.0}, RateBasedStamper,
                id="control-kwargs1-ControlStamper",
            ),
            (FlowKind.FRAME, {"target_latency_ns": 1000}, FrameBasedStamper),
        ],
    )
    def test_make_stamper_matches_kind(self, kind, kwargs, stamper_cls):
        spec = FlowSpec(flow_id=1, src=0, dst=1, tclass="x", kind=kind, **kwargs)
        assert type(spec.make_stamper()) is stamper_cls


class TestFlowRegistry:
    def test_ids_are_unique_and_sequential(self):
        reg = FlowRegistry()
        a = reg.create(src=0, dst=1, tclass="x", bw_bytes_per_ns=1.0)
        b = reg.create(src=1, dst=2, tclass="x", bw_bytes_per_ns=1.0)
        assert a.spec.flow_id != b.spec.flow_id
        assert reg.get(a.spec.flow_id) is a
        assert len(reg) == 2

    def test_close_releases_flow_state(self):
        reg = FlowRegistry()
        flow = reg.create(src=0, dst=1, tclass="x", bw_bytes_per_ns=1.0)
        keep = reg.create(src=1, dst=2, tclass="x", bw_bytes_per_ns=1.0)
        closed = reg.close(flow.spec.flow_id)
        assert closed is flow
        assert len(reg) == 1
        assert reg.get(keep.spec.flow_id) is keep
        with pytest.raises(KeyError):
            reg.get(flow.spec.flow_id)

    def test_close_never_recycles_flow_ids(self):
        reg = FlowRegistry()
        first = reg.create(src=0, dst=1, tclass="x", bw_bytes_per_ns=1.0)
        reg.close(first.spec.flow_id)
        reopened = reg.create(src=0, dst=1, tclass="x", bw_bytes_per_ns=1.0)
        assert reopened.spec.flow_id > first.spec.flow_id

    def test_by_host(self):
        reg = FlowRegistry()
        reg.create(src=0, dst=1, tclass="x", bw_bytes_per_ns=1.0)
        reg.create(src=0, dst=2, tclass="x", bw_bytes_per_ns=1.0)
        reg.create(src=5, dst=2, tclass="x", bw_bytes_per_ns=1.0)
        assert len(reg.by_host(0)) == 2
        assert len(reg.by_host(5)) == 1
        assert reg.by_host(9) == []

    def test_sequence_counters(self):
        reg = FlowRegistry()
        flow = reg.create(src=0, dst=1, tclass="x", bw_bytes_per_ns=1.0)
        # The source NIC takes a message's numbers in one step each
        # (tests/network/test_host.py::TestStamping checks it does).
        assert (flow.next_seq, flow.next_msg) == (0, 0)
        other = reg.create(src=0, dst=2, tclass="x", bw_bytes_per_ns=1.0)
        flow.next_seq, flow.next_msg = 3, 2
        assert (other.next_seq, other.next_msg) == (0, 0)

    def test_default_vcs(self):
        reg = FlowRegistry()
        regulated = reg.create(src=0, dst=1, tclass="x", bw_bytes_per_ns=1.0)
        best_effort = reg.create(
            src=0, dst=1, tclass="y", vc=VC_BEST_EFFORT, bw_bytes_per_ns=1.0
        )
        assert regulated.spec.vc == VC_REGULATED
        assert best_effort.spec.vc == VC_BEST_EFFORT

    def test_iteration(self):
        reg = FlowRegistry()
        created = {
            reg.create(src=0, dst=1, tclass="x", bw_bytes_per_ns=1.0).spec.flow_id,
            reg.create(src=2, dst=3, tclass="x", bw_bytes_per_ns=1.0).spec.flow_id,
        }
        assert {f.spec.flow_id for f in reg} == created
