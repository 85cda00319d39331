"""Tests for eligible-time smoothing.

The rule -- eligible at ``max(deadline - offset, now)``, at once with no
offset -- is applied by ``Host.submit_message``; these submit one-packet
messages on a frame flow whose target latency puts the deadline exactly
where each case needs it.
"""

import pytest

from repro.constants import VC_REGULATED
from repro.core.architectures import ADVANCED_2VC
from repro.core.eligible import DEFAULT_OFFSET_NS
from repro.core.flow import FlowKind, FlowRegistry
from repro.network.fabric import FabricParams
from repro.network.host import Host
from repro.sim.engine import Engine


def eligible_at(offset, *, deadline, now):
    """The eligible time a host with ``eligible_offset_ns=offset`` gives a
    smoothed packet stamped with ``deadline`` at ``now``."""
    host = Host(Engine(now), "h0", 0, ADVANCED_2VC, eligible_offset_ns=offset)
    flow = FlowRegistry().create(
        0, 1, "video", FlowKind.FRAME, VC_REGULATED,
        target_latency_ns=deadline - now, smoothing=True,
    )
    (pkt,) = host.submit_message(flow, 100)
    assert pkt.deadline == deadline
    # the tag is not part of the packet: a held packet waits in the host's
    # pending heap under it, a packet eligible at once goes straight on
    if not host._pending:
        return now
    ((eligible, _, held),) = host._pending
    assert held is pkt and eligible > now
    return eligible


class TestEligiblePolicy:
    def test_paper_default_offset_is_20us(self):
        assert DEFAULT_OFFSET_NS == 20_000
        assert FabricParams().eligible_offset_ns == 20_000
        engine = Engine(0)
        assert Host(engine, "h0", 0, ADVANCED_2VC).eligible_offset_ns == 20_000
        assert eligible_at(DEFAULT_OFFSET_NS, deadline=100_000, now=0) == 80_000

    def test_eligible_is_deadline_minus_offset(self):
        assert eligible_at(5_000, deadline=100_000, now=0) == 95_000

    def test_never_in_the_past(self):
        assert eligible_at(5_000, deadline=3_000, now=1_000) == 1_000

    def test_disabled_policy_releases_immediately(self):
        assert FabricParams(eligible_offset_ns=None).eligible_offset_ns is None
        assert eligible_at(None, deadline=10**9, now=123) == 123

    def test_zero_offset_holds_until_deadline(self):
        assert eligible_at(0, deadline=500, now=0) == 500

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError, match="eligible-time offset must be an int >= 0"):
            FabricParams(eligible_offset_ns=-1)

    def test_enabled_flag(self):
        # Any offset, 0 included, smooths; None does not.
        assert eligible_at(0, deadline=700, now=200) == 700
        assert eligible_at(None, deadline=700, now=200) == 200

    @pytest.mark.parametrize("offset", [20_000.5, 20_000.0, True])
    def test_non_int_offset_rejected_at_construction(self, offset):
        # A float offset used to surface as a float engine time at the
        # first smoothed packet.
        with pytest.raises(ValueError, match=repr(offset)):
            FabricParams(eligible_offset_ns=offset)
