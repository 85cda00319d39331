"""Tests for eligible-time smoothing.

The rule -- eligible at ``max(deadline - offset, now)``, at once with no
offset -- is applied by ``Host.submit_message``; these submit one-packet
messages on a frame flow whose target latency puts the deadline exactly
where each case needs it.
"""

import pytest

from repro.constants import VC_REGULATED
from repro.core.architectures import ADVANCED_2VC
from repro.core.eligible import DEFAULT_OFFSET_NS, EligiblePolicy
from repro.core.flow import FlowKind, FlowRegistry
from repro.network.host import Host
from repro.sim.engine import Engine


def eligible_at(policy, *, deadline, now):
    """The eligible time a host with ``policy`` gives a smoothed packet
    stamped with ``deadline`` at ``now``."""
    host = Host(Engine(now), "h0", 0, ADVANCED_2VC, eligible_policy=policy)
    flow = FlowRegistry().create(
        0, 1, "video", FlowKind.FRAME, VC_REGULATED,
        target_latency_ns=deadline - now, smoothing=True,
    )
    (pkt,) = host.submit_message(flow, 100)
    assert pkt.deadline == deadline
    return pkt.eligible


class TestEligiblePolicy:
    def test_paper_default_offset_is_20us(self):
        assert DEFAULT_OFFSET_NS == 20_000
        assert EligiblePolicy().offset_ns == 20_000

    def test_eligible_is_deadline_minus_offset(self):
        policy = EligiblePolicy(5_000)
        assert eligible_at(policy, deadline=100_000, now=0) == 95_000

    def test_never_in_the_past(self):
        policy = EligiblePolicy(5_000)
        assert eligible_at(policy, deadline=3_000, now=1_000) == 1_000

    def test_disabled_policy_releases_immediately(self):
        policy = EligiblePolicy(None)
        assert policy.offset_ns is None
        assert eligible_at(policy, deadline=10**9, now=123) == 123

    def test_zero_offset_holds_until_deadline(self):
        policy = EligiblePolicy(0)
        assert eligible_at(policy, deadline=500, now=0) == 500

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            EligiblePolicy(-1)

    def test_enabled_flag(self):
        # Any offset, 0 included, smooths; None does not.
        assert eligible_at(EligiblePolicy(0), deadline=700, now=200) == 700
        assert eligible_at(EligiblePolicy(None), deadline=700, now=200) == 200

    @pytest.mark.parametrize("offset", [20_000.5, 20_000.0, True])
    def test_non_int_offset_rejected_at_construction(self, offset):
        # A float offset used to surface as a float engine time at the
        # first smoothed packet.
        with pytest.raises(ValueError, match=repr(offset)):
            EligiblePolicy(offset)
