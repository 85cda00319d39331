"""A cost tripwire for a packet hop that reads no clock.

Every figure the paper draws is a steady-state average over packet hops,
and what a hop costs in CPython is, to first order, how many
Python-level calls it makes: a link transmit, the arbitration that chose
the packet, the queue operations, the credit return, the delivery.  This
runs the Table 1 mix (video compressed 50x) at load 0.9 on ``small``,
seed 1, 50 us of warm-up and a 250 us window, under ``cProfile`` and
divides the profiler-visible calls (Python frames and C functions alike,
fabric construction and traffic setup included) by the link transmits.
The figure is exact at a fixed seed, so a helper called per hop, or a
frame put back between the switch and its link, fails here instead of
waiting for a benchmark.

Measured on CPython 3.11 at commit ``709ea12``: 73.4 calls per transmit
(``advanced-2vc``) and 75.9 (``traditional-2vc``).  With the credit
arithmetic, the serialization time, the head comparisons and the queue
byte accounting done where the hop already is (docs/ARCHITECTURE.md
section 10, "Hot-path call shape"): 61.6 and 63.4.  With a packet's two
ends and every wake-up in fewer frames (a link's re-poll is the
arbitration, one stamp per message, one frame per mint and per delivery
record, the arrival scheduled as the receiver's ``accept``): 49.9 and
52.1.  The ceilings are those figures + 10 %.

:func:`test_packet_ends_call_shape` pins that shape by name, so a
per-packet stamp, a second frame per delivery record or a wrapper around
the arbitration comes back as a named failure.
"""

import cProfile
from functools import lru_cache

import pytest

from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.runner import run_experiment
from repro.sim import units


@lru_cache(maxsize=2)
def _profiled_run(architecture: str):
    """``(transmits, packets, delivered, calls by (file below repro/,
    qualname), total calls)``; cached, so each architecture runs once."""
    config = ExperimentConfig(
        architecture=architecture,
        load=0.9,
        seed=1,
        topology="small",
        warmup_ns=50 * units.US,
        measure_ns=250 * units.US,
        mix=scaled_video_mix(0.9, 0.02),
    )
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_experiment(config)
    profiler.disable()
    calls = {}
    total = 0
    for entry in profiler.getstats():
        total += entry.callcount
        code = entry.code
        if isinstance(code, str) or "/repro/" not in code.co_filename:
            continue
        key = (
            code.co_filename.rsplit("/repro/", 1)[1],
            getattr(code, "co_qualname", code.co_name),
        )
        calls[key] = calls.get(key, 0) + entry.callcount
    fabric = result.fabric
    transmits = sum(link.packets_carried for link in fabric.links.values())
    packets = sum(host.packets_submitted for host in fabric.hosts)
    delivered = sum(host.packets_received for host in fabric.hosts)
    return transmits, packets, delivered, calls, total


def _calls_per_transmit(architecture: str) -> float:
    transmits, _packets, _delivered, _calls, total = _profiled_run(architecture)
    assert transmits > 30_000  # enough hops that set-up is a small share of the calls
    return total / transmits


@pytest.mark.parametrize(
    "architecture,ceiling",
    [
        pytest.param("advanced-2vc", 54.9, id="advanced-2vc"),
        pytest.param("traditional-2vc", 57.3, id="traditional-2vc"),
    ],
)
def test_profiler_visible_calls_per_transmit(architecture, ceiling):
    calls = _calls_per_transmit(architecture)
    assert calls <= ceiling, (
        f"{architecture}: {calls:.1f} profiler-visible calls per link transmit, "
        f"ceiling {ceiling}"
    )


@pytest.mark.parametrize("architecture", ["advanced-2vc", "traditional-2vc"])
def test_packet_ends_call_shape(architecture):
    _transmits, packets, delivered, calls, _total = _profiled_run(architecture)
    messages = calls[("network/host.py", "Host.submit_message")]

    def called(path, *names):
        return sum(calls.get((path, name), 0) for name in names)

    # Source end: one stamp per message, one frame per packet minted.
    assert called("core/deadline.py", "RateBasedStamper.stamp_message") + called(
        "core/deadline.py", "FrameBasedStamper.stamp_message"
    ) == messages
    assert called(
        "core/deadline.py", "DeadlineStamper._advance", "RateBasedStamper.stamp",
        "FrameBasedStamper.stamp", "DeadlineStamper.stamp_message",
    ) == 0
    assert called("network/packet.py", "PacketFactory.mint") == packets
    assert called("network/packet.py", "Packet.__init__") == 0
    # Sink end: the collector's record is the only stats frame per
    # delivered packet (no reservoir fills up in this window).
    recording = {
        name: count
        for (path, name), count in calls.items()
        if path.startswith("stats/") and not name.endswith(("__init__", ".finalize"))
    }
    assert recording == {"MetricsCollector.on_delivery": delivered}
    # Wake-ups: a link's re-poll enters the arbitration or the injection
    # itself, and the arrival is the receiver's accept.
    assert called("network/switch.py", "Switch.pull") == 0
    assert called("network/host.py", "Host.pull", "Host._inject") == 0
    assert called("network/link.py", "Link._deliver", "Link.return_credit") == 0
    assert called("network/fabric.py", "Fabric._dispatch_delivery") == 0
