"""A cost tripwire for ``Fabric.open_flow`` that reads no clock.

Every flow a run touches pays one open, and on a cold 512-host run the
opens are a third of the host time (docs/ARCHITECTURE.md, "Opening a
flow costs what it decides").  What an open costs is, to first order, how
many Python-level calls it makes -- so this counts them: a seeded
sequence of opens under ``cProfile``, profiler-visible calls (Python
frames and C functions alike) divided by opens.  The figure is exact at a
fixed seed, so one more generator frame per open, or a helper called per
link or per candidate, fails here instead of waiting for a benchmark.

The ceilings are the measured figures (35.6 on ``scale512``, 25.0 on
``paper``; CPython 3.11) + 10 %; before ISSUE 24 the same sequences read
92.0 and 53.0.  Most of what is left is one ``len`` per candidate -- 16
and 8 of them -- in ``AdmissionController._least_loaded``.
"""

import cProfile
import pstats
import random

import pytest

from repro.core.deadline import RateBasedStamper
from repro.core.flow import FlowKind
from repro.experiments.presets import make_topology
from repro.network.fabric import Fabric

#: ``open_flow`` keywords in about the proportions the Table 1 mix opens
#: them (best-effort, background, control, multimedia); the last two leave
#: ``vc`` to the traffic class, as their sources do.
_KINDS = (
    (0.39, "best-effort", {"kind": FlowKind.RATE, "vc": 1, "bw_bytes_per_ns": 1 / 3}),
    (0.37, "background", {"kind": FlowKind.RATE, "vc": 1, "bw_bytes_per_ns": 1 / 6}),
    (0.16, "control", {"kind": FlowKind.CONTROL}),
    # reserved: small enough that no host's links fill
    (0.08, "multimedia", {"kind": FlowKind.FRAME, "bw_bytes_per_ns": 0.004,
                          "target_latency_ns": 200_000, "smoothing": True}),
)


def _calls_per_open(preset: str, n_opens: int) -> float:
    fabric = Fabric(make_topology(preset))
    n_hosts = fabric.topology.n_hosts
    rng = random.Random(24)
    shared = RateBasedStamper(1.0)  # a per-host record, as the mix's sources share
    opens = []
    for _ in range(n_opens):
        src = rng.randrange(n_hosts)
        dst = rng.randrange(n_hosts - 1)
        _, tclass, kwargs = rng.choices(_KINDS, weights=[k[0] for k in _KINDS])[0]
        stamper = None if tclass == "multimedia" else shared
        opens.append((src, dst + (dst >= src), tclass, dict(kwargs, stamper=stamper)))
    profiler = cProfile.Profile()
    profiler.enable()
    for src, dst, tclass, kwargs in opens:
        fabric.open_flow(src, dst, tclass, **kwargs)
    profiler.disable()
    assert len(fabric.flows) == n_opens
    assert fabric.admission.reservation_count > n_opens // 20
    return pstats.Stats(profiler).total_calls / n_opens


@pytest.mark.parametrize(
    "preset,n_opens,ceiling",
    [
        pytest.param("scale512", 18_000, 39.2, id="scale512"),
        pytest.param("paper", 36_000, 27.5, id="paper"),
    ],
)
def test_profiler_visible_calls_per_open(preset, n_opens, ceiling):
    calls = _calls_per_open(preset, n_opens)
    assert calls <= ceiling, (
        f"{preset}: {calls:.1f} profiler-visible calls per open_flow, ceiling {ceiling}"
    )
