"""Test oracle: the dense VOQ table, as every switch built it before a
VOQ was created by the first ``accept`` that needs it.

:func:`materialise_every_voq` fills every ``(in, out, VC)`` slot of every
switch of a built fabric with a real queue, through the public
``Switch.voq`` accessor.  A dense fabric must behave exactly like the
sparse one it was made from: the fabric fuzzer replays every scenario
both ways, and ``tests/network/test_voq_differential.py`` requires
byte-identical run artifacts.
"""

from __future__ import annotations

from repro.network.fabric import Fabric

__all__ = ["materialise_every_voq"]


def materialise_every_voq(fabric: Fabric) -> Fabric:
    for switch in fabric.switches.values():
        ports = range(switch.n_ports)
        for in_port in ports:
            for out_port in ports:
                for vc in range(switch.n_vcs):
                    switch.voq(in_port, out_port, vc)
        assert switch.voq_count() == switch.n_ports * switch.n_ports * switch.n_vcs
    return fabric
