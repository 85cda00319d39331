#!/usr/bin/env python
"""One converged network instead of three: the paper's motivating scenario.

The introduction's motivation is machines like MareNostrum that ran
*three* physical networks -- one for parallel-application traffic, one
for storage, one for management -- because a single conventional network
cannot keep control latency low while bulk traffic saturates it.

This example runs the full Table 1 workload (control + video +
best-effort + background, 25% each) at 100% load over one network, under
a conventional two-VC switch and under the paper's Advanced 2 VCs
architecture, and prints what each class experiences.

Run:  python examples/mixed_datacenter.py        (~1 minute)
"""

from repro.exec import execute_config
from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.sim import units

LOAD = 1.0
TIME_SCALE = 0.02  # video compressed 50x so the demo finishes quickly


def run(arch: str):
    return execute_config(
        ExperimentConfig(
            architecture=arch,
            load=LOAD,
            seed=42,
            topology="small",  # 32 hosts, full bisection
            warmup_ns=1_100 * units.US,
            measure_ns=1_500 * units.US,
            mix=scaled_video_mix(LOAD, TIME_SCALE),
        )
    )


print(f"Table 1 workload at {LOAD:.0%} load on 32 hosts; video time-scale {TIME_SCALE}.\n")
results = {}
for arch in ("traditional-2vc", "advanced-2vc"):
    results[arch] = run(arch)
    print(results[arch].table())
    print()

traditional = results["traditional-2vc"]
advanced = results["advanced-2vc"]

ctrl_factor = (
    traditional.get("control").message_latency.mean
    / advanced.get("control").message_latency.mean
)
video_target = round(10 * units.MS * TIME_SCALE)
video_err = advanced.get("multimedia").message_latency.mean / video_target

be = advanced.throughput("best-effort")
bg = advanced.throughput("background")

print("What the deadline architecture buys on ONE converged network:")
print(f"  - control latency improves {ctrl_factor:.1f}x vs the conventional switch;")
print(f"  - video frames land at {video_err:.2f}x their latency target;")
print(f"  - best-effort classes split leftover bandwidth by weight (2:1 -> {be / bg:.2f}:1).")
print("\nSame switches, same two VCs, same buffers -- only the scheduling differs.")
