#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from live simulation runs.

Usage::

    python scripts/generate_experiments_md.py [--topology small] [--paper-scale]
        [--jobs N] [--cache-dir DIR] [--out EXPERIMENTS.md]

*Declare -> check -> run -> render.*  :func:`declare` names every simulated
point as ``(section, label) -> ExperimentConfig``: the 4 x 5 figure sweep,
the ablation grids, the Section 6 "many more VCs" counterfactual, the
telemetry rows and (``--paper-scale``) one full-load point per architecture
on the 128-endpoint network.  ``main`` checks the arguments, opens ``--out``
and runs the set as one :class:`~repro.exec.executor.SweepExecutor` batch
(duplicates coalesce by digest; ``--jobs N`` is a process pool, ``--cache-dir``
replays finished points); :func:`render` only reads summaries, so a warm
re-run writes the bytes of the cold one.  ~2 minutes at ``small``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Tuple

from repro.analysis import measure_scheduling_cost
from repro.cli.common import add_sweep_args
from repro.core.architectures import ARCHITECTURES
from repro.exec.digest import config_digest
from repro.exec.executor import SweepExecutor
from repro.exec.summary import RunSummary
from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.figures import (
    DEFAULT_ARCHS,
    fig2_control,
    fig3_video,
    fig4_best_effort,
    order_error_penalties,
    run_points,
)
from repro.experiments.presets import TOPOLOGY_PRESETS
from repro.network.fabric import FabricParams
from repro.sim import units
from repro.traffic.mix import CLASS_NAMES

TIME_SCALE = 0.02
WARMUP_NS = 1_100 * units.US
MEASURE_NS = 1_600 * units.US
OBS_WARMUP_NS = 200 * units.US
OBS_MEASURE_NS = 600 * units.US
LOADS = (0.2, 0.4, 0.6, 0.8, 1.0)
TARGET_NS = round(10 * units.MS * TIME_SCALE)
#: The paper's +/-1 ms at the unscaled target: an absolute queueing band.
BAND_NS = 150 * units.US
SMOOTHED_NS = 20 * units.US
EDF_ARCHS = ("ideal", "simple-2vc", "advanced-2vc")
#: One strict-priority VC per Table 1 class, latency-critical first.
VC_MAP = {"control": 0, "multimedia": 1, "best-effort": 2, "background": 3}
#: The section whose points run with ``collect_obs=True``.
TELEMETRY = "telemetry"

Key = Tuple[str, object]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--topology", default="small", choices=sorted(TOPOLOGY_PRESETS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--paper-scale", action="store_true",
                        help="also run one full-load point on the 128-endpoint network")
    add_sweep_args(parser)  # --jobs, --cache-dir
    parser.add_argument("--out", default="EXPERIMENTS.md")
    return parser


def declare(topology: str, seed: int, paper_scale: bool = False) -> Dict[Key, ExperimentConfig]:
    """Every simulated point of the record, by (section, label).

    Sections are DESIGN.md section 5's experiment ids where a row has points
    of its own; ``sweep`` is the grid Figures 2-4 and both claims read.
    """

    def point(arch, load=1.0, *, topology=topology, windows=(WARMUP_NS, MEASURE_NS),
              vc_map=None, **params):
        return ExperimentConfig(
            architecture=arch, load=load, seed=seed, topology=topology,
            warmup_ns=windows[0], measure_ns=windows[1],
            mix=scaled_video_mix(load, TIME_SCALE, vc_map=vc_map),
            params=FabricParams(**params),
        )

    points: Dict[Key, ExperimentConfig] = {
        ("sweep", (arch, load)): point(arch, load) for arch in DEFAULT_ARCHS for load in LOADS
    }
    for buf in (8 * units.KB, 32 * units.KB):
        for offset in (SMOOTHED_NS, None):
            for arch in EDF_ARCHS:
                points["abl-order-error", (buf, offset, arch)] = point(
                    arch, buffer_bytes_per_vc=buf, eligible_offset_ns=offset)
    for offset in (None, SMOOTHED_NS):
        for load in (0.4, 1.0):
            points["abl-eligible", (offset, load)] = point(
                "advanced-2vc", load, eligible_offset_ns=offset)
    for size in (4 * units.KB, 8 * units.KB, 32 * units.KB):
        points["abl-buffer", size] = point(
            "advanced-2vc", buffer_bytes_per_vc=size, host_buffer_bytes_per_vc=size)
    points["vc-count", "traditional-2vc"] = point("traditional-2vc")
    points["vc-count", "traditional-4vc"] = point("traditional-2vc", vc_map=VC_MAP, n_vcs=4)
    points["vc-count", "advanced-2vc"] = point("advanced-2vc")
    for arch in DEFAULT_ARCHS:
        points[TELEMETRY, arch] = point(arch, windows=(OBS_WARMUP_NS, OBS_MEASURE_NS))
        if paper_scale:
            points["paper-scale", arch] = point(arch, topology="paper")
    return points


def control_mean(result: RunSummary) -> float:
    return result.get("control").message_latency.mean


def be_bg(result: RunSummary) -> float:
    background = result.throughput("background")
    return result.throughput("best-effort") / background if background else float("inf")


def spread_5_95(result: RunSummary) -> float:
    cdf = result.get("multimedia").message_cdf()
    return cdf.quantile(0.95) - cdf.quantile(0.05)


def md_table(headers: List[str], rows: List[List[object]]) -> List[str]:
    """A markdown table and the blank line that ends it."""
    lines = ["| " + " | ".join(headers) + " |", "|---" * len(headers) + "|"]
    return lines + ["| " + " | ".join(str(cell) for cell in row) + " |" for row in rows] + [""]


def fenced(text: str) -> List[str]:
    return ["```", text, "```", ""]


def offset_label(offset_ns) -> str:
    return "off" if offset_ns is None else f"{offset_ns // 1000} us"


def render(args, points: Dict[Key, ExperimentConfig], results: Dict[Key, RunSummary], cost) -> str:
    def section(name):
        return {label: results[sec, label] for sec, label in points if sec == name}

    sweep = section("sweep")
    fig2 = fig2_control(DEFAULT_ARCHS, LOADS, results=sweep, cdf_points=8)
    fig3 = fig3_video(DEFAULT_ARCHS, LOADS, results=sweep, cdf_points=8)
    fig4 = fig4_best_effort(DEFAULT_ARCHS, LOADS, results=sweep)
    penalties = order_error_penalties(load=1.0, results=sweep)
    full = {arch: sweep[arch, 1.0] for arch in DEFAULT_ARCHS}
    distinct = {
        config_digest(config, collect_obs=key[0] == TELEMETRY): results[key]
        for key, config in points.items()
    }

    lines: List[str] = []
    w = lines.append
    w("# EXPERIMENTS — paper vs. measured")
    w("")
    w("Regenerated by `python scripts/generate_experiments_md.py`; every number")
    w("below comes from live runs of this repository (no hand-entered results).")
    w("")
    w(f"- Scale: `{args.topology}` preset ({full['ideal'].n_hosts} hosts, full-bisection folded MIN,")
    w("  same shape and per-port parameters as the paper's 128-endpoint network);")
    w(f"  video time-scale {TIME_SCALE} (frame period {round(40 * units.MS * TIME_SCALE) // 1000} us,")
    w(f"  frame-latency target {TARGET_NS // 1000} us — scale-free ratios are reported).")
    w(f"- Windows: {WARMUP_NS // 1000} us warm-up (covers the video ramp), "
      f"{MEASURE_NS // 1000} us measured; seed {args.seed}.")
    w(f"- Campaign: {len(points)} declared points, {len(distinct)} distinct (duplicates coalesce")
    w("  by config digest), one `SweepExecutor` batch; Section 6's instrumented cost")
    w("  runs are the only simulations outside it.")
    w(f"- Cost: {sum(r.events_executed for r in distinct.values()):,} simulated events, "
      f"{sum(r.wall_seconds for r in distinct.values()):.0f} s simulation wall clock.")
    w("")
    w("The authors' absolute numbers came from their in-house simulator at 128")
    w("hosts with real MPEG traces; what must reproduce is the *shape*: who wins,")
    w("by roughly what factor, and which architectures can differentiate.")
    w("")

    # ------------------------------------------------------------- fig 2
    w("## Figure 2 — Control traffic latency")
    w("")
    w("Paper: EDF-based architectures offer much better control latency than the")
    w("traditional 2-VC switch; `Simple` pays ~25% over `Ideal`, `Advanced` ~5%,")
    w("and the CDF maxima of `Ideal` and `Advanced` almost coincide.")
    w("")
    w("Measured (mean control-message latency relative to Ideal at 100% load):")
    w("")
    paper_factor = {"ideal": "1.00", "simple-2vc": "~1.25",
                    "advanced-2vc": "~1.05", "traditional-2vc": "(much worse)"}
    lines += md_table(["architecture", "paper", "measured"], [
        [ARCHITECTURES[arch].label, paper_factor[arch], f"x{penalties[arch]:.3f}"] for arch in penalties])
    p99 = {arch: full[arch].get("control").message_cdf().quantile(0.99) for arch in full}
    order = " ≤ ".join(ARCHITECTURES[arch].label for arch in sorted(penalties, key=penalties.get))
    w(f"Measured order: {order};")
    w(f"Advanced's control p99 is x{p99['advanced-2vc'] / p99['ideal']:.3f} of Ideal's.  Known deviation 3 and the")
    w("order-error grid under Ablations say where the paper's 25% / 5% magnitudes come from.")
    w("")
    lines += fenced(fig2.text())

    # ------------------------------------------------------------- fig 3
    w("## Figure 3 — Video (frame) latency")
    w("")
    w("Paper: with frame-based deadlines the average latency of video frames is")
    w("almost exactly the configured 10 ms target, with >99% of frames within")
    w("±1 ms; the traditional architecture's frame latency varies widely.")
    w("")
    w("Measured: mean frame latency over target across the five loads, and at 100% load")
    w(f"the share of frames within ±{BAND_NS // 1000} us of the target (an absolute queueing")
    w("band: the paper's ±1 ms at the unscaled 10 ms target), the 5–95% width of the")
    w("frame-latency CDF and the mean inter-frame jitter:")
    w("")
    rows = []
    for arch in DEFAULT_ARCHS:
        ratios = [sweep[arch, load].get("multimedia").message_latency.mean / TARGET_NS for load in LOADS]
        video = full[arch].get("multimedia")
        cdf = video.message_cdf()
        rows.append([
            ARCHITECTURES[arch].label, f"{min(ratios):.3f} – {max(ratios):.3f}",
            f"{cdf.prob_leq(TARGET_NS + BAND_NS) - cdf.prob_leq(TARGET_NS - BAND_NS):.3f}",
            f"{spread_5_95(full[arch]) / 1e3:.1f}", f"{video.jitter.mean / 1e3:.1f}"])
    lines += md_table(["architecture", "lat/target, all loads", f"within ±{BAND_NS // 1000} us",
                       "5–95% (us)", "jitter (us)"], rows)
    lines += fenced(fig3.text())

    # ------------------------------------------------------------- fig 4
    w("## Figure 4 — Best-effort class throughput")
    w("")
    w("Paper: under the traditional switch both best-effort classes 'look the")
    w("same ... and receive the same performance', while the EDF architectures")
    w("differentiate them by the bandwidth used to generate deadlines.")
    w("")
    w("Measured at 100% load: BE:BG delivered-throughput ratio (weights 2:1) and,")
    w("the flip side, what the admitted video class delivers of its nominal offer:")
    w("")
    lines += md_table(["architecture", "BE:BG", "multimedia delivered/offered"], [
        [ARCHITECTURES[arch].label, f"{be_bg(full[arch]):.2f}",
         f"{full[arch].normalized_throughput('multimedia'):.3f}"] for arch in DEFAULT_ARCHS])
    lines += fenced(fig4.text())

    # --------------------------------------------------------- ablations
    w("## Ablations")
    w("")
    w("**Order-error amplification** (`abl-order-error`).  Order errors need FIFO")
    w("*depth* (the paper's 8 KB/VC is four MTUs) and *burstiness* (Section 3.2:")
    w("\"especially if eligible time is not being used\").  Control latency relative")
    w("to Ideal at 100% load, per switch buffer and eligible-time offset:")
    w("")
    grid = section("abl-order-error")
    amplification = {
        (buf, offset): tuple(control_mean(grid[buf, offset, other]) / control_mean(ideal)
                             for other in ("simple-2vc", "advanced-2vc"))
        for (buf, offset, arch), ideal in grid.items() if arch == "ideal"
    }
    lines += md_table(["buffer/VC", "eligible offset", "Simple (paper ~1.25)", "Advanced (paper ~1.05)"], [
        [f"{buf // 1024} KB", offset_label(offset), f"x{simple:.3f}", f"x{advanced:.3f}"]
        for (buf, offset), (simple, advanced) in amplification.items()])
    w("**Eligible-time smoothing** (`abl-eligible`, Advanced 2 VCs).  Holding packets")
    w("until `deadline − offset` is what pins frame latency to the target instead of")
    w("to whatever the network delivers:")
    w("")
    rows = []
    for (offset, load), result in section("abl-eligible").items():
        video = result.get("multimedia")
        rows.append([offset_label(offset), load, f"{video.message_latency.mean / 1e3:.1f}",
                     f"{video.message_latency.mean / TARGET_NS:.3f}",
                     f"{video.jitter.mean / 1e3:.1f}", f"{control_mean(result) / 1e3:.2f}"])
    lines += md_table(["eligible offset", "load", "video frame mean (us)", "lat/target",
                       "jitter (us)", "control mean (us)"], rows)
    w("**Buffer per VC** (`abl-buffer`, Advanced 2 VCs, 100% load, switch and host):")
    w("")
    lines += md_table(["buffer/VC", "delivered, all classes (B/ns)", "control mean (us)"], [
        [f"{size // 1024} KB", f"{sum(result.throughput(c) for c in CLASS_NAMES):.2f}",
         f"{control_mean(result) / 1e3:.2f}"] for size, result in section("abl-buffer").items()])

    # -------------------------------------------------- section 6: cost
    w("## Section 6 — cost comparison")
    w("")
    w("Paper: \"the cost of these architectures is similar, except the Ideal")
    w("architecture\"; matching EDF with a conventional switch \"would require")
    w("many more VCs, but ... this is not affordable\".  Measured comparator")
    w("work per forwarded packet and per-port hardware (16-host run, full load):")
    w("")
    lines += md_table(
        ["architecture", "comparisons/pkt", "FIFO mems/port", "sorting HW", "arbiter comparators"],
        [[ARCHITECTURES[arch].label, f"{report.comparisons_per_packet:.2f}", report.inventory.fifo_memories,
          "yes" if report.inventory.needs_sorting_hardware else "no",
          report.inventory.arbiter_comparators_per_port] for arch, report in cost.items()])
    w("The deployable designs pay O(1) tag comparisons per packet; only Ideal")
    w("needs content-sorted buffers (the pipelined-heap hardware of the paper's")
    w("reference [9] — modeled in `repro.core.queues.pipelined_heap`, whose")
    w("settle window is timing-wise harmless: the objection is silicon, not speed).")
    w("")

    # ---------------------------------------- section 6: counterfactual
    w("## Section 6 counterfactual — \"many more VCs\"")
    w("")
    w("`vc-count`: a conventional FIFO/round-robin switch with four strict-priority")
    w("VCs, one per Table 1 class, beside the paper's two contenders at 100% load:")
    w("")
    cells = {}
    for name, result in section("vc-count").items():
        params = result.config.params
        cells[name] = [f"`{name}`", params.n_vcs, params.n_vcs * params.buffer_bytes_per_vc // 1024,
                       f"{control_mean(result) / 1e3:.2f}",
                       f"{result.get('multimedia').message_latency.mean / TARGET_NS:.2f}",
                       f"{spread_5_95(result) / 1e3:.1f}", f"{be_bg(result):.2f}"]
    lines += md_table(["variant", "VCs", "buffer KB/port", "control mean (us)", "video lat/target",
                       "video 5–95% (us)", "BE:BG"], list(cells.values()))
    two, four, advanced = (cells[name] for name in ("traditional-2vc", "traditional-4vc", "advanced-2vc"))
    w(f"A dedicated top VC takes control latency from {two[3]} to {four[3]} us (Advanced: {advanced[3]})")
    w(f"for {four[2]} KB of buffer per port instead of {two[2]}.  Video gets its own VC and is still")
    w(f"not paced: lat/target {four[4]} with a 5–95% width of {four[5]} us, against {advanced[4]} and")
    w(f"{advanced[5]} us.  Strict priority has no weights to honour: it splits the two best-effort")
    w(f"classes {four[6]} : 1, Advanced's 2 : 1 deadline weights give {advanced[6]} : 1.")
    w("")

    # ------------------------------------------------- run observability
    w("## Run telemetry (full load)")
    w("")
    w("One instrumented run per architecture (`repro.obs` metrics registry,")
    w(f"{OBS_WARMUP_NS // 1000} us warm-up + {OBS_MEASURE_NS // 1000} us measured): events dispatched, the")
    w("deepest VOQ the switches ever saw, and deadline misses per class.")
    w("A 'miss' is delivery-time slack < 0 on the *receiving host's* clock.")
    w("Deadlines here are scheduling tags, not admission guarantees, so at")
    w("100% load plenty of packets are served past their nominal tag in every")
    w("architecture; the QoS story is in the latency/jitter tables above.")
    w("The miss counters exist for regression tracking -- they are exactly")
    w("reproducible for a given seed, and a scheduling change that shifts who")
    w("gets served late shows up here first.")
    w("")
    rows = []
    for arch, result in section(TELEMETRY).items():
        metrics = result.obs["metrics"]
        rows.append([ARCHITECTURES[arch].label, f"{metrics['sim.engine.events_total']['value']:,}",
                     metrics["network.switch.queue_depth_packets"]["max"]]
                    + [metrics[f"network.host.class.{c}.deadline_miss_total"]["value"]
                       for c in CLASS_NAMES])
    lines += md_table(["architecture", "events", "peak VOQ depth",
                       "ctl miss", "mm miss", "be miss", "bg miss"], rows)
    w("Regenerate any row with full detail (histograms, heartbeat series):")
    w("`repro-qos run --arch <name> --load 1.0 --metrics-out snap.json` then")
    w("`repro-qos metrics snap.json`.")
    w("")

    # ------------------------------------------------ scale soundness
    w("## Scale soundness (SIM5xx dogfood)")
    w("")
    w("The SIM5xx lint pass flagged the telemetry heartbeat log")
    w("(`GaugeTimeSeries`) as unbounded hot growth: one row per heartbeat,")
    w("forever.  The fix makes it a keep-newest ring (evictions counted in")
    w("`dropped`).  Measured here with tracemalloc over a 200,000-heartbeat")
    w("horizon (three gauges per row):")
    w("")
    lines += md_table(["capacity", "rows kept", "rows dropped", "live MiB"], timeseries_retention())
    w("`repro-qos lint --project --select SIM5 src/` reports 0 findings;")
    w("the `scale512_cold` workload of `benchmarks/e2e` measures the budget")
    w("at 512 endpoints (4x the paper's fabric): `setup_s`, `peak_rss_mb`")
    w("and `pkts_per_s`, bounded in `BENCHMARK.json`.  A cold fabric")
    w("allocates what it touches (no VOQ exists before the first packet);")
    w("CI fails the workload above 160 MiB.")
    w("")

    # ------------------------------------------------------- paper scale
    if args.paper_scale:
        w("## Full paper scale (128 endpoints)")
        w("")
        w("One full-load point per architecture on the exact Section 4.1 network")
        w("(16 leaves x 8 hosts, 8 spines, radix-16):")
        w("")
        lines += md_table(
            ["architecture", "control mean (us)", "control p99 (us)", "video lat/target", "BE:BG"],
            [[ARCHITECTURES[arch].label, f"{control_mean(result) / 1e3:.2f}",
              f"{result.get('control').message_cdf().quantile(0.99) / 1e3:.2f}",
              f"{result.get('multimedia').message_latency.mean / TARGET_NS:.3f}",
              f"{be_bg(result):.2f}"] for arch, result in section("paper-scale").items()])

    # ------------------------------------------------------- deviations
    offered = [full[arch].normalized_throughput("multimedia") for arch in DEFAULT_ARCHS]
    gentle = amplification[8 * units.KB, SMOOTHED_NS]
    harsh = amplification[32 * units.KB, None]
    w("## Known deviations and why they are safe")
    w("")
    w("1. **Video traces**: synthetic GoP streams (I:P:B ≈ 5:3:1, lognormal")
    w("   variation, frames clipped to the paper's [1 KB, 120 KB]) instead of")
    w("   MPEG-4 files.  The deadline algorithm only sees frame sizes and")
    w("   times; clipping the I-frames costs the class part of its nominal")
    w(f"   load: multimedia delivered/offered is {min(offered):.3f}–{max(offered):.3f} (Figure 4).")
    w("2. **Video time-scale**: frame period and latency target compressed by")
    w(f"   {TIME_SCALE} (rates scaled up to match) so Python-speed windows hold")
    w("   many frames.  All deadline *relationships* are preserved; dispersion")
    w("   around the target is absolute network queueing (Figure 3's 5–95% and")
    w("   jitter columns), which does not grow with the paper's real 10 ms target.")
    w("3. **Order-error magnitude**: the paper's +25%/+5% penalties were")
    w("   measured at 128 hosts with their workload.  Order errors grow with")
    w("   FIFO depth x source burstiness: in the `abl-order-error` grid above,")
    w(f"   Simple pays x{gentle[0]:.3f} and Advanced x{gentle[1]:.3f} at the paper's 8 KB with")
    w(f"   smoothing on, x{harsh[0]:.3f} and x{harsh[1]:.3f} with 32 KB buffers and smoothing off.")
    w("4. **Best-effort calibration**: heavy-tailed gap generators overshoot")
    w("   nominal load over short windows, so the self-similar sources use")
    w("   burst-compensating gaps (heavy-tailed ON periods, exact mean rate);")
    w("   see `repro/traffic/selfsimilar.py`.")
    return "\n".join(lines) + "\n"


def timeseries_retention() -> List[List[object]]:
    """Live memory of the heartbeat log, unbounded vs. the shipped ring."""
    import tracemalloc

    from repro.obs.telemetry import RunTelemetry
    from repro.stats.timeseries import GaugeTimeSeries

    gauge_row = {
        "sim.engine.events_per_sec": 1.0,
        "sim.engine.heap_depth_events": 2.0,
        "sim.fabric.voq_occupancy_packets": 3.0,
    }
    rows = []
    for capacity in (None, RunTelemetry.TIMESERIES_CAPACITY):
        tracemalloc.start()
        series = GaugeTimeSeries(capacity=capacity)
        for tick in range(200_000):
            series.append(tick * 1000, gauge_row)
        live_bytes, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        label = "unbounded (before)" if capacity is None else f"{capacity:,} ring (after)"
        # whole MiB: the byte count moves by a few KB with the interpreter's free
        # lists, i.e. with whether this process simulated or replayed the cache
        rows.append([label, f"{len(series):,}", f"{series.dropped:,}", round(live_bytes / 2**20)])
    return rows


def main() -> int:
    parser = build_parser()
    args = parser.parse_args()
    points = declare(args.topology, args.seed, args.paper_scale)
    # Check: whatever can refuse the arguments does so before a point runs.
    try:
        bare, observed = (
            SweepExecutor(jobs=args.jobs, cache_dir=args.cache_dir, collect_obs=collect_obs)
            for collect_obs in (False, True)
        )
        out = open(args.out, "w", encoding="utf-8")
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    with out:
        t0 = time.time()
        print(f"running {len(points)} declared points on '{args.topology}' "
              f"(jobs={args.jobs}) ...", file=sys.stderr)
        results = run_points({k: c for k, c in points.items() if k[0] != TELEMETRY}, bare)
        # the telemetry rows' obs snapshot is part of their digest: own executor
        results.update(run_points({k: c for k, c in points.items() if k[0] == TELEMETRY}, observed))
        tasks, cached, executed = (
            bare.stats()[name] + observed.stats()[name] for name in ("tasks", "cache_hits", "executed")
        )
        print(f"[campaign: {tasks} points, {cached} cached, {executed} executed, "
              f"jobs={args.jobs}] in {time.time() - t0:.0f}s", file=sys.stderr)
        # Section 6's comparator counts come from an architecture wrapped in
        # counting shims (`instrument_architecture`): not a named preset, and
        # its counters are not in RunSummary, so these four short 16-host
        # runs are the one thing simulated outside the batch.
        print("measuring scheduling cost ...", file=sys.stderr)
        cost = {
            arch: measure_scheduling_cost(
                ARCHITECTURES[arch], seed=args.seed, horizon_ns=600 * units.US,
                mix_config=scaled_video_mix(1.0, TIME_SCALE))
            for arch in ("traditional-2vc", "simple-2vc", "advanced-2vc", "ideal")
        }
        out.write(render(args, points, results, cost))
    print(f"wrote {args.out} in {time.time() - t0:.0f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
