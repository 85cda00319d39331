"""Tests for the scheduling-cost instrumentation."""

import pytest

from repro.analysis.cost import (
    CostCounters,
    instrument_architecture,
    measure_scheduling_cost,
    static_inventory,
)
from repro.core.architectures import (
    ADVANCED_2VC,
    IDEAL,
    SIMPLE_2VC,
    TRADITIONAL_2VC,
)
from tests.helpers import mkpkt


class TestCountingShims:
    def test_queue_ops_counted(self):
        arch, counters = instrument_architecture(ADVANCED_2VC)
        queue = arch.make_queue(None)
        queue.push(mkpkt(10))
        queue.push(mkpkt(5))
        queue.pop()
        assert counters.queue_pushes == 2
        assert counters.queue_pops == 1
        assert counters.queue_comparisons == 3  # 1 per push, 1 per pop

    def test_fifo_costs_nothing(self):
        arch, counters = instrument_architecture(TRADITIONAL_2VC)
        queue = arch.make_queue(None)
        for d in (3, 1, 2):
            queue.push(mkpkt(d))
        queue.pop()
        assert counters.queue_comparisons == 0

    def test_heap_cost_grows_logarithmically(self):
        arch, counters = instrument_architecture(IDEAL)
        queue = arch.make_queue(None)
        for d in range(64):
            queue.push(mkpkt(d))
        per_push = counters.queue_comparisons / counters.queue_pushes
        assert 1.0 <= per_push <= 7.0  # log2-ish, definitely not O(1)

    def test_counting_queue_preserves_behaviour(self):
        arch, _ = instrument_architecture(ADVANCED_2VC)
        queue = arch.make_queue(None)
        queue.push(mkpkt(100))
        queue.push(mkpkt(50))  # take-over
        assert queue.head().deadline == 50
        assert queue.pop().deadline == 50
        assert len(queue) == 1
        assert queue.used_bytes == 256

    def test_edf_picker_comparisons(self):
        arch, counters = instrument_architecture(SIMPLE_2VC)
        queues = [arch.make_queue(None) for _ in range(4)]
        for i, q in enumerate(queues[:3]):  # one queue left empty
            q.push(mkpkt(10 + i))
        picker = arch.make_picker()
        index = picker.pick(queues, [0, 1, 2])
        assert index == 0
        assert counters.arbiter_picks == 1
        assert counters.arbiter_comparisons == 2  # 3 live heads -> 2 compares

    def test_rr_picker_comparisons_zero(self):
        arch, counters = instrument_architecture(TRADITIONAL_2VC)
        queues = [arch.make_queue(None) for _ in range(4)]
        queues[2].push(mkpkt(1))
        picker = arch.make_picker()
        assert picker.pick(queues, [2]) == 2
        assert counters.arbiter_comparisons == 0

    def test_granted_passthrough(self):
        arch, _ = instrument_architecture(TRADITIONAL_2VC)
        queues = [arch.make_queue(None) for _ in range(2)]
        queues[0].push(mkpkt(1))
        queues[1].push(mkpkt(1))
        picker = arch.make_picker()
        assert picker.pick(queues, [0, 1]) == 0
        picker.granted(0)
        assert picker.pick(queues, [0, 1]) == 1  # rotation advanced in the inner RR


class TestStaticInventory:
    def test_traditional(self):
        inv = static_inventory(TRADITIONAL_2VC, radix=16)
        assert inv.fifo_memories == 2
        assert not inv.needs_sorting_hardware
        assert inv.arbiter_comparators_per_port == 0

    def test_advanced_doubles_fifos_only(self):
        trad = static_inventory(TRADITIONAL_2VC, radix=16)
        adv = static_inventory(ADVANCED_2VC, radix=16)
        assert adv.fifo_memories == 2 * trad.fifo_memories
        assert not adv.needs_sorting_hardware
        assert adv.arbiter_comparators_per_port == 15

    def test_ideal_needs_sorting_hardware(self):
        assert static_inventory(IDEAL, radix=16).needs_sorting_hardware

    def test_no_architecture_keeps_flow_state(self):
        for arch in (TRADITIONAL_2VC, IDEAL, SIMPLE_2VC, ADVANCED_2VC):
            assert static_inventory(arch, 16).per_flow_state is False


class TestMeasuredCost:
    @pytest.fixture(scope="class")
    def reports(self):
        from repro.experiments.config import scaled_video_mix

        return {
            name: measure_scheduling_cost(
                arch,
                horizon_ns=200_000,
                mix_config=scaled_video_mix(0.8, 0.02),
            )
            for name, arch in (
                ("traditional", TRADITIONAL_2VC),
                ("simple", SIMPLE_2VC),
                ("advanced", ADVANCED_2VC),
                ("ideal", IDEAL),
            )
        }

    def test_cost_ordering_matches_paper(self, reports):
        """Traditional < Simple < Advanced < Ideal in scheduling work --
        and only Ideal needs content-sorted buffers."""
        cost = {k: r.comparisons_per_packet for k, r in reports.items()}
        assert cost["traditional"] == 0.0
        assert cost["traditional"] < cost["simple"] < cost["advanced"] < cost["ideal"]

    def test_all_forwarded_similar_traffic(self, reports):
        counts = [r.packets_forwarded for r in reports.values()]
        assert min(counts) > 0.7 * max(counts)

    def test_per_packet_cost_is_small_constant_for_fifo_designs(self, reports):
        """The implementability claim: the deployable designs pay a few
        comparisons per packet, independent of buffer occupancy."""
        assert reports["simple"].comparisons_per_packet < 4
        assert reports["advanced"].comparisons_per_packet < 8

    def test_counts_match_the_polling_arbiter(self, reports):
        """The picker shim prices an EDF grant from the length of the
        backlogged list it is handed; these are the counts it produced
        when it polled every head itself, on this same config."""
        measured = {
            name: (
                report.packets_forwarded,
                report.counters.queue_comparisons,
                report.counters.arbiter_comparisons,
            )
            for name, report in reports.items()
        }
        assert measured == {
            "traditional": (7539, 0, 0),
            "simple": (9109, 0, 4468),
            "advanced": (9133, 18498, 4790),
            "ideal": (9134, 30971, 4778),
        }

    def test_report_rows_render(self, reports):
        row = reports["advanced"].row()
        assert row[0] == "advanced-2vc"
        assert isinstance(row[2], float)
