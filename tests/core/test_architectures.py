"""Tests for the architecture presets (Section 4.1's four configurations)."""

import pytest

from repro.core.architectures import (
    ADVANCED_2VC,
    ARCHITECTURES,
    IDEAL,
    SIMPLE_2VC,
    TRADITIONAL_2VC,
)
from repro.core.arbiter import EDFPicker, RoundRobinPicker
from repro.core.queues import EDFHeapQueue, FifoQueue, PacketQueue, TakeOverQueue


class TestPresetTable:
    def test_all_presets_exist(self):
        # The paper's four; the pipelined-heap realization of Ideal is
        # its test oracle (tests/core/pipelined_heap.py).
        assert set(ARCHITECTURES) == {
            "traditional-2vc",
            "ideal",
            "simple-2vc",
            "advanced-2vc",
        }

    @pytest.mark.parametrize(
        "arch,queue_cls,picker_cls,host_edf",
        [
            (TRADITIONAL_2VC, FifoQueue, RoundRobinPicker, False),
            (IDEAL, EDFHeapQueue, EDFPicker, True),
            (SIMPLE_2VC, FifoQueue, EDFPicker, True),
            (ADVANCED_2VC, TakeOverQueue, EDFPicker, True),
        ],
    )
    def test_preset_components(self, arch, queue_cls, picker_cls, host_edf):
        assert type(arch.queue_factory()) is queue_cls
        assert type(arch.picker_factory()) is picker_cls
        assert arch.host_edf is host_edf

    def test_only_traditional_masks_credits(self):
        # The appendix's proof requires the EDF architectures to check
        # credits on the single chosen candidate only.
        assert TRADITIONAL_2VC.credit_masking is True
        assert IDEAL.credit_masking is False
        assert SIMPLE_2VC.credit_masking is False
        assert ADVANCED_2VC.credit_masking is False

    def test_queue_factory_respects_capacity(self):
        # Buffer capacity is the link's credits, not a queue option: the
        # factory takes no argument and returns a fresh, empty queue.
        for arch in ARCHITECTURES.values():
            with pytest.raises(TypeError):
                arch.queue_factory(4096)
            q = arch.queue_factory()
            assert isinstance(q, PacketQueue) and q is not arch.queue_factory()
            assert len(q) == 0 and q.front is None
        assert type(ADVANCED_2VC.queue_factory()) is TakeOverQueue

    def test_pickers_are_fresh_instances(self):
        # Round-robin pointers are per output port; sharing one picker
        # across ports would corrupt rotation state.
        a = TRADITIONAL_2VC.picker_factory()
        b = TRADITIONAL_2VC.picker_factory()
        assert a is not b

    def test_labels_match_paper_figures(self):
        assert TRADITIONAL_2VC.label == "Traditional 2 VCs"
        assert IDEAL.label == "Ideal"
        assert SIMPLE_2VC.label == "Simple 2 VCs"
        assert ADVANCED_2VC.label == "Advanced 2 VCs"


class TestLookup:
    """Callers index :data:`ARCHITECTURES` by name; a name arrives from the
    CLI (whose ``choices`` refuse a typo) or from an ``ExperimentConfig``."""

    def test_get_architecture(self):
        assert ARCHITECTURES["ideal"] is IDEAL
        assert all(arch.name == name for name, arch in ARCHITECTURES.items())

    def test_unknown_name_lists_known(self):
        from repro.experiments.config import ExperimentConfig

        with pytest.raises(ValueError, match="unknown architecture 'nope'.*advanced-2vc"):
            ExperimentConfig(architecture="nope")
