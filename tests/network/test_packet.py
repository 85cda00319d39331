"""Tests for the packet header model."""

import pytest

import repro.network.packet as packet_module
from repro.network.packet import Packet, PacketFactory, VC_BEST_EFFORT, VC_REGULATED
from tests.helpers import mkpkt


class TestConstruction:
    def test_uids_are_globally_unique_and_increasing(self):
        a, b, c = mkpkt(1), mkpkt(1), mkpkt(1)
        assert a.uid < b.uid < c.uid

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            mkpkt(1, size=0)

    def test_invalid_vc(self):
        with pytest.raises(ValueError):
            mkpkt(1, vc=-1)
        mkpkt(1, vc=3)  # multi-VC fabrics allow higher indices

    def test_vc_constants(self):
        assert VC_REGULATED == 0
        assert VC_BEST_EFFORT == 1

    def test_defaults(self):
        pkt = mkpkt(42)
        assert pkt.hop == 0
        assert pkt.inject is None
        assert pkt.deliver is None
        assert pkt.msg_parts == 1


def _mint(factory, **overrides):
    fields = dict(
        flow_id=1, seq=0, tclass="control", vc=0, src=0, dst=1,
        size=64, deadline=100, path=(0,),
    )
    fields.update(overrides)
    return factory.mint(**fields)


class TestPacketFactory:
    def test_uids_start_at_one_per_factory(self):
        # Per-factory minting is what makes uid streams reproducible:
        # the old module-global counter leaked across runs in a process.
        a = PacketFactory()
        b = PacketFactory()
        assert [_mint(a).uid, _mint(a).uid] == [1, 2]
        assert _mint(b).uid == 1

    def test_pooled_instance_is_reinitialized(self):
        factory = PacketFactory(pooling=True)
        first = _mint(factory, size=64, deadline=10)
        first.hop = 3
        factory.recycle(first)
        second = _mint(factory, size=128, deadline=20)
        assert second is first  # storage reused ...
        assert second.uid == 2  # ... identity is not
        assert second.size == 128
        assert second.deadline == 20
        assert second.hop == 0

    def test_pooling_off_never_retains(self):
        factory = PacketFactory()
        pkt = _mint(factory)
        factory.recycle(pkt)
        assert factory.pooled == 0
        assert _mint(factory) is not pkt

    def test_free_list_is_conserved_across_mint_recycle_cycles(self):
        # The SIM503 lint discipline (every mint paired with a recycle)
        # has this runtime counterpart: recycling everything that was
        # minted returns every storage object to the free list, and a
        # second generation reuses exactly those objects -- the pool
        # neither leaks storage nor invents new allocations.
        factory = PacketFactory(pooling=True)
        first_gen = [_mint(factory) for _ in range(8)]
        storage = {id(p) for p in first_gen}
        for pkt in first_gen:
            factory.recycle(pkt)
        assert factory.pooled == 8
        second_gen = [_mint(factory) for _ in range(8)]
        assert factory.pooled == 0
        assert {id(p) for p in second_gen} == storage
        for pkt in second_gen:
            factory.recycle(pkt)
        assert factory.pooled == 8  # conserved, not grown
        assert factory.uids_minted == 16  # uids stay per-logical-packet

    @pytest.mark.parametrize("pooling", [False, True], ids=["fresh", "recycled"])
    def test_mint_sets_every_slot_as_init_does(self, pooling):
        # mint is the only constructor: a positional mint on fresh or on
        # recycled storage sets every slot as a keyword mint on a new
        # factory does (an unset slot would raise on getattr).
        factory = PacketFactory(pooling=pooling)
        used = _mint(factory, size=2048, deadline=7, vc=1)
        used.hop, used.inject, used.deliver, used.hop_arrival, used.traced = 3, 5, 9, 4, True
        factory.recycle(used)
        fields = (7, 3, 2, 5, 900, 1, "video", 1234, (2, 0), 4, 1, 3, 88)
        names = ("flow_id", "seq", "src", "dst", "size", "vc", "tclass", "deadline",
                 "path", "msg_id", "msg_seq", "msg_parts", "birth")
        minted = factory.mint(*fields)
        by_keyword = PacketFactory().mint(**dict(zip(names, fields)))
        assert (minted is used) == pooling
        assert (minted.uid, by_keyword.uid) == (2, 1)
        for slot in Packet.__slots__:
            assert getattr(minted, slot) == getattr(by_keyword, slot) or slot == "uid", slot

    def test_mint_rejects_what_init_rejects(self):
        factory = PacketFactory()
        with pytest.raises(ValueError, match="size must be positive"):
            _mint(factory, size=0)
        with pytest.raises(ValueError, match="non-negative channel"):
            _mint(factory, vc=-1)
        assert factory.uids_minted == 0

    def test_explicit_uid_bypasses_global_counter(self):
        # The module holds no uid state: every uid comes from a factory,
        # and one factory's stream does not move another's.
        assert not [name for name in vars(packet_module) if "uid" in name.lower()]
        a, b = PacketFactory(), PacketFactory()
        assert [_mint(a).uid, _mint(a).uid] == [1, 2]
        assert [_mint(b).uid, _mint(a).uid, _mint(b).uid] == [1, 3, 2]
        assert mkpkt(1, uid=99).uid == 99


class TestSourceRouting:
    def test_next_output_port_follows_path(self):
        pkt = mkpkt(1, path=(4, 2, 7))
        assert pkt.next_output_port() == 4
        pkt.hop = 1
        assert pkt.next_output_port() == 2
        pkt.hop = 2
        assert pkt.next_output_port() == 7

    def test_exhausted_path_raises(self):
        pkt = mkpkt(1, path=(4,))
        pkt.hop = 1
        with pytest.raises(IndexError):
            pkt.next_output_port()
