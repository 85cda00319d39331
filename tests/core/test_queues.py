"""Unit tests for the three buffer structures (FIFO, EDF heap, take-over)."""

import pytest

from repro.core.queues import EDFHeapQueue, FifoQueue, TakeOverQueue
from repro.network.link import CreditError, Link
from tests.helpers import mkpkt


ALL_QUEUES = [FifoQueue, EDFHeapQueue, TakeOverQueue]


class BehindLink:
    """A queue as the VC buffer at the far end of a :class:`Link`.

    The link's credits are the buffer's one ledger: ``send`` spends them
    (an over-budget send is the link's :class:`CreditError`) and ``pop``
    returns them, as ``Switch._try_output`` does for every packet it pops.
    """

    def __init__(self, engine, queue, buffer_bytes):
        self.engine = engine
        self.queue = queue
        self.link = Link(
            engine,
            src="up",
            src_port=0,
            dst="buffer",
            dst_port=0,
            bytes_per_ns=1.0,
            prop_delay_ns=0,
            buffer_bytes_per_vc=(buffer_bytes,),
        )
        self.link.receiver = self

    def accept(self, pkt, link):
        self.queue.push(pkt)

    def send(self, pkt):
        self.link.transmit(pkt)
        self.engine.run_all()

    def pop(self):
        pkt = self.queue.pop()
        self.link.return_credit(pkt.vc, pkt.size)
        self.engine.run_all()
        return pkt


@pytest.mark.parametrize("queue_cls", ALL_QUEUES)
class TestCommonBehaviour:
    def test_empty_queue(self, queue_cls):
        q = queue_cls()
        assert len(q) == 0
        assert not q
        assert q.front is None
        assert sum(p.size for p in q) == 0

    def test_push_pop_single(self, queue_cls):
        q = queue_cls()
        pkt = mkpkt(100)
        q.push(pkt)
        assert len(q) == 1
        assert q.front is pkt
        assert q.pop() is pkt
        assert len(q) == 0

    def test_byte_accounting(self, queue_cls):
        q = queue_cls()
        q.push(mkpkt(1, size=100))
        q.push(mkpkt(2, size=250))
        assert sum(p.size for p in q) == 350
        q.pop()
        assert sum(p.size for p in q) in (100, 250)
        q.pop()
        assert sum(p.size for p in q) == 0

    def test_capacity_enforced(self, queue_cls, engine):
        buffer = BehindLink(engine, queue_cls(), 512)
        buffer.send(mkpkt(1, size=400))
        with pytest.raises(CreditError, match="with only 112 credits"):
            buffer.send(mkpkt(2, size=200))
        assert len(buffer.queue) == 1

    def test_capacity_frees_on_pop(self, queue_cls, engine):
        buffer = BehindLink(engine, queue_cls(), 512)
        buffer.send(mkpkt(1, size=400))
        buffer.pop()
        buffer.send(mkpkt(2, size=400))  # fits again
        assert [p.deadline for p in buffer.queue] == [2]

    def test_pop_empty_raises(self, queue_cls):
        with pytest.raises(IndexError):
            queue_cls().pop()

    def test_iter_yields_all(self, queue_cls):
        q = queue_cls()
        pkts = [mkpkt(d) for d in (5, 3, 9)]
        for pkt in pkts:
            q.push(pkt)
        assert sorted(p.deadline for p in q) == [3, 5, 9]

    def test_drain_in_head_order_empties(self, queue_cls):
        q = queue_cls()
        for d in (7, 1, 5, 5, 2):
            q.push(mkpkt(d))
        drained = [q.pop() for _ in range(5)]
        assert len(q) == 0
        assert len(drained) == 5


class TestFifoOrder:
    def test_strict_arrival_order(self):
        q = FifoQueue()
        pkts = [mkpkt(d) for d in (9, 1, 5)]
        for pkt in pkts:
            q.push(pkt)
        assert [q.pop() for _ in range(3)] == pkts

    def test_head_is_oldest_not_minimum(self):
        q = FifoQueue()
        late = mkpkt(1000)
        early = mkpkt(1)
        q.push(late)
        q.push(early)
        assert q.front is late  # the order-error scenario of Section 3.4


class TestHeapOrder:
    def test_dequeues_in_deadline_order(self):
        q = EDFHeapQueue()
        for d in (50, 10, 30, 20, 40):
            q.push(mkpkt(d))
        assert [q.pop().deadline for _ in range(5)] == [10, 20, 30, 40, 50]

    def test_ties_break_by_arrival(self):
        q = EDFHeapQueue()
        first = mkpkt(5)
        second = mkpkt(5)
        q.push(second)  # pushed out of arrival order on purpose:
        q.push(first)  # uid order still decides
        assert q.pop() is first
        assert q.pop() is second

    def test_head_tracks_minimum_across_pushes(self):
        q = EDFHeapQueue()
        q.push(mkpkt(100))
        assert q.front.deadline == 100
        q.push(mkpkt(10))
        assert q.front.deadline == 10


class TestTakeOverStructure:
    def test_ascending_arrivals_stay_in_ordered_queue(self):
        q = TakeOverQueue()
        for d in (10, 20, 30):
            q.push(mkpkt(d))
        assert len(q.ordered_snapshot) == 3
        assert len(q.takeover_snapshot) == 0

    def test_equal_deadline_goes_to_ordered_queue(self):
        # Definition 1: D(p) >= D(L_tail) -> L queue.
        q = TakeOverQueue()
        q.push(mkpkt(10))
        q.push(mkpkt(10))
        assert len(q.ordered_snapshot) == 2

    def test_smaller_deadline_goes_to_takeover_queue(self):
        q = TakeOverQueue()
        q.push(mkpkt(100))
        overtaker = mkpkt(50)
        q.push(overtaker)
        assert q.takeover_snapshot == (overtaker,)

    def test_takeover_packet_overtakes(self):
        q = TakeOverQueue()
        blocker = mkpkt(100)
        q.push(blocker)
        overtaker = mkpkt(50)
        q.push(overtaker)
        assert q.pop() is overtaker
        assert q.pop() is blocker

    def test_head_is_min_of_two_heads(self):
        q = TakeOverQueue()
        q.push(mkpkt(100))
        q.push(mkpkt(200))
        q.push(mkpkt(50))  # -> U
        assert q.front.deadline == 50

    def test_tie_between_heads_prefers_older_packet(self):
        q = TakeOverQueue()
        l_head = mkpkt(100)
        q.push(l_head)
        q.push(mkpkt(300))
        u_head = mkpkt(100)  # equal deadline, arrived later -> U
        q.push(u_head)
        assert q.front is l_head

    def test_fifo_within_takeover_queue(self):
        q = TakeOverQueue()
        q.push(mkpkt(1000))
        first_u = mkpkt(500)
        second_u = mkpkt(400)  # smaller deadline but behind first_u in U
        q.push(first_u)
        q.push(second_u)
        assert q.pop() is first_u  # U is FIFO: 400 cannot pass 500 inside U
        assert q.pop() is second_u

    def test_interleaved_sequence(self):
        q = TakeOverQueue()
        arrivals = [30, 10, 40, 20, 50, 15]
        for d in arrivals:
            q.push(mkpkt(d))
        departures = [q.pop().deadline for _ in range(len(arrivals))]
        # Not necessarily fully sorted (that is the point -- order errors are
        # only *reduced*), but far closer to sorted than FIFO:
        assert departures[0] == 10
        assert departures[-1] == 50

    def test_shared_capacity_across_both_queues(self, engine):
        # The budget is per VC, shared by L and U: one packet in each
        # leaves no room for a third anywhere.
        buffer = BehindLink(engine, TakeOverQueue(), 600)
        buffer.send(mkpkt(100, size=300))
        buffer.send(mkpkt(50, size=300))  # goes to U; memory is shared
        assert len(buffer.queue.ordered_snapshot) == 1
        assert len(buffer.queue.takeover_snapshot) == 1
        with pytest.raises(CreditError, match="with only 0 credits"):
            buffer.send(mkpkt(60, size=10))
