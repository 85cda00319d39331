#!/usr/bin/env python
"""Anatomy of an order error -- and how the take-over queue fixes it.

Section 3.4 in miniature, without a network: we drive the three buffer
structures (plain FIFO, the ordered/take-over pair, and the ideal EDF
heap) with the same adversarial arrival sequence and show each queue's
departure order, plus the appendix invariants holding live.

Run:  python examples/takeover_queue_anatomy.py
"""

from repro.core.queues import EDFHeapQueue, FifoQueue, TakeOverQueue
from repro.network.packet import PacketFactory

PACKETS = PacketFactory()

# The adversarial pattern of Section 3.2: the source ran out of
# low-deadline packets, injected one with a far deadline (a video packet
# paced toward a 10 ms target, say), and then low-deadline control
# packets arrived behind it.
ARRIVALS = [
    ("video",   900),  # far deadline, arrives first, heads the queue
    ("video",  1000),
    ("ctrl-A",  120),  # urgent packets now stuck behind it in a FIFO
    ("ctrl-B",  140),
    ("video",  1100),
    ("ctrl-C",  160),
]


def drive(queue):
    packets = []
    for flow, deadline in ARRIVALS:
        pkt = PACKETS.mint(
            flow_id=hash(flow) & 0xFFFF, seq=0, src=0, dst=1, size=256,
            vc=0, tclass=flow, deadline=deadline,
        )
        packets.append((flow, pkt))
        queue.push(pkt)
    names = {pkt.uid: flow for flow, pkt in packets}
    order = []
    while queue:
        pkt = queue.pop()
        order.append(f"{names[pkt.uid]}({pkt.deadline})")
    return order


print("Arrivals (in order):")
print("  " + ", ".join(f"{flow}({d})" for flow, d in ARRIVALS))
print()

for label, queue in [
    ("FIFO        (Simple 2 VCs)", FifoQueue()),
    ("take-over   (Advanced 2 VCs)", TakeOverQueue()),
    ("EDF heap    (Ideal)", EDFHeapQueue()),
]:
    print(f"{label:<30} -> " + ", ".join(drive(queue)))

print(
    "\nThe FIFO drains in arrival order: all three control packets wait out"
    "\nthe video packets in front (the ~25% latency penalty of Section 5)."
    "\nThe take-over queue routes them into its U FIFO where they overtake"
    "\neverything except the packet already at the head -- within 1 slot of"
    "\nthe unimplementable ideal heap, using nothing but two FIFOs."
)

# The appendix's theorems, checked live on a take-over queue mid-stream:
queue = TakeOverQueue()
for flow, deadline in ARRIVALS:
    queue.push(
        PACKETS.mint(flow_id=1, seq=0, src=0, dst=1, size=64, vc=0, tclass=flow, deadline=deadline)
    )
ordered = [p.deadline for p in queue.ordered_snapshot]
takeover = [p.deadline for p in queue.takeover_snapshot]
print(f"\nInside the take-over structure after the arrivals:")
print(f"  L (ordered queue):   {ordered}")
print(f"  U (take-over queue): {takeover}")
assert ordered == sorted(ordered), "Theorem 1: L is deadline-sorted"
assert max(ordered + takeover) == ordered[-1], "Theorem 2: max deadline at L's tail"
assert not takeover or ordered, "Lemma 1: U never holds packets alone"
print("  Theorems 1-2 and Lemma 1 hold (see the appendix, and the property tests).")
