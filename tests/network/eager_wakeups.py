"""Test oracle: a link's wake-ups as they were before it counted its
sender's backlog.

:func:`install_eager_wakeups` turns every link of a built fabric into an
:class:`EagerLink`, whose ``_tx_done`` re-polls the sender after every
transmission and whose ``_credit_arrived`` re-polls it on every credit
that lands on an idle link -- whether or not the sender holds anything
for that link.  A poll of a sender with nothing queued decides nothing,
so an eager fabric must behave exactly like the backlog-gated one it was
made from: the fabric fuzzer replays every scenario both ways, and
``tests/network/test_wakeup_differential.py`` requires byte-identical run
artifacts, ``events_executed`` included.
"""

from __future__ import annotations

from functools import partial

from repro.core.invariants import InvariantViolation
from repro.network.fabric import Fabric
from repro.network.link import CreditError, Link
from repro.network.packet import Packet

__all__ = ["EagerLink", "install_eager_wakeups"]


class EagerLink(Link):
    """``Link`` with the wake-ups it had before ``backlog`` gated them."""

    __slots__ = ()

    def _tx_done(self, pkt: Packet) -> None:
        self.busy = False
        self.packets_carried += 1
        self.bytes_carried += pkt.size
        receiver = self.receiver
        if receiver is None:
            raise InvariantViolation(f"link {self.link_id} has no receiver")
        arrive = receiver.accept if self.clock_domain is None else self._rebase
        if self.prop_delay_ns:
            self._after(self.prop_delay_ns, arrive, pkt, self)
        else:
            arrive(pkt, self)
        sender = self.sender
        if sender is not None:
            sender.pull(self)

    def _credit_arrived(self, vc: int, size: int) -> None:
        channel = self.channel
        credits = channel.credits
        credits[vc] += size
        if credits[vc] > channel.initial[vc]:
            raise CreditError(
                f"vc{vc} credits ({credits[vc]}) exceed buffer size "
                f"({channel.initial[vc]}): double credit return"
            )
        sender = self.sender
        if sender is not None and not self.busy:
            sender.pull(self)


def install_eager_wakeups(fabric: Fabric) -> Fabric:
    """Make every link of ``fabric`` wake its sender eagerly; call it
    before the first event runs (the handles bound at construction are
    re-bound here)."""
    for link in fabric.links.values():
        link.__class__ = EagerLink
        link._tx_done_cb = link._tx_done
        link.return_credit = partial(link.engine.after, link.prop_delay_ns, link._credit_arrived)
    return fabric
