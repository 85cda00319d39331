"""Named, reproducible random-number streams.

Every stochastic component (each traffic source, the admission
controller's tie-breaks, ...) draws from its own stream, derived from a
root seed and a string name.  Two properties matter for reproduction:

- **Determinism**: the same root seed always produces the same run,
  regardless of the order in which components are constructed.
- **Independence**: streams are seeded through SHA-256 of
  ``(root_seed, name)`` so adding a new component never perturbs the
  draws seen by existing ones (unlike sharing one global ``Random``).
"""

from __future__ import annotations

import hashlib
import random  # simlint: allow-global-random
from typing import Dict

__all__ = ["RandomStream", "RandomStreams", "derive_seed", "local_stream"]

#: The stream type handed out by this module.  Library code annotates
#: against (and constructs through) this alias instead of importing the
#: stdlib ``random`` module directly -- simlint rule SIM001 enforces it.
RandomStream = random.Random


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def local_stream(name: str, root_seed: int = 0) -> RandomStream:
    """A standalone deterministic stream for components constructed
    without access to a :class:`RandomStreams` factory.

    Used for *defaults* (a :class:`~repro.traffic.trace.TraceReplaySource`,
    the stats :class:`~repro.stats.reservoir.Reservoir`): the stream is a
    pure function of ``(root_seed, name)``, so identical configurations
    reproduce identical draws, and distinct names never share a sequence
    the way ad-hoc ``Random(0)`` instances would.

    >>> local_stream("a").random() == local_stream("a").random()
    True
    >>> local_stream("a").random() == local_stream("b").random()
    False
    """
    return RandomStream(derive_seed(root_seed, name))


class RandomStreams:
    """Factory of named :class:`random.Random` streams.

    >>> streams = RandomStreams(42)
    >>> a = streams.stream("traffic.control.host0")
    >>> b = streams.stream("traffic.control.host1")
    >>> a is streams.stream("traffic.control.host0")
    True
    """

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.root_seed, name))
            self._streams[name] = rng
        return rng

    def spawn(self, name: str) -> "RandomStreams":
        """A child factory whose streams are disjoint from the parent's."""
        return RandomStreams(derive_seed(self.root_seed, f"spawn:{name}"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(root_seed={self.root_seed}, streams={len(self._streams)})"
