"""Named, reproducible random-number streams.

Every stochastic component (each traffic source, the clock skews, ...)
draws from its own stream, derived from a root seed and a string name.
Two properties matter for reproduction:

- **Determinism**: the same root seed always produces the same run,
  regardless of the order in which components are constructed.
- **Independence**: streams are seeded through SHA-256 of
  ``(root_seed, name)`` so adding a new component never perturbs the
  draws seen by existing ones (unlike sharing one global ``Random``).

A stream costs what it draws.  :class:`RandomStreams` hands out a
:class:`LazyStream`: the first :data:`BLOCK_WORDS` 32-bit words of its
Mersenne Twister, drawn once, and no generator (≈ 0.5 kB instead of
2.9 kB).  Most of a run's streams never read past that block; the
first draw that does builds the generator and from then on every draw
is the generator's own.  Either way the values are exactly those of
``random.Random(derive_seed(root_seed, name))``.
"""

from __future__ import annotations

import hashlib
import random  # simlint: allow-global-random
import struct
from typing import TYPE_CHECKING, Dict, Optional, Union

__all__ = ["RandomStream", "RandomStreams", "derive_seed", "local_stream"]

#: Generator words a :class:`LazyStream` keeps before it builds the
#: generator.  On the benchmark's seed-1 runs a video stream draws at
#: most 26 words and a stream of a cold 512-host run at most 78 (39 of
#: its 3 072 pass 64); the streams that draw hundreds or thousands
#: (control, best-effort and background on a loaded fabric) pay for one
#: generator whatever the block holds.
BLOCK_WORDS = 64

#: ``random.Random`` by a name :class:`LazyStream`'s own ``random``
#: method does not shadow in its class body
_Random = random.Random
_WORD = struct.Struct("<I").unpack_from
_TWO_WORDS = struct.Struct("<2I").unpack_from


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def local_stream(name: str, root_seed: int = 0) -> random.Random:
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
    return random.Random(derive_seed(root_seed, name))


class LazyStream:
    """The draws of ``random.Random(seed)``, paid for as they are read.

    The stream keeps ``seed`` and the generator's first
    :data:`BLOCK_WORDS` words.  ``random()`` and ``getrandbits(k <= 32)``
    decode that block as CPython's C code decodes a fresh word: two words
    ``a, b`` make ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``, one word
    ``w`` makes ``w >> (32 - k)``.  The first draw the block cannot serve
    (it is used up, or ``k > 32``) *promotes* the stream: it builds the
    generator, skips the words already read, and binds the generator's
    ``random`` and ``getrandbits`` in the instance dict, so every later
    draw is the C call itself.  A method bound before the promotion (the
    stdlib's ``_randbelow`` caches ``self.getrandbits``) forwards to that
    generator.  The other draws are the running interpreter's own
    ``random.Random`` functions, which read only these two.

    >>> s = LazyStream(7)
    >>> r = random.Random(7)
    >>> [s.random(), s.getrandbits(5), s.randrange(10)] == [r.random(), r.getrandbits(5), r.randrange(10)]
    True
    >>> [s.random() for _ in range(100)] == [r.random() for _ in range(100)]
    True
    """

    __slots__ = ("_seed", "_block", "_pos", "_mt", "__dict__")

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._block = _Random(seed).randbytes(4 * BLOCK_WORDS)  # b"" once promoted
        self._pos = 0  # words of the block read; BLOCK_WORDS once promoted
        self._mt: Optional[_Random] = None

    def random(self) -> float:
        pos = self._pos
        if pos <= BLOCK_WORDS - 2:
            self._pos = pos + 2
            a, b = _TWO_WORDS(self._block, 4 * pos)
            return ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)
        return self._promote().random()

    def getrandbits(self, k: int) -> int:
        pos = self._pos
        if 0 < k <= 32 and pos < BLOCK_WORDS:
            self._pos = pos + 1
            return _WORD(self._block, 4 * pos)[0] >> (32 - k)
        return self._promote().getrandbits(k)

    def _promote(self) -> _Random:
        """The generator, past every word this stream has handed out."""
        mt = self._mt
        if mt is None:
            mt = self._mt = _Random(self._seed)
            mt.getrandbits(32 * self._pos)
            self._block = b""
            self._pos = BLOCK_WORDS
            vars(self).update(random=mt.random, getrandbits=mt.getrandbits)
        return mt

    if TYPE_CHECKING:

        def randrange(self, start: int, stop: Optional[int] = None, step: int = 1) -> int: ...
        def randint(self, a: int, b: int) -> int: ...
        def expovariate(self, lambd: float) -> float: ...
        def normalvariate(self, mu: float, sigma: float) -> float: ...
        def lognormvariate(self, mu: float, sigma: float) -> float: ...

    else:
        _randbelow = _Random._randbelow
        randrange = _Random.randrange
        randint = _Random.randint
        expovariate = _Random.expovariate
        normalvariate = _Random.normalvariate
        lognormvariate = _Random.lognormvariate


#: What a component draws from: a :class:`LazyStream` from
#: :meth:`RandomStreams.stream`, or the eager generator :func:`local_stream`
#: builds.  Library code annotates against this alias instead of importing
#: the stdlib ``random`` module directly -- simlint rule SIM001 enforces it.
RandomStream = Union[LazyStream, random.Random]


class RandomStreams:
    """Factory of named :class:`LazyStream` streams.

    >>> streams = RandomStreams(42)
    >>> a = streams.stream("traffic.control.host0")
    >>> b = streams.stream("traffic.control.host1")
    >>> a is streams.stream("traffic.control.host0")
    True
    """

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)
        self._streams: Dict[str, LazyStream] = {}

    def stream(self, name: str) -> LazyStream:
        """Return the stream for ``name``, creating it on first use.

        It draws what ``random.Random(derive_seed(root_seed, name))``
        would."""
        rng = self._streams.get(name)
        if rng is None:
            rng = LazyStream(derive_seed(self.root_seed, name))
            self._streams[name] = rng
        return rng

    def spawn(self, name: str) -> "RandomStreams":
        """A child factory whose streams are disjoint from the parent's."""
        return RandomStreams(derive_seed(self.root_seed, f"spawn:{name}"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(root_seed={self.root_seed}, streams={len(self._streams)})"
