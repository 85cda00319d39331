"""A lazy stream draws exactly what ``random.Random(seed)`` draws.

:class:`~repro.sim.rng.LazyStream` serves its first words from a block
it drew at construction and builds the generator on the first draw the
block cannot serve.  The differential interleaves every draw a component
makes (and ``getrandbits`` up to 200 bits) across that boundary, with
``randrange`` bounds whose rejection loops can straddle the promotion,
and requires every value to equal the stdlib generator's.  Each draw
runs under a bound on the block-method calls it makes, so a promotion
that stops a rejection loop from advancing fails instead of hanging.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import BLOCK_WORDS, LazyStream, RandomStreams, derive_seed

#: ``randrange`` bounds: trivial, the smallest rejecting one, one just past
#: a power of two (rejects almost half its draws) and one past 2**31 (a
#: 32-bit draw, rejected about half the time)
bounds = st.one_of(
    st.sampled_from((1, 2, 3, 2**31 + 5)),
    st.integers(0, 40).map(lambda k: 2**k + 1),
)

steps = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("getrandbits"), st.integers(0, 200)),
    st.tuples(st.just("randrange"), bounds),
    st.tuples(st.just("randint"), st.integers(-10, 10), st.integers(0, 1000)),
    st.tuples(st.just("expovariate"), st.sampled_from((1e-3, 0.5, 1.0, 7.0))),
    st.tuples(st.just("lognormvariate"), st.sampled_from((-0.5, 0.0, 2.0)), st.sampled_from((0.1, 1.0))),
)


class BoundedStream(LazyStream):
    """A lazy stream whose block methods refuse to run a draw's loop forever
    (a ``randrange`` that needs 1 000 tries is a 2**-1000 event)."""

    def random(self):
        self._count()
        return super().random()

    def getrandbits(self, k):
        self._count()
        return super().getrandbits(k)

    def _count(self):
        self.calls = getattr(self, "calls", 0) + 1
        if self.calls > 1_000:
            raise AssertionError("a draw's loop kept reading the same words")


def draw(rng, step):
    if isinstance(rng, BoundedStream):
        rng.calls = 0
    name, *args = step
    if name == "randint":
        low, span = args
        return rng.randint(low, low + span)
    return getattr(rng, name)(*args)


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    lead=st.integers(0, BLOCK_WORDS),
    ops=st.lists(steps, min_size=1, max_size=200),
)
def test_a_lazy_stream_draws_what_the_generator_draws(seed, lead, ops):
    lazy, eager = BoundedStream(seed), random.Random(seed)
    # ``lead`` one-word draws put the block's end anywhere in ``ops``
    assert [lazy.getrandbits(32) for _ in range(lead)] == [eager.getrandbits(32) for _ in range(lead)]
    for step in ops:
        assert draw(lazy, step) == draw(eager, step), step
    assert lazy.getrandbits(32) == eager.getrandbits(32)


@settings(max_examples=50, deadline=None)
@given(root=st.integers(0, 2**32), name=st.text(max_size=20), words=st.integers(0, 3 * BLOCK_WORDS))
def test_a_named_stream_is_the_derived_generator(root, name, words):
    lazy = RandomStreams(root).stream(name)
    eager = random.Random(derive_seed(root, name))
    assert type(lazy) is LazyStream
    assert [lazy.getrandbits(32) for _ in range(words)] == [eager.getrandbits(32) for _ in range(words)]
    assert lazy.random() == eager.random()


def test_a_promotion_inside_a_rejection_loop_moves_the_loop_on():
    # Seed 45's word 63 and the eleven after it are all >= 2**31 + 5, so
    # ``randrange`` rejects the block's last word, promotes inside its loop
    # and rejects eleven more words through the bound method it cached.
    seed, n = 45, 2**31 + 5
    lazy, eager = BoundedStream(seed), random.Random(seed)
    for _ in range(BLOCK_WORDS - 1):
        assert lazy.getrandbits(32) == eager.getrandbits(32)
    lazy.calls = 0
    assert lazy._mt is None
    assert lazy.randrange(n) == eager.randrange(n)
    assert lazy.calls == 13 and lazy._mt is not None
    assert lazy.getrandbits(32) == eager.getrandbits(32)
    assert lazy.calls == 13  # the instance's own draws are the generator's


def test_normalvariate_forwards_its_cached_draw_across_the_block_end():
    # ``normalvariate`` caches ``self.random`` and draws two words a try;
    # leaving one word makes the first try straddle the promotion.
    lazy, eager = BoundedStream(9), random.Random(9)
    assert [lazy.getrandbits(32) for _ in range(BLOCK_WORDS - 1)] == [
        eager.getrandbits(32) for _ in range(BLOCK_WORDS - 1)
    ]
    step = ("normalvariate", 1.0, 2.0)
    assert [draw(lazy, step) for _ in range(50)] == [draw(eager, step) for _ in range(50)]


@pytest.mark.parametrize("k", [-1, 0, 33])
def test_getrandbits_outside_one_word_behaves_like_the_generator(k):
    lazy, eager = LazyStream(3), random.Random(3)
    lazy.random(), eager.random()
    if k < 0:
        with pytest.raises(ValueError):
            lazy.getrandbits(k)
        with pytest.raises(ValueError):
            eager.getrandbits(k)
    else:
        assert lazy.getrandbits(k) == eager.getrandbits(k)
    assert lazy.random() == eager.random()
