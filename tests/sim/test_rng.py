"""Tests for named RNG streams."""

import random
import tracemalloc

from repro.sim.rng import RandomStreams, derive_seed


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = RandomStreams(7).stream("x")
        b = RandomStreams(7).stream("x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_different_draws(self):
        streams = RandomStreams(7)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_different_seeds_different_draws(self):
        a = RandomStreams(1).stream("x").random()
        b = RandomStreams(2).stream("x").random()
        assert a != b

    def test_stream_is_cached(self):
        streams = RandomStreams(7)
        assert streams.stream("x") is streams.stream("x")

    def test_construction_order_does_not_matter(self):
        """Adding a new component must not perturb existing streams."""
        early = RandomStreams(9)
        seq_before = [early.stream("traffic.h0").random() for _ in range(5)]

        late = RandomStreams(9)
        late.stream("brand.new.component")  # created first this time
        seq_after = [late.stream("traffic.h0").random() for _ in range(5)]
        assert seq_before == seq_after


class TestSpawn:
    def test_spawned_streams_disjoint_from_parent(self):
        parent = RandomStreams(7)
        child = parent.spawn("child")
        assert parent.stream("x").random() != child.stream("x").random()

    def test_spawn_is_deterministic(self):
        a = RandomStreams(7).spawn("c").stream("x").random()
        b = RandomStreams(7).spawn("c").stream("x").random()
        assert a == b


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_64_bit_range(self):
        seed = derive_seed(123456789, "some.stream.name")
        assert 0 <= seed < 2**64

    def test_name_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestFootprint:
    def test_a_stream_costs_what_it_draws(self):
        # A stream that has drawn three words keeps a block of words, not a
        # Mersenne Twister (2.5 kB of state, ≈ 3 kB a stream with it).
        streams = RandomStreams(11)
        names = [f"traffic.video.h{i}" for i in range(1000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for name in names:
                stream = streams.stream(name)
                stream.random()
                stream.getrandbits(7)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown / 1000 <= 800, f"{grown / 1000:.0f} B per stream"

    def test_a_stream_that_draws_on_holds_the_generator(self):
        stream = RandomStreams(11).stream("traffic.control.h0")
        oracle = random.Random(derive_seed(11, "traffic.control.h0"))
        assert [stream.getrandbits(32) for _ in range(10_000)] == [oracle.getrandbits(32) for _ in range(10_000)]
        assert [stream.random() for _ in range(100)] == [oracle.random() for _ in range(100)]
        assert isinstance(stream._mt, random.Random) and stream._block == b""
        # past the block every draw is the generator's own C method
        assert stream.random.__self__ is stream._mt
        assert stream.getrandbits.__self__ is stream._mt
