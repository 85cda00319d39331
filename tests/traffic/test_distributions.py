"""Tests for the workload samplers."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic.distributions import BoundedPareto, GopFrameSizes


def analytic_mean(dist: BoundedPareto) -> float:
    """The analytic mean of the *truncated* distribution (what
    ``TestParetoInterarrival.test_mean_calibration`` pins against a
    trapezoid integral): the sampler's expected value, no run needed."""
    a, l, h = dist.alpha, dist.low, dist.high
    if math.isclose(a, 1.0):
        # The a==1 limit of the general formula.
        return math.log(h / l) / (1.0 / l - 1.0 / h)
    num = (a / (a - 1.0)) * (l ** (1 - a) - h ** (1 - a))
    den = l**-a - h**-a
    return num / den


class TestBoundedPareto:
    def test_samples_within_bounds(self):
        dist = BoundedPareto(1.3, 128, 102_400)
        rng = random.Random(1)
        for _ in range(2000):
            x = dist.sample(rng)
            assert 128 <= x <= 102_400

    def test_sample_int_within_bounds(self):
        dist = BoundedPareto(1.3, 128, 102_400)
        rng = random.Random(2)
        for _ in range(500):
            x = dist.sample_int(rng)
            assert isinstance(x, int)
            assert 128 <= x <= 102_400

    def test_empirical_mean_matches_analytic(self):
        dist = BoundedPareto(1.5, 100, 10_000)
        rng = random.Random(3)
        n = 200_000
        empirical = sum(dist.sample(rng) for _ in range(n)) / n
        assert empirical == pytest.approx(analytic_mean(dist), rel=0.03)

    def test_alpha_one_special_case(self):
        dist = BoundedPareto(1.0, 100, 10_000)
        rng = random.Random(4)
        n = 100_000
        empirical = sum(dist.sample(rng) for _ in range(n)) / n
        assert empirical == pytest.approx(analytic_mean(dist), rel=0.05)

    def test_heavier_tail_larger_mean(self):
        light = analytic_mean(BoundedPareto(2.5, 100, 100_000))
        heavy = analytic_mean(BoundedPareto(1.1, 100, 100_000))
        assert heavy > light

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedPareto(0, 1, 10)
        with pytest.raises(ValueError):
            BoundedPareto(1.5, 10, 10)
        with pytest.raises(ValueError):
            BoundedPareto(1.5, -5, 10)

    @settings(max_examples=50)
    @given(
        alpha=st.floats(0.5, 3.0),
        low=st.floats(1, 1000),
        ratio=st.floats(1.5, 1000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bounds_property(self, alpha, low, ratio, seed):
        dist = BoundedPareto(alpha, low, low * ratio)
        rng = random.Random(seed)
        x = dist.sample(rng)
        assert low <= x <= low * ratio
        assert dist.low <= analytic_mean(dist) <= dist.high


class TestParetoInterarrival:
    """Bursts are followed by exact ``size/rate`` gaps, so the only Pareto
    sampler is the bounded one; these pin its analytics."""

    def test_mean_calibration(self):
        # E[X] = low + integral of the survival function over [low, high],
        # by the trapezoid rule on a geometric grid (the density spans
        # decades).
        low, high, n = 128.0, 102_400.0, 20_000
        grid = [low * (high / low) ** (i / n) for i in range(n + 1)]
        for alpha in (1.0, 1.3, 2.5):

            def survival(x):
                return (low**alpha * (x**-alpha - high**-alpha)) / (1.0 - (low / high) ** alpha)

            area = sum((b - a) * (survival(a) + survival(b)) / 2.0 for a, b in zip(grid, grid[1:]))
            assert analytic_mean(BoundedPareto(alpha, low, high)) == pytest.approx(low + area, rel=1e-6)

    def test_minimum_is_scale(self):
        # Inversion maps u = 0 to ``low`` and u -> 1 to ``high``.
        dist = BoundedPareto(1.3, 128, 102_400)
        assert dist.sample(_Fixed(0.0)) == 128
        assert dist.sample(_Fixed(1.0 - 2**-53)) == pytest.approx(102_400, rel=1e-9)
        assert dist.sample_int(_Fixed(0.0)) == 128

    def test_validation(self):
        # Truncation keeps the mean finite, so alpha <= 1 is valid (and
        # continuous at the alpha == 1 branch); only alpha <= 0 is refused.
        assert analytic_mean(BoundedPareto(0.5, 10, 1000)) < 1000
        at_one = analytic_mean(BoundedPareto(1.0, 10, 1000))
        assert analytic_mean(BoundedPareto(1.0 + 1e-6, 10, 1000)) == pytest.approx(at_one, rel=1e-5)
        with pytest.raises(ValueError):
            BoundedPareto(-1.0, 10, 1000)


class _Fixed:
    """An rng whose ``random()`` always returns ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestGopFrameSizes:
    def test_clipping(self):
        gen = GopFrameSizes(60_000, low=1024, high=122_880)
        rng = random.Random(7)
        for _ in range(200):
            size = gen.next_frame(rng)
            assert 1024 <= size <= 122_880

    def test_i_frames_bigger_than_b_frames_on_average(self):
        gen = GopFrameSizes(30_000, pattern="IB", sigma=0.1)
        rng = random.Random(8)
        i_sizes, b_sizes = [], []
        for _ in range(500):
            i_sizes.append(gen.next_frame(rng))
            b_sizes.append(gen.next_frame(rng))
        assert sum(i_sizes) / len(i_sizes) > 2 * sum(b_sizes) / len(b_sizes)

    def test_long_run_mean_near_target(self):
        # 30 KB mean keeps I frames under the cap, so clipping bias ~ 0.
        gen = GopFrameSizes(30_000, sigma=0.2)
        rng = random.Random(9)
        n = 60_000
        mean = sum(gen.next_frame(rng) for _ in range(n)) / n
        assert mean == pytest.approx(30_000, rel=0.05)

    def test_pattern_cycles(self):
        gen = GopFrameSizes(10_000, pattern="IPB")
        assert gen.frame_type == "I"
        rng = random.Random(10)
        gen.next_frame(rng)
        assert gen.frame_type == "P"
        gen.next_frame(rng)
        assert gen.frame_type == "B"
        gen.next_frame(rng)
        assert gen.frame_type == "I"

    def test_start_index(self):
        gen = GopFrameSizes(10_000, pattern="IPB", start_index=2)
        assert gen.frame_type == "B"

    def test_validation(self):
        with pytest.raises(ValueError):
            GopFrameSizes(0)
        with pytest.raises(ValueError):
            GopFrameSizes(1000, pattern="IXB")
        with pytest.raises(ValueError):
            GopFrameSizes(1000, pattern="")
        with pytest.raises(ValueError):
            GopFrameSizes(1000, low=100, high=100)
