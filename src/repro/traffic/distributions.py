"""Samplers for the workload models.

- :class:`BoundedPareto` -- the heavy-tailed size distribution the NPF
  benchmark (and Jain's methodology book, cited by the paper) recommends
  for internet-like traffic, truncated to a [low, high] range.
- :class:`GopFrameSizes` -- MPEG-style group-of-pictures frame sizes:
  a repeating I/P/B pattern with per-type mean sizes and lognormal
  variation, clipped to the paper's [1 KB, 120 KB] frame range.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.rng import RandomStream

__all__ = ["BoundedPareto", "GopFrameSizes"]


class BoundedPareto:
    """Pareto distribution truncated to ``[low, high]`` (inclusive).

    Sampling is by inversion of the truncated CDF.  ``alpha`` is the tail
    index; smaller alpha = heavier tail.
    """

    __slots__ = ("alpha", "low", "high", "_low_a", "_high_a")

    def __init__(self, alpha: float, low: float, high: float):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not 0 < low < high:
            raise ValueError(f"need 0 < low < high, got [{low}, {high}]")
        self.alpha = alpha
        self.low = low
        self.high = high
        self._low_a = low**alpha
        self._high_a = high**alpha

    def sample(self, rng: RandomStream) -> float:
        u = rng.random()
        # Inverse CDF of the bounded Pareto.
        value = (
            -((u * self._high_a - u * self._low_a - self._high_a) / (self._high_a * self._low_a))
        ) ** (-1.0 / self.alpha)
        # Guard against float round-off at the edges.
        if value < self.low:
            return self.low
        if value > self.high:
            return self.high
        return value

    def sample_int(self, rng: RandomStream) -> int:
        return max(int(self.low), min(int(self.high), round(self.sample(rng))))


class GopFrameSizes:
    """MPEG group-of-pictures frame-size generator.

    ``pattern`` is the repeating frame-type string (default the common
    12-frame ``IBBPBBPBBPBB``).  Frame sizes are the per-type weight,
    scaled so the long-run mean matches ``mean_frame_bytes``, with
    lognormal jitter of ``sigma`` and clipping to [low, high] -- the
    paper's frame range is [1 KB, 120 KB].

    The generator is stateful (cycles through the GoP); one instance per
    video stream.
    """

    #: Relative sizes of I, P and B frames (roughly 5:3:1 for MPEG-4).
    TYPE_WEIGHTS = {"I": 5.0, "P": 3.0, "B": 1.0}

    def __init__(
        self,
        mean_frame_bytes: float,
        *,
        pattern: str = "IBBPBBPBBPBB",
        sigma: float = 0.25,
        low: int = 1024,
        high: int = 122_880,
        start_index: int = 0,
    ):
        if mean_frame_bytes <= 0:
            raise ValueError(f"mean frame size must be positive, got {mean_frame_bytes}")
        if not pattern or any(c not in self.TYPE_WEIGHTS for c in pattern):
            raise ValueError(f"pattern must be a non-empty I/P/B string, got {pattern!r}")
        if not 0 < low < high:
            raise ValueError(f"need 0 < low < high, got [{low}, {high}]")
        self.pattern = pattern
        self.sigma = sigma
        self.low = low
        self.high = high
        weights: Sequence[float] = [self.TYPE_WEIGHTS[c] for c in pattern]
        mean_weight = sum(weights) / len(weights)
        # Lognormal with mu = -sigma^2/2 has mean 1, so the scale below
        # keeps the long-run mean at mean_frame_bytes (before clipping).
        self._scales = [w / mean_weight * mean_frame_bytes for w in weights]
        # Streams join mid-GoP in reality; a caller-chosen start phase keeps
        # an *ensemble* of short-lived streams from all opening on the big
        # I frame (which would bias the offered load upward by ~2x).
        self._index = start_index % len(pattern)

    def next_frame(self, rng: RandomStream) -> int:
        scale = self._scales[self._index]
        self._index = (self._index + 1) % len(self.pattern)
        jitter = rng.lognormvariate(-self.sigma**2 / 2.0, self.sigma)
        size = round(scale * jitter)
        return max(self.low, min(self.high, size))

    @property
    def frame_type(self) -> str:
        """Type of the *next* frame :meth:`next_frame` will produce."""
        return self.pattern[self._index]
