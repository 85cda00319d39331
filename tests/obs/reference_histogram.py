"""Test oracle: :class:`repro.obs.metrics.Histogram` as it was before
``observe`` stopped keeping ``count`` and testing ``min``/``max`` for
``None`` per call.

``tests/obs/test_histogram_differential.py`` requires the same
``to_dict()`` from both after any sequence of ``observe`` and ``merge``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List, Optional, Tuple, Union

__all__ = ["ReferenceHistogram"]

Number = Union[int, float]


class ReferenceHistogram:
    __slots__ = ("name", "unit", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Iterable[int], unit: str = ""):
        self.name = name
        self.unit = unit
        self.bounds: Tuple[int, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe(self, value: Number) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "ReferenceHistogram") -> None:
        for index, n in enumerate(other.counts):
            self.counts[index] += n
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "unit": self.unit,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }
