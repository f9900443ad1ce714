"""Anchor schedules: the frame offsets that receive supervision.

A schedule is either a fixed, evenly spread set of offsets over a horizon,
or a per-sample random draw: the last offset r comes from an inclusive
discrete uniform range and the remaining anchors are evenly spread as
floor(r * k / T).  All arithmetic is on Python integers, so the k-th
offset equals (r * k) // T exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AnchorSchedule:
    """Strictly increasing positive frame offsets [t_1 .. t_T]."""

    offsets: tuple[int, ...]

    def __post_init__(self):
        offsets = tuple(int(t) for t in self.offsets)
        if len(offsets) < 1:
            raise ValueError("schedule must contain at least one offset")
        if offsets[0] < 1:
            raise ValueError(f"offsets must be >= 1, got {offsets[0]}")
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValueError(f"offsets must be strictly increasing: {offsets}")
        object.__setattr__(self, "offsets", offsets)

    @property
    def count(self) -> int:
        return len(self.offsets)

    @property
    def last(self) -> int:
        return self.offsets[-1]


@dataclass(frozen=True)
class AnchorDistribution:
    """Inclusive discrete uniform range for the final anchor offset."""

    min: int
    max: int

    def __post_init__(self):
        if self.min < 1:
            raise ValueError(f"min must be >= 1, got {self.min}")
        if self.min > self.max:
            raise ValueError(f"min {self.min} exceeds max {self.max}")


def fixed_schedule(count: int, horizon: int) -> AnchorSchedule:
    """Evenly spread schedule [floor(horizon * k / count) for k = 1..count]."""
    count, horizon = int(count), int(horizon)
    if count < 1:
        raise ValueError(f"anchor count must be >= 1, got {count}")
    if horizon < count:
        raise ValueError(
            f"horizon {horizon} < anchor count {count}: flooring would duplicate offsets"
        )
    return AnchorSchedule(tuple((horizon * k) // count for k in range(1, count + 1)))


def random_schedule(dist: AnchorDistribution, count: int, rng: np.random.Generator) -> AnchorSchedule:
    """Draw r from the inclusive range, spread count anchors as floor(r*k/count)."""
    count = int(count)
    if count < 1:
        raise ValueError(f"anchor count must be >= 1, got {count}")
    if dist.min < count:
        raise ValueError(
            f"distribution min {dist.min} < anchor count {count}: "
            "flooring could duplicate offsets"
        )
    r = int(rng.integers(dist.min, dist.max + 1))
    return AnchorSchedule(tuple((r * k) // count for k in range(1, count + 1)))

