"""Anchor offsets: the frame offsets that receive supervision.

`count` anchors under a last offset r are spread evenly as
floor(r * k / count) for k = 1..count.  In fixed mode r is the horizon; in
random mode each sample draws its r from an inclusive discrete uniform
range (`model.draw_schedules`).  The offsets are strictly increasing and
positive when count <= r, a rule `ModelConfig` checks.
"""

from __future__ import annotations

from typing import Iterable


def spread(last: Iterable[int], count: int) -> list[tuple[int, ...]]:
    """The offsets (r * k) // count for k = 1..count, one row per r in `last`;
    Python integer arithmetic, so exact for any r."""
    return [tuple(int(r) * k // count for k in range(1, count + 1)) for r in last]
