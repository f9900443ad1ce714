"""Seeded NGSim-format CSV generator for the `ngsim_prep` workload.

Writes a motorway-like trajectory table in NGSim units (feet, feet per
second, 10 Hz frames) with the NGSim column names that
`polytraj.data.ingest_ngsim` reads, plus a few of the real file's other
columns.  It uses only the standard library, so the same seed gives the
same bytes on any platform.

Every vehicle has a gap-free track of `frames` frames.  Entries are
staggered, so tracks overlap only in part and the neighbours of a scene
are masked outside their own track.  Vehicles come in three kinds, in
fixed proportions so that scene counts do not depend on the seed:

- cruise: one lane at near-constant speed, so every segment is straight
  and `filter_straight` drops about half of them;
- speed: one lane with a periodic speed change, never straight;
- lane: near-constant speed with one lane change inside every 200-frame
  segment, never straight.

Tracks are gap-free on purpose: `ingest_ngsim` rejects a whole file when
one vehicle misses one frame (a known defect).  Once that defect is
fixed, the generator should drop frames too.

The workload's size (vehicles and frames) is set in `workloads.py`.
"""

from __future__ import annotations

import math
import random

HEADER = (
    "Vehicle_ID", "Frame_ID", "Total_Frames", "Global_Time", "Local_X", "Local_Y",
    "v_Length", "v_Width", "v_Class", "v_Vel", "v_Acc", "Lane_ID",
)
KIND_SHARES = (("cruise", 4), ("speed", 3), ("lane", 3))  # parts out of 10
LANE_WIDTH_FT = 12.0
LANES = 5
SEGMENT_FRAMES = 200  # the CLI's default data.segment_len
FRAME_RATE = 10.0
ENTRY_GAP_FRAMES = 30  # about 20 vehicles on the road at once


def vehicle_kinds(n_vehicles: int, rng: random.Random) -> list[str]:
    """Kinds in exact proportion (rounded per block of ten), in seeded order."""
    kinds = [_kind_at(i % 10) for i in range(n_vehicles)]
    rng.shuffle(kinds)
    return kinds


def _kind_at(slot: int) -> str:
    for kind, parts in KIND_SHARES:
        if slot < parts:
            return kind
        slot -= parts
    raise ValueError(slot)


def _lateral_and_speed(kind: str, frames: int, rng: random.Random, lane: int):
    """Per-frame lateral position (ft) and speed (ft/s) of one vehicle."""
    centre = (lane - 0.5) * LANE_WIDTH_FT
    v0 = rng.uniform(35.0, 55.0)
    if kind == "speed":
        amplitude = rng.uniform(8.0, 14.0)
        period = rng.uniform(120.0, 240.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        speed = [v0 + amplitude * math.sin(2.0 * math.pi * k / period + phase) for k in range(frames)]
        lateral = [centre + rng.gauss(0.0, 0.05) for _ in range(frames)]
        return lateral, speed
    speed = [v0 + rng.gauss(0.0, 0.15) for _ in range(frames)]
    if kind == "cruise":
        lateral = [centre + rng.gauss(0.0, 0.05) for _ in range(frames)]
        return lateral, speed
    # one lane change per segment, alternating direction, inside the road
    direction = -1.0 if lane == LANES else 1.0
    lateral = []
    mids = [SEGMENT_FRAMES * s + rng.uniform(70.0, 130.0) for s in range(frames // SEGMENT_FRAMES + 1)]
    for k in range(frames):
        offset = 0.0
        sign = direction
        for mid in mids:
            offset += sign * LANE_WIDTH_FT / (1.0 + math.exp(-0.1 * (k - mid)))
            sign = -sign
        lateral.append(centre + offset + rng.gauss(0.0, 0.05))
    return lateral, speed


def generate_rows(seed: int, n_vehicles: int, frames: int):
    """Yield the CSV rows (header first) of one seeded dataset."""
    rng = random.Random(seed)
    yield list(HEADER)
    kinds = vehicle_kinds(n_vehicles, rng)
    for index, kind in enumerate(kinds):
        vehicle_id = index + 1
        entry = 1 + index * ENTRY_GAP_FRAMES + rng.randrange(ENTRY_GAP_FRAMES)
        lane = rng.randrange(1, LANES + 1)
        lateral, speed = _lateral_and_speed(kind, frames, rng, lane)
        length = round(rng.uniform(14.0, 18.0), 1)
        y = rng.uniform(0.0, 50.0)
        for k in range(frames):
            if k:
                y += 0.5 * (speed[k - 1] + speed[k]) / FRAME_RATE
            accel = (speed[k] - speed[k - 1]) * FRAME_RATE if k else 0.0
            frame = entry + k
            yield [
                str(vehicle_id), str(frame), str(frames), str(1113433135300 + frame * 100),
                f"{lateral[k]:.3f}", f"{y:.3f}", f"{length:.1f}", "6.0", "2",
                f"{speed[k]:.3f}", f"{accel:.3f}", str(lane),
            ]


def write_csv(path, seed: int, n_vehicles: int, frames: int) -> int:
    """Write one dataset; returns the number of data rows."""
    count = -1
    with open(path, "w", newline="") as fh:
        for row in generate_rows(seed, n_vehicles, frames):
            fh.write(",".join(row) + "\n")
            count += 1
    return count

