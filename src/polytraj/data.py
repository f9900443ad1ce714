"""Dataset handling: NGSim-format ingestion, synthetic generation, features.

Tracks are fixed-rate sequences of 2-D positions (x lateral, y longitudinal,
metres).  They are cut into fixed-length segments, split temporally into
train and test, optionally thinned of straight constant-velocity segments,
and turned into scenes (one reference agent plus nearby neighbors) and
samples (per-agent state histories plus the reference agent's future in
its own frame at the current time step).
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

FEET_TO_METRES = 0.3048
DEFAULT_FRAME_RATE = 10.0

NGSIM_COLUMNS = ("Vehicle_ID", "Frame_ID", "Local_X", "Local_Y", "v_Vel", "v_Acc")

CACHE_HEADER = ["agent_id", "frame", "x_m", "y_m", "v", "a"]

SYNTHETIC_KINDS = ("const_vel", "const_acc", "lane_change", "arc", "mixed")

STATE_DIM = 7


def _wrap_angle(angle: float) -> float:
    """Normalize to (-pi, pi]."""
    wrapped = (angle + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if wrapped == -math.pi else wrapped


@dataclass
class Track:
    """One agent's fixed-rate position sequence with optional kinematics."""

    agent_id: int
    frames: np.ndarray
    positions: np.ndarray
    speeds: np.ndarray | None = None
    accels: np.ndarray | None = None
    frame_rate: float = DEFAULT_FRAME_RATE

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.int64)
        self.positions = np.asarray(self.positions, dtype=np.float64)
        n = self.frames.size
        if n < 2:
            raise DataError(f"track {self.agent_id}: needs >= 2 frames, got {n}")
        if self.positions.shape != (n, 2):
            raise DataError(
                f"track {self.agent_id}: positions shape {self.positions.shape} != ({n}, 2)"
            )
        if not np.all(np.isfinite(self.positions)):
            raise DataError(f"track {self.agent_id}: non-finite coordinates")
        steps = np.diff(self.frames)
        if np.any(steps <= 0):
            raise DataError(f"track {self.agent_id}: non-monotone frames")
        if np.any(steps != steps[0]):
            raise DataError(f"track {self.agent_id}: non-uniform frame spacing")

    def __len__(self) -> int:
        return self.frames.size


@dataclass
class SceneAgent:
    """One agent's view of a scene window; absent frames are masked."""

    agent_id: int
    present: np.ndarray
    positions: np.ndarray
    speeds: np.ndarray | None = None
    accels: np.ndarray | None = None


@dataclass
class Scene:
    """A fixed window of frames with one reference agent (index 0) and
    neighbors aligned on those frames."""

    frames: np.ndarray
    agents: list[SceneAgent]
    frame_rate: float = DEFAULT_FRAME_RATE

    def __post_init__(self):
        if not self.agents:
            raise DataError("scene has no agents")
        n = self.frames.size
        for agent in self.agents:
            if agent.present.size != n or agent.positions.shape != (n, 2):
                raise DataError(
                    f"scene agent {agent.agent_id} does not cover the frame range"
                )
        if not bool(np.all(self.agents[0].present)):
            raise DataError("reference agent must be present at every frame")

    @property
    def ego(self) -> SceneAgent:
        return self.agents[0]

    def __len__(self) -> int:
        return self.frames.size


@dataclass
class Sample:
    """Model-ready sample: state histories per agent plus the reference
    agent's future positions relative to its own position at t_0."""

    states: np.ndarray  # (agents, steps, STATE_DIM)
    mask: np.ndarray  # (agents, steps), 1.0 where the state is valid
    future: np.ndarray  # (horizon+1, 2); row 0 is the origin
    sample_id: int = 0


# -- ingestion ----------------------------------------------------------------


def ingest_ngsim(csv_path, frame_rate: float = DEFAULT_FRAME_RATE) -> list[Track]:
    """Read an NGSim-format CSV into per-vehicle tracks (feet -> metres)."""
    path = Path(csv_path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    rows_by_vehicle: dict[int, list[tuple[int, float, float, float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader, [])]
            if not header:
                raise DataError(f"empty CSV: {path}")
            for column in NGSIM_COLUMNS:
                if column not in header:
                    raise DataError(f"missing column '{column}' in {path}")
            idx = {column: header.index(column) for column in NGSIM_COLUMNS}
            for row in reader:
                if not row:
                    continue
                vid = int(float(row[idx["Vehicle_ID"]]))
                frame = int(float(row[idx["Frame_ID"]]))
                if abs(frame) >= 2**53:
                    raise ValueError(f"frame {frame} out of range")
                rows_by_vehicle.setdefault(vid, []).append(
                    (
                        frame,
                        float(row[idx["Local_X"]]),
                        float(row[idx["Local_Y"]]),
                        float(row[idx["v_Vel"]]),
                        float(row[idx["v_Acc"]]),
                    )
                )
        except (ValueError, IndexError, OverflowError, csv.Error) as exc:
            raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    tracks = []
    for vid in sorted(rows_by_vehicle):
        rows = sorted(rows_by_vehicle[vid], key=lambda r: r[0])
        frames = np.array([r[0] for r in rows], dtype=np.int64)
        if np.any(np.diff(frames) <= 0):
            raise DataError(f"track {vid}: non-monotone frames")
        data = np.array([r[1:] for r in rows], dtype=np.float64)
        if not np.all(np.isfinite(data)):
            raise DataError(f"track {vid}: non-finite values")
        tracks.append(
            Track(
                agent_id=vid,
                frames=frames,
                positions=data[:, 0:2] * FEET_TO_METRES,
                speeds=data[:, 2] * FEET_TO_METRES,
                accels=data[:, 3] * FEET_TO_METRES,
                frame_rate=frame_rate,
            )
        )
    return tracks


# -- cache files ---------------------------------------------------------------


def _format_value(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _agent_rows(agent_id: int, frames, positions, speeds, accels):
    for i, frame in enumerate(frames):
        yield [
            str(int(agent_id)),
            str(int(frame)),
            repr(float(positions[i, 0])),
            repr(float(positions[i, 1])),
            _format_value(None if speeds is None else speeds[i]),
            _format_value(None if accels is None else accels[i]),
        ]


def write_tracks(tracks: Sequence[Track], path) -> None:
    """Write tracks to the cache CSV; floats use repr so they round-trip."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CACHE_HEADER)
        for track in sorted(tracks, key=lambda t: t.agent_id):
            writer.writerows(
                _agent_rows(track.agent_id, track.frames, track.positions, track.speeds, track.accels)
            )


def read_tracks(path, frame_rate: float = DEFAULT_FRAME_RATE) -> list[Track]:
    """Read a cache CSV written by write_tracks."""
    groups = _read_cache_groups(path)
    tracks = []
    for agent_id, rows in groups:
        frames = np.array([r[0] for r in rows], dtype=np.int64)
        positions = np.array([[r[1], r[2]] for r in rows], dtype=np.float64)
        speeds = None if any(r[3] is None for r in rows) else np.array([r[3] for r in rows])
        accels = None if any(r[4] is None for r in rows) else np.array([r[4] for r in rows])
        tracks.append(Track(agent_id, frames, positions, speeds, accels, frame_rate))
    return tracks


def _read_cache_groups(path):
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CACHE_HEADER:
            raise DataError(f"bad cache header in {path}: {header}")
        order: list[int] = []
        rows_by_agent: dict[int, list] = {}
        for row in reader:
            agent_id = int(row[0])
            parsed = (
                int(row[1]),
                float(row[2]),
                float(row[3]),
                float(row[4]) if row[4] else None,
                float(row[5]) if row[5] else None,
            )
            if agent_id not in rows_by_agent:
                order.append(agent_id)
                rows_by_agent[agent_id] = []
            rows_by_agent[agent_id].append(parsed)
    return [(agent_id, rows_by_agent[agent_id]) for agent_id in order]


def write_scene(scene: Scene, path) -> None:
    """Write one scene: reference agent's rows first, then each neighbor's,
    with absent frames simply omitted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CACHE_HEADER)
        for agent in scene.agents:
            present = np.flatnonzero(agent.present)
            writer.writerows(
                _agent_rows(
                    agent.agent_id,
                    scene.frames[present],
                    agent.positions[present],
                    None if agent.speeds is None else agent.speeds[present],
                    None if agent.accels is None else agent.accels[present],
                )
            )


def read_scene(path, frame_rate: float = DEFAULT_FRAME_RATE) -> Scene:
    """Read a scene file; the first agent block is the reference agent."""
    groups = _read_cache_groups(path)
    if not groups:
        raise DataError(f"scene file {path} has no rows")
    ego_rows = groups[0][1]
    frames = np.array([r[0] for r in ego_rows], dtype=np.int64)
    frame_index = {int(f): i for i, f in enumerate(frames)}
    agents = []
    for agent_id, rows in groups:
        present = np.zeros(frames.size, dtype=bool)
        positions = np.zeros((frames.size, 2), dtype=np.float64)
        speeds = np.zeros(frames.size, dtype=np.float64)
        accels = np.zeros(frames.size, dtype=np.float64)
        have_speeds = have_accels = True
        for frame, x, y, v, a in rows:
            i = frame_index.get(frame)
            if i is None:
                raise DataError(f"scene agent {agent_id} has frame {frame} outside the window")
            present[i] = True
            positions[i] = (x, y)
            if v is None:
                have_speeds = False
            else:
                speeds[i] = v
            if a is None:
                have_accels = False
            else:
                accels[i] = a
        agents.append(
            SceneAgent(
                agent_id=agent_id,
                present=present,
                positions=positions,
                speeds=speeds if have_speeds else None,
                accels=accels if have_accels else None,
            )
        )
    return Scene(frames=frames, agents=agents, frame_rate=frame_rate)


# -- per-frame state features ---------------------------------------------------


def _derived_speed(agent: SceneAgent, t: int, frame_rate: float) -> float:
    delta = agent.positions[t] - agent.positions[t - 1]
    return float(np.hypot(delta[0], delta[1])) * frame_rate


def _state_vector(scene: Scene, agent_index: int, t: int) -> np.ndarray | None:
    agent = scene.agents[agent_index]
    if not (agent.present[t] and agent.present[t - 1]):
        return None
    delta = agent.positions[t] - agent.positions[t - 1]
    if agent.speeds is not None:
        v = float(agent.speeds[t])
    else:
        v = _derived_speed(agent, t, scene.frame_rate)
    if agent.accels is not None:
        alpha = float(agent.accels[t])
    elif t >= 2 and agent.present[t - 2]:
        alpha = (v - _derived_speed(agent, t - 1, scene.frame_rate)) * scene.frame_rate
    else:
        alpha = 0.0
    theta = _wrap_angle(math.atan2(delta[1], delta[0]))
    rel = agent.positions[t] - scene.ego.positions[t]
    l = float(np.hypot(rel[0], rel[1]))
    phi = 0.0 if l == 0.0 else _wrap_angle(math.atan2(rel[1], rel[0]))
    return np.array([delta[0], delta[1], v, alpha, theta, l, phi], dtype=np.float64)


# -- segmentation, splitting, filtering -----------------------------------------


@dataclass(frozen=True)
class Segment:
    """A window of `length` frames starting at `start` within one track."""

    track: Track
    start: int
    length: int


def parse_ratio(ratio: str) -> tuple[int, int]:
    parts = ratio.split(":")
    if len(parts) != 2:
        raise ConfigError(f"ratio must look like '3:1', got {ratio!r}")
    train, test = (int(p) for p in parts)
    if train < 1 or test < 1:
        raise ConfigError(f"ratio parts must be positive, got {ratio!r}")
    return train, test


def segment_and_split(
    tracks: Sequence[Track], segment_len: int = 200, ratio: str = "3:1"
) -> tuple[list[Segment], list[Segment]]:
    """Cut tracks into non-overlapping segments and split temporally.

    Within each track the later segments go to test; the test count is
    ceil(total * test_share), so a 3:1 ratio sends the last quarter
    (rounded up) of each track's segments to the test set.
    """
    train_share, test_share = parse_ratio(ratio)
    denominator = train_share + test_share
    train: list[Segment] = []
    test: list[Segment] = []
    skipped = 0
    for track in tracks:
        total = len(track) // segment_len
        if total == 0:
            skipped += 1
            continue
        n_test = -(-total * test_share // denominator)  # ceil
        for i in range(total):
            segment = Segment(track, i * segment_len, segment_len)
            (test if i >= total - n_test else train).append(segment)
    if skipped:
        log.warning("skipped %d track(s) shorter than %d frames", skipped, segment_len)
    return train, test


def is_straight_constant_velocity(
    scene: Scene, lateral_range_m: float = 0.5, speed_std: float = 0.5
) -> bool:
    """Reference agent stays within a small lateral band at near-constant speed."""
    positions = scene.ego.positions
    lateral_span = float(positions[:, 0].max() - positions[:, 0].min())
    if scene.ego.speeds is not None:
        speeds = scene.ego.speeds
    else:
        speeds = np.hypot(*np.diff(positions, axis=0).T) * scene.frame_rate
    return lateral_span < lateral_range_m and float(np.std(speeds)) < speed_std


def filter_straight(
    scenes: Sequence[Scene],
    fraction: float = 0.5,
    rng: np.random.Generator | None = None,
    lateral_range_m: float = 0.5,
    speed_std: float = 0.5,
) -> list[Scene]:
    """Downsample straight constant-velocity scenes to `fraction`; keep the rest."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"fraction must be in [0, 1], got {fraction}")
    straight = [
        i
        for i, scene in enumerate(scenes)
        if is_straight_constant_velocity(scene, lateral_range_m, speed_std)
    ]
    keep_count = int(len(straight) * fraction + 0.5)
    if keep_count == len(straight):
        return list(scenes)
    rng = rng if rng is not None else np.random.default_rng(0)
    kept = set(np.sort(rng.choice(len(straight), size=keep_count, replace=False)).tolist())
    straight_set = set(straight)
    keep_straight = {straight[j] for j in kept}
    return [
        scene
        for i, scene in enumerate(scenes)
        if i not in straight_set or i in keep_straight
    ]


def build_scene(segment: Segment, tracks: Sequence[Track], history_len: int, max_neighbors: int) -> Scene:
    """Materialize a segment into a scene with its nearest neighbors.

    Neighbors must be present at the reference agent's current frame
    t_0 = start + history_len - 1; the closest `max_neighbors` are kept.
    """
    track = segment.track
    frames = track.frames[segment.start : segment.start + segment.length]
    window = {int(f): i for i, f in enumerate(frames)}
    t0_frame = int(frames[history_len - 1])
    ego_t0 = track.positions[segment.start + history_len - 1]
    ego = SceneAgent(
        agent_id=track.agent_id,
        present=np.ones(frames.size, dtype=bool),
        positions=track.positions[segment.start : segment.start + segment.length].copy(),
        speeds=None if track.speeds is None else track.speeds[segment.start : segment.start + segment.length].copy(),
        accels=None if track.accels is None else track.accels[segment.start : segment.start + segment.length].copy(),
    )
    candidates = []
    for other in tracks:
        if other.agent_id == track.agent_id:
            continue
        pos_t0 = np.flatnonzero(other.frames == t0_frame)
        if pos_t0.size == 0:
            continue
        distance = float(np.hypot(*(other.positions[pos_t0[0]] - ego_t0)))
        candidates.append((distance, other.agent_id, other))
    candidates.sort(key=lambda c: (c[0], c[1]))
    agents = [ego]
    for _, _, other in candidates[:max_neighbors]:
        present = np.zeros(frames.size, dtype=bool)
        positions = np.zeros((frames.size, 2), dtype=np.float64)
        speeds = None if other.speeds is None else np.zeros(frames.size, dtype=np.float64)
        accels = None if other.accels is None else np.zeros(frames.size, dtype=np.float64)
        for j, frame in enumerate(other.frames):
            i = window.get(int(frame))
            if i is None:
                continue
            present[i] = True
            positions[i] = other.positions[j]
            if speeds is not None:
                speeds[i] = other.speeds[j]
            if accels is not None:
                accels[i] = other.accels[j]
        agents.append(SceneAgent(other.agent_id, present, positions, speeds, accels))
    return Scene(frames=frames, agents=agents, frame_rate=track.frame_rate)


# -- synthetic scenes -------------------------------------------------------------


def _logistic(x):
    return 1.0 / (1.0 + np.exp(-x))


def _synthetic_ego(kind: str, params: dict, rng: np.random.Generator, n_frames: int, frame_rate: float):
    """Closed-form ego positions (n_frames, 2) for one synthetic scene."""
    tau = np.arange(n_frames, dtype=np.float64) / frame_rate
    speed_min = float(params.get("speed_min", 8.0))
    speed_max = float(params.get("speed_max", 16.0))
    accel_max = float(params.get("accel_max", 2.0))
    lane_offset = float(params.get("lane_offset_m", 3.5))
    vy = float(rng.uniform(speed_min, speed_max))
    if kind == "const_vel":
        vx = float(rng.uniform(-1.0, 1.0))
        x = vx * tau
        y = vy * tau
    elif kind == "const_acc":
        horizon_s = tau[-1] if n_frames > 1 else 1.0
        ay_low = max(-accel_max, -(vy - 0.5) / horizon_s)
        ay = float(rng.uniform(ay_low, accel_max))
        vx = float(rng.uniform(-1.0, 1.0))
        ax = float(rng.uniform(-accel_max / 4.0, accel_max / 4.0))
        x = vx * tau + 0.5 * ax * tau**2
        y = vy * tau + 0.5 * ay * tau**2
    elif kind == "lane_change":
        direction = 1.0 if rng.uniform() < 0.5 else -1.0
        mid_lo = float(params.get("lane_mid_min", 0.35))
        mid_hi = float(params.get("lane_mid_max", 0.65))
        t_mid = float(rng.uniform(mid_lo, mid_hi)) * n_frames
        steepness = float(params.get("lane_steepness", 0.25))
        x = direction * lane_offset * _logistic(steepness * (np.arange(n_frames) - t_mid))
        x = x - x[0]
        y = vy * tau
    elif kind == "arc":
        radius = float(rng.uniform(150.0, 400.0))
        direction = 1.0 if rng.uniform() < 0.5 else -1.0
        angle = vy * tau / radius
        x = direction * radius * (1.0 - np.cos(angle))
        y = radius * np.sin(angle)
    else:
        raise ConfigError(f"unknown synthetic kind {kind!r}; valid kinds: {', '.join(SYNTHETIC_KINDS)}")
    return np.stack([x, y], axis=1)


def _validate_synth_params(params: dict) -> None:
    speed_min = float(params.get("speed_min", 8.0))
    speed_max = float(params.get("speed_max", 16.0))
    accel_max = float(params.get("accel_max", 2.0))
    lane_offset = float(params.get("lane_offset_m", 3.5))
    if not (0.0 <= speed_min <= speed_max <= 40.0):
        raise ConfigError(f"speeds must satisfy 0 <= min <= max <= 40 m/s, got [{speed_min}, {speed_max}]")
    if not (0.0 < accel_max <= 4.0):
        raise ConfigError(f"accel_max must be in (0, 4] m/s^2, got {accel_max}")
    if not (0.0 < lane_offset <= 5.0):
        raise ConfigError(f"lane_offset_m must be in (0, 5] m, got {lane_offset}")


def gen_synthetic(
    kind: str,
    params: dict,
    n: int,
    rng: np.random.Generator,
    n_frames: int = 200,
    frame_rate: float = DEFAULT_FRAME_RATE,
) -> list[Scene]:
    """Generate scenes with closed-form ground truth.

    const_vel is exactly degree 1 in the frame offset, const_acc exactly
    degree 2; lane_change uses a logistic lateral profile and arc a
    constant-curvature path.  Optional additive Gaussian observation
    noise via params['noise'].
    """
    if kind not in SYNTHETIC_KINDS:
        raise ConfigError(f"unknown synthetic kind {kind!r}; valid kinds: {', '.join(SYNTHETIC_KINDS)}")
    _validate_synth_params(params)
    noise = float(params.get("noise", 0.0))
    n_neighbors = int(params.get("neighbors", 0))
    cycle = ("const_vel", "const_acc", "lane_change", "arc")
    scenes = []
    for i in range(int(n)):
        scene_kind = cycle[i % len(cycle)] if kind == "mixed" else kind
        positions = _synthetic_ego(scene_kind, params, rng, n_frames, frame_rate)
        if noise > 0.0:
            positions = positions + rng.normal(0.0, noise, size=positions.shape)
        frames = np.arange(n_frames, dtype=np.int64)
        agents = [
            SceneAgent(
                agent_id=0,
                present=np.ones(n_frames, dtype=bool),
                positions=positions,
            )
        ]
        for j in range(n_neighbors):
            side = 1.0 if j % 2 == 0 else -1.0
            lateral = side * 3.5 * (j // 2 + 1)
            speed = float(rng.uniform(8.0, 16.0))
            gap = float(rng.uniform(-30.0, 30.0))
            tau = np.arange(n_frames, dtype=np.float64) / frame_rate
            neighbor_pos = np.stack(
                [np.full(n_frames, positions[0, 0] + lateral), gap + speed * tau], axis=1
            )
            agents.append(
                SceneAgent(
                    agent_id=j + 1,
                    present=np.ones(n_frames, dtype=bool),
                    positions=neighbor_pos,
                )
            )
        scenes.append(Scene(frames=frames, agents=agents, frame_rate=frame_rate))
    return scenes


# -- samples ---------------------------------------------------------------------


def build_sample(scene: Scene, history_len: int, sample_id: int = 0) -> Sample:
    """State histories over the input window plus the reference agent's
    future, translated so the reference agent at t_0 is the origin."""
    if history_len < 2:
        raise ConfigError(f"history_len must be >= 2, got {history_len}")
    if len(scene) <= history_len:
        raise DataError(
            f"scene length {len(scene)} leaves no future after {history_len} history frames"
        )
    t0 = history_len - 1
    steps = history_len - 1  # states exist for frames 1 .. t0
    n_agents = len(scene.agents)
    states = np.zeros((n_agents, steps, STATE_DIM), dtype=np.float64)
    mask = np.zeros((n_agents, steps), dtype=np.float64)
    for t in range(1, history_len):
        for a in range(n_agents):
            vec = _state_vector(scene, a, t)
            if vec is not None:
                states[a, t - 1] = vec
                mask[a, t - 1] = 1.0
    origin = scene.ego.positions[t0]
    future = scene.ego.positions[t0:] - origin
    return Sample(states=states, mask=mask, future=future, sample_id=sample_id)


def build_samples(scenes: Sequence[Scene], history_len: int) -> list[Sample]:
    return [build_sample(scene, history_len, sample_id=i) for i, scene in enumerate(scenes)]
