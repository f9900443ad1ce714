"""Dataset handling: NGSim-format ingestion, synthetic scenes, scene files
and model-ready samples.

A track is one agent's fixed-rate sequence of 2-D positions (x lateral,
y longitudinal, metres); `ingest_ngsim` splits a vehicle's rows into
tracks at frame gaps.  Tracks are cut into fixed-length segments, split
temporally into train and test, and turned into scenes: a window of
frames with one reference agent and its nearest neighbours, each aligned
on the window by `_align` and masked where absent.  `gen_synthetic`
builds scenes directly.  Scenes go to disk and back as CSV files
(`write_scene`, `read_scene`, which also aligns through `_align`).
`build_sample` turns a scene into per-agent state histories, computed on
whole arrays, plus the reference agent's future in its own frame at the
current time step.
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

SCENE_HEADER = ["agent_id", "frame", "x_m", "y_m", "v", "a"]

SYNTHETIC_KINDS = ("const_vel", "const_acc", "lane_change", "arc", "mixed")

# defaults of the gen_synthetic parameters that shape the reference path
SYNTHETIC_DEFAULTS = {"speed_min": 8.0, "speed_max": 16.0, "accel_max": 2.0, "lane_offset_m": 3.5,
                      "lane_mid_min": 0.35, "lane_mid_max": 0.65, "lane_steepness": 0.25}

STATE_DIM = 7


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


def _align(window: np.ndarray, agent_id: int, frames, positions, speeds=None, accels=None):
    """Place an agent's rows on a sorted window of frames.

    Returns the SceneAgent, zero and absent at window frames it has no row
    for, and a boolean mask over the rows marking those that landed on a
    window frame.
    """
    slot = np.minimum(np.searchsorted(window, frames), window.size - 1)
    landed = window[slot] == frames
    slot = slot[landed]
    present = np.zeros(window.size, dtype=bool)
    present[slot] = True

    def place(values):
        if values is None:
            return None
        values = np.asarray(values)
        placed = np.zeros((window.size,) + values.shape[1:], dtype=np.float64)
        placed[slot] = values[landed]
        return placed

    return SceneAgent(agent_id, present, place(positions), place(speeds), place(accels)), landed


# -- ingestion ----------------------------------------------------------------


def ingest_ngsim(csv_path, frame_rate: float = DEFAULT_FRAME_RATE) -> list[Track]:
    """Read an NGSim-format CSV into per-vehicle tracks (feet -> metres).

    A vehicle's track is split wherever its frame step exceeds its smallest
    step; pieces shorter than 2 frames are dropped.
    """
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
            for row in filter(None, reader):
                vid = int(float(row[idx["Vehicle_ID"]]))
                frame = int(float(row[idx["Frame_ID"]]))
                if abs(frame) >= 2**53:
                    raise ValueError(f"frame {frame} out of range")
                values = (float(row[idx[column]]) for column in NGSIM_COLUMNS[2:])
                rows_by_vehicle.setdefault(vid, []).append((frame, *values))
        except (ValueError, IndexError, OverflowError, csv.Error) as exc:
            raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    tracks = []
    splits = dropped = 0
    for vid in sorted(rows_by_vehicle):
        rows = sorted(rows_by_vehicle[vid], key=lambda r: r[0])
        frames = np.array([r[0] for r in rows], dtype=np.int64)
        steps = np.diff(frames)
        if np.any(steps <= 0):
            raise DataError(f"track {vid}: non-monotone frames")
        data = np.array([r[1:] for r in rows], dtype=np.float64) * FEET_TO_METRES
        if not np.all(np.isfinite(data)):
            raise DataError(f"track {vid}: non-finite values")
        cuts = np.flatnonzero(steps > steps.min()) + 1 if steps.size else []
        splits += len(cuts)
        for piece_frames, piece in zip(np.split(frames, cuts), np.split(data, cuts)):
            if piece_frames.size < 2:
                dropped += 1
            else:
                tracks.append(Track(vid, piece_frames, piece[:, :2], piece[:, 2], piece[:, 3], frame_rate))
    if splits or dropped:
        log.warning("split tracks at %d frame gap(s); dropped %d piece(s) shorter than 2 frames", splits, dropped)
    return tracks


# -- scene files -----------------------------------------------------------------


def write_scene(scene: Scene, path) -> None:
    """Write one scene: reference agent's rows first, then each neighbor's,
    with absent frames simply omitted; floats use repr so they round-trip."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCENE_HEADER)
        for agent in scene.agents:
            rows = np.flatnonzero(agent.present)
            columns = [[int(agent.agent_id)] * rows.size, scene.frames[rows].tolist()]
            for values in (agent.positions[:, 0], agent.positions[:, 1], agent.speeds, agent.accels):
                # str of a Python float is its repr
                columns.append([""] * rows.size if values is None else values[rows].astype(float).tolist())
            writer.writerows(zip(*columns))


def read_scene(path, frame_rate: float = DEFAULT_FRAME_RATE) -> Scene:
    """Read a scene file; the first agent block is the reference agent,
    whose frames, strictly increasing, make the window.

    An empty v or a field means "not recorded", and the agent then has no
    speeds or accels; every other value must be a finite number.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    rows_by_agent: dict[int, list[tuple]] = {}  # in order of first appearance
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != SCENE_HEADER:
                raise DataError(f"bad scene header in {path}: {header}")
            for agent_id, frame, x, y, v, a in filter(None, reader):
                rows_by_agent.setdefault(int(agent_id), []).append(
                    (int(frame), float(x), float(y), float(v) if v else None, float(a) if a else None)
                )
        except (ValueError, csv.Error) as exc:
            raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    if not rows_by_agent:
        raise DataError(f"scene file {path} has no rows")
    window = None
    agents = []
    for agent_id, rows in rows_by_agent.items():
        frames, xs, ys, speeds, accels = zip(*rows)
        try:
            frames = np.array(frames, dtype=np.int64)
        except OverflowError:
            raise DataError(f"{path}: scene agent {agent_id} has a frame out of range") from None
        if window is None:
            if np.any(np.diff(frames) <= 0):
                raise DataError(f"{path}: reference agent's frames are not strictly increasing")
            window = frames
        agent, landed = _align(
            window, agent_id, frames, np.stack([xs, ys], axis=1),
            None if None in speeds else speeds, None if None in accels else accels,
        )
        if not landed.all():
            outside = int(frames[np.argmin(landed)])
            raise DataError(f"{path}: scene agent {agent_id} has frame {outside} outside the window")
        if np.count_nonzero(agent.present) < frames.size:
            raise DataError(f"{path}: scene agent {agent_id} has a duplicate frame")
        if not all(np.isfinite(v).all() for v in (agent.positions, agent.speeds, agent.accels) if v is not None):
            raise DataError(f"{path}: scene agent {agent_id} has a non-finite value")
        agents.append(agent)
    return Scene(frames=window, agents=agents, frame_rate=frame_rate)


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
    try:
        train, test = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"ratio parts must be integers, got {ratio!r}") from None
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


def _speed(positions: np.ndarray, frame_rate: float) -> np.ndarray:
    """Speed from position increments along the frame axis: (..., n, 2) -> (..., n - 1)."""
    delta = np.diff(positions, axis=-2)
    return np.hypot(delta[..., 0], delta[..., 1]) * frame_rate


def is_straight_constant_velocity(
    scene: Scene, lateral_range_m: float = 0.5, speed_std: float = 0.5
) -> bool:
    """Reference agent stays within a small lateral band at near-constant speed."""
    positions = scene.ego.positions
    lateral_span = float(positions[:, 0].max() - positions[:, 0].min())
    speeds = _speed(positions, scene.frame_rate) if scene.ego.speeds is None else scene.ego.speeds
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
    kept = rng.choice(len(straight), size=keep_count, replace=False)
    dropped = set(straight) - {straight[j] for j in kept.tolist()}
    return [scene for i, scene in enumerate(scenes) if i not in dropped]


def build_scene(segment: Segment, tracks: Sequence[Track], history_len: int, max_neighbors: int) -> Scene:
    """Materialize a segment into a scene with its nearest neighbors.

    Neighbors must be present at the reference agent's current frame
    t_0 = start + history_len - 1; the closest `max_neighbors` are kept.
    """
    if not 2 <= history_len < segment.length:
        raise ConfigError(
            f"history_len must be >= 2 and below the segment length {segment.length}, got {history_len}"
        )
    track = segment.track
    frames = track.frames[segment.start : segment.start + segment.length]
    t0_frame = frames[history_len - 1]
    ego_t0 = track.positions[segment.start + history_len - 1]
    candidates = []
    for other in tracks:
        if other.agent_id == track.agent_id:
            continue
        row = int(np.searchsorted(other.frames, t0_frame))
        if row == len(other) or other.frames[row] != t0_frame:
            continue
        distance = float(np.hypot(*(other.positions[row] - ego_t0)))
        candidates.append((distance, other.agent_id, other))
    candidates.sort(key=lambda c: (c[0], c[1]))
    agents = []
    for kept in [track] + [other for _, _, other in candidates[:max_neighbors]]:
        rows = slice(*np.searchsorted(kept.frames, (frames[0], frames[-1] + 1)))
        columns = (None if c is None else c[rows] for c in (kept.positions, kept.speeds, kept.accels))
        agents.append(_align(frames, kept.agent_id, kept.frames[rows], *columns)[0])
    return Scene(frames=frames, agents=agents, frame_rate=track.frame_rate)


# -- synthetic scenes -------------------------------------------------------------


def _synthetic_params(params: dict) -> dict[str, float]:
    """The path parameters of `params` with defaults filled in, range-checked."""
    p = {key: float(params.get(key, default)) for key, default in SYNTHETIC_DEFAULTS.items()}
    if not (0.0 <= p["speed_min"] <= p["speed_max"] <= 40.0):
        raise ConfigError(
            f"speeds must satisfy 0 <= min <= max <= 40 m/s, got [{p['speed_min']}, {p['speed_max']}]"
        )
    if not (0.0 < p["accel_max"] <= 4.0):
        raise ConfigError(f"accel_max must be in (0, 4] m/s^2, got {p['accel_max']}")
    if not (0.0 < p["lane_offset_m"] <= 5.0):
        raise ConfigError(f"lane_offset_m must be in (0, 5] m, got {p['lane_offset_m']}")
    return p


def _synthetic_ego(kind: str, p: dict[str, float], rng: np.random.Generator, n_frames: int, frame_rate: float):
    """Closed-form ego positions (n_frames, 2) for one synthetic scene."""
    tau = np.arange(n_frames, dtype=np.float64) / frame_rate
    accel_max = p["accel_max"]
    vy = float(rng.uniform(p["speed_min"], p["speed_max"]))
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
        t_mid = float(rng.uniform(p["lane_mid_min"], p["lane_mid_max"])) * n_frames
        profile = 1.0 / (1.0 + np.exp(-(p["lane_steepness"] * (np.arange(n_frames) - t_mid))))
        x = direction * p["lane_offset_m"] * profile
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
    path_params = _synthetic_params(params)
    noise = float(params.get("noise", 0.0))
    n_neighbors = int(params.get("neighbors", 0))
    cycle = ("const_vel", "const_acc", "lane_change", "arc")
    scenes = []
    for i in range(int(n)):
        scene_kind = cycle[i % len(cycle)] if kind == "mixed" else kind
        positions = _synthetic_ego(scene_kind, path_params, rng, n_frames, frame_rate)
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


def _heading(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise angle of (x, y) in (-pi, pi].

    Maps math.atan2, which np.arctan2 can differ from in the last bit, and
    wraps as (angle + pi) % 2pi - pi with -pi sent to pi.
    """
    angle = np.array(list(map(math.atan2, y.ravel().tolist(), x.ravel().tolist())), dtype=np.float64)
    wrapped = np.remainder(angle.reshape(y.shape) + math.pi, 2.0 * math.pi) - math.pi
    return np.where(wrapped == -math.pi, math.pi, wrapped)


def build_sample(scene: Scene, history_len: int, sample_id: int = 0) -> Sample:
    """State histories over the input window plus the reference agent's
    future, translated so the reference agent at t_0 is the origin.

    The state of an agent at frame t (1 <= t < history_len) needs it at t
    and t - 1: [dx, dy, v, alpha, theta, l, phi] with (dx, dy) the position
    increment, v the recorded speed or else the increment's speed, alpha
    the recorded acceleration or else the change of v from the increment
    speed at t - 1 (0 when the agent is absent at t - 2), theta the
    increment's heading, and (l, phi) the polar offset from the reference
    agent (phi 0 at l = 0).
    """
    if history_len < 2:
        raise ConfigError(f"history_len must be >= 2, got {history_len}")
    if len(scene) <= history_len:
        raise DataError(
            f"scene length {len(scene)} leaves no future after {history_len} history frames"
        )
    n = history_len
    rate = scene.frame_rate
    present = np.stack([agent.present[:n] for agent in scene.agents]).astype(bool)
    positions = np.stack([agent.positions[:n] for agent in scene.agents])  # (A, n, 2)
    delta = np.diff(positions, axis=1)
    derived = _speed(positions, rate)  # (A, n - 1), the speed at frames 1 .. n - 1
    speed = np.stack(
        [d if agent.speeds is None else agent.speeds[1:n] for d, agent in zip(derived, scene.agents)]
    )
    accel = np.zeros_like(derived)
    accel[:, 1:] = np.where(present[:, : n - 2], (speed[:, 1:] - derived[:, :-1]) * rate, 0.0)
    for a, agent in enumerate(scene.agents):
        if agent.accels is not None:
            accel[a] = agent.accels[1:n]
    rel = positions[:, 1:] - positions[0, 1:]
    distance = np.hypot(rel[..., 0], rel[..., 1])
    bearing = np.where(distance == 0.0, 0.0, _heading(rel[..., 1], rel[..., 0]))
    features = np.stack(
        [delta[..., 0], delta[..., 1], speed, accel, _heading(delta[..., 1], delta[..., 0]), distance, bearing],
        axis=-1,
    )
    valid = present[:, 1:] & present[:, :-1]
    states = np.where(valid[..., None], features, 0.0)
    future = scene.ego.positions[n - 1 :] - scene.ego.positions[n - 1]
    return Sample(states=states, mask=valid.astype(np.float64), future=future, sample_id=sample_id)


def build_samples(scenes: Sequence[Scene], history_len: int) -> list[Sample]:
    return [build_sample(scene, history_len, sample_id=i) for i, scene in enumerate(scenes)]
