"""Dataset handling: NGSim-format ingestion, synthetic scenes, scene files
and model-ready samples.

A track is one agent's fixed-rate sequence of 2-D positions (x lateral,
y longitudinal, metres); `ingest_ngsim` parses an NGSim CSV's six used
columns in one `np.loadtxt`, sorts the rows by (vehicle, frame) and
splits each vehicle's rows into tracks at frame gaps.  Tracks are cut
into fixed-length segments, split temporally into train and test, and
turned into scenes by `build_scene`: a window of frames with one
reference agent and its nearest neighbours at t_0, found through a
frame-sorted index of every track row, each agent aligned on the window
by `_align` and masked where absent.  `gen_synthetic` builds scenes
directly from the `synthetic` section of a run config.  The reference
agent covers the whole window, each neighbour only
`frames[:history_len]`, up to and including t_0: the model reads every
agent's history but the future of the reference agent alone, so a
neighbour's future would be written, parsed and never used.  Scenes go
to disk and back as CSV files: `write_scene` joins each agent block's
columns of repr strings and writes the file at once.  `read_scene` checks
the lines and fields on the file's bytes, parses the whole body in one
`np.loadtxt` (an empty v or a field reads as 0), and then
treats the table as one array: agents numbered by first appearance, each
row's window slot found by one `searchsorted`, all rows checked at once
and scattered into one present, one position and, for the agents that
record them, one speed and one accel block per scene, whose rows the
agents take.  Both parsers accept plain comma-separated numbers only,
with no quoting.  `build_sample` turns a scene into
per-agent state histories, computed on whole arrays, plus the reference
agent's future in its own frame at the current time step, which
`future_at` reads at frame offsets for the loss and the metrics.  Keyword
defaults, such as a frame rate or a segment length, read
`config.DEFAULTS`; none is written here.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import sigmoid
from .config import default
from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

FEET_TO_METRES = 0.3048
DEFAULT_FRAME_RATE = default("data.frame_rate")

NGSIM_COLUMNS = ("Vehicle_ID", "Frame_ID", "Local_X", "Local_Y", "v_Vel", "v_Acc")

SCENE_HEADER = ["agent_id", "frame", "x_m", "y_m", "v", "a"]
SCENE_HEADER_LINE = ",".join(SCENE_HEADER).encode()
SCENE_DTYPE = np.dtype([("agent_id", np.int64), ("frame", np.int64), ("x", np.float64), ("y", np.float64),
                        ("v", np.float64), ("a", np.float64)])
LF, CR = b"\n", b"\r"
# an agent id or frame is an integer: ASCII digits with an optional sign and blanks around
SCENE_INT_FIELD = re.compile(r"[ \t]*[+-]?[0-9]+[ \t]*")
# the bytes of a line's id and frame fields and the comma between them
INT_FIELD_BYTES = b"0123456789+- \t,"

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


class TrackList(tuple):
    """An immutable sequence of tracks with a frame index built on first use."""

    @functools.cached_property
    def frame_index(self) -> _FrameIndex:
        return _FrameIndex(self)


class _FrameIndex:
    """Every row of a list of tracks, sorted by frame (ties in list order):
    which tracks are present at a frame, and where they are."""

    def __init__(self, tracks: Sequence[Track]):
        self.tracks = tracks
        frames = np.concatenate([track.frames for track in self.tracks] or [np.empty(0, dtype=np.int64)])
        order = np.argsort(frames, kind="stable")
        self.frames = frames[order]
        self.owner = np.repeat(np.arange(len(self.tracks)), [len(track) for track in self.tracks])[order]
        self.agent_ids = np.array([track.agent_id for track in self.tracks], dtype=np.int64)[self.owner]
        self.positions = np.concatenate([track.positions for track in self.tracks] or [np.empty((0, 2))])[order]


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
    neighbors aligned on those frames.

    The reference agent is present at every frame.  `build_scene` and
    `gen_synthetic` leave each neighbor absent after t_0, the last of the
    `history_len` history frames, since a sample never reads a neighbor's
    future."""

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


def ingest_ngsim(csv_path, frame_rate: float = DEFAULT_FRAME_RATE) -> TrackList:
    """Read an NGSim-format CSV into per-vehicle tracks (feet -> metres).

    The header is read with the csv module; the body is parsed by one
    `np.loadtxt` over the six `NGSIM_COLUMNS`, so it must be plain
    comma-separated ASCII: a quoted field or a non-ASCII character is a
    DataError.  Vehicle ids and frames are truncated to integers as
    `int(float(...))` does and must lie within 2**53.  Rows are sorted by
    (vehicle, frame); a vehicle's track is split wherever its frame step
    exceeds its smallest step, and pieces shorter than 2 frames are
    dropped.  The tracks come as a `TrackList`, which `build_scene` indexes
    once by frame.  A file that cannot be read is a DataError.
    """
    path = Path(csv_path)
    header, has_rows, plain = _ngsim_header(path)
    if not header:
        raise DataError(f"empty CSV: {path}")
    for column in NGSIM_COLUMNS:
        if column not in header:
            raise DataError(f"missing column '{column}' in {path}")
    columns = [header.index(column) for column in NGSIM_COLUMNS]
    if not has_rows:
        return TrackList()
    values = None
    # a quoted comma would shift the columns read, and numpy's text parser
    # misreads, or crashes on, some non-ASCII characters
    if plain:
        with contextlib.suppress(ValueError):
            values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=columns, comments=None, ndmin=2,
                                encoding="utf-8")
    if values is None or not np.all(np.abs(values[:, :2]) < 2**53):
        raise _ngsim_line_error(path, columns)
    vehicles = values[:, 0].astype(np.int64)  # truncates as int() does
    frames = values[:, 1].astype(np.int64)
    order = np.lexsort((frames, vehicles))  # stable: equal keys keep file order
    vehicles, frames = vehicles[order], frames[order]
    data = values[order, 2:] * FEET_TO_METRES
    same_vehicle = vehicles[1:] == vehicles[:-1]
    steps = np.diff(frames)
    repeated = vehicles[1:][same_vehicle & (steps == 0)]
    non_finite = vehicles[~np.all(np.isfinite(data), axis=1)]
    if repeated.size or non_finite.size:  # the lowest id first, its repeated frame before a non-finite value
        vid = min(int(ids[0]) for ids in (repeated, non_finite) if ids.size)
        fault = "non-monotone frames" if repeated.size and repeated[0] == vid else "non-finite values"
        raise DataError(f"track {vid}: {fault}")
    # a vehicle's track is cut where a step exceeds that vehicle's smallest step
    vehicle_of_step = np.cumsum(~same_vehicle)[same_vehicle]
    smallest = np.full(vehicles.size, np.iinfo(np.int64).max)
    np.minimum.at(smallest, vehicle_of_step, steps[same_vehicle])
    gap = np.zeros(steps.size, dtype=bool)
    gap[same_vehicle] = steps[same_vehicle] > smallest[vehicle_of_step]
    bounds = [0, *(np.flatnonzero(gap | ~same_vehicle) + 1).tolist(), frames.size]
    tracks = []
    dropped = 0
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop - start < 2:
            dropped += 1
            continue
        piece = data[start:stop]
        tracks.append(Track(int(vehicles[start]), frames[start:stop], piece[:, :2], piece[:, 2], piece[:, 3],
                            frame_rate))
    splits = int(np.count_nonzero(gap))
    if splits or dropped:
        log.warning("split tracks at %d frame gap(s); dropped %d piece(s) shorter than 2 frames", splits, dropped)
    return TrackList(tracks)


def _ngsim_header(path: Path) -> tuple[list[str], bool, bool]:
    """An NGSim CSV's header fields, read with the csv module, whether a
    non-blank line follows the header, and whether the lines after it are
    plain ASCII without quotes; the file must be UTF-8."""
    raw = _read_bytes(path)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}, line {raw.count(LF, 0, exc.start) + 1}: {exc}") from None
    first_line = re.match(r"[^\r\n]*", text).group()
    header = [h.strip() for h in next(csv.reader([first_line]), [])]
    has_rows = re.compile(r"[^\r\n]").search(text, len(first_line)) is not None
    plain = (raw.isascii() or text[len(first_line) :].isascii()) and text.find('"', len(first_line)) < 0
    return header, has_rows, plain


def _ngsim_line_error(path: Path, columns: list[int]) -> DataError:
    """The error of the first NGSim data line that does not parse or whose
    vehicle id or frame is out of range; blank lines are skipped."""
    lines = path.read_text(encoding="utf-8").split("\n")  # CR and CRLF read as LF
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            if '"' in line or not line.isascii():
                raise ValueError("quoted fields and non-ASCII characters are not supported")
            (row,) = np.loadtxt([line], delimiter=",", usecols=columns, comments=None, ndmin=2)
        except ValueError as exc:
            return DataError(f"{path}, line {number}: {exc}")
        for name, value in (("vehicle id", row[0]), ("frame", row[1])):
            if not abs(value) < 2**53:
                shown = int(value) if math.isfinite(value) else value
                return DataError(f"{path}, line {number}: {name} {shown} out of range")
    return DataError(f"{path}: unreadable NGSim rows")


# -- scene files -----------------------------------------------------------------


def write_scene(scene: Scene, path) -> None:
    """Write one scene: reference agent's rows first, then each neighbor's,
    with absent frames simply omitted and "\\r\\n" line ends, in one write.

    Each agent block is built as column lists of strings; floats use repr
    so they round-trip, and a missing speed or accel column is empty.
    """
    lines = [",".join(SCENE_HEADER)]
    for agent in scene.agents:
        rows = np.flatnonzero(agent.present)
        columns = [[str(int(agent.agent_id))] * rows.size, [*map(str, scene.frames[rows].tolist())]]
        for values in (agent.positions[:, 0], agent.positions[:, 1], agent.speeds, agent.accels):
            columns.append(
                [""] * rows.size if values is None else [*map(repr, values[rows].astype(float).tolist())]
            )
        lines.extend(map(",".join, zip(*columns)))
    lines.append("")
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))


def read_scene(path, frame_rate: float = DEFAULT_FRAME_RATE) -> Scene:
    """Read a scene file; the first agent block is the reference agent,
    whose frames, strictly increasing, make the window.

    The file is read once and its body parsed by one `np.loadtxt` into
    int64 ids and frames and float64 values.  Lines end in "\\n" or
    "\\r\\n" and hold exactly six plain comma-separated ASCII fields: a
    blank line, a bare "\\r", a quoted field or a non-ASCII byte is a
    DataError.  The agent id and frame must be integers within int64 (a
    fraction or an exponent is a DataError, whatever numpy's version and
    warning filters).  An empty v or a field means "not recorded", and the
    agent then has no speeds or accels; every other value must be a finite
    number.  Rows are grouped by agent id in order of first appearance; an
    agent's rows need not be adjacent.  A file that cannot be read is a
    DataError.
    """
    path = Path(path)
    table, v_empty, a_empty = _scene_table(path)
    ids, frames = table["agent_id"], table["frame"]
    new_run = np.concatenate([[True], ids[1:] != ids[:-1]])  # runs of rows of one agent
    run_ids = ids[new_run]
    agent_ids = list(dict.fromkeys(run_ids.tolist()))  # agents numbered by first appearance
    by_id = np.argsort(agent_ids)
    agent = by_id[np.searchsorted(agent_ids, run_ids, sorter=by_id)][np.cumsum(new_run) - 1]
    window = frames[agent == 0]
    if np.any(window[1:] <= window[:-1]):
        raise DataError(f"{path}: reference agent's frames are not strictly increasing")
    slot = np.minimum(np.searchsorted(window, frames), window.size - 1)
    present = np.zeros((len(agent_ids), window.size), dtype=bool)
    present[agent, slot] = True
    positions = np.zeros(present.shape + (2,))
    positions[agent, slot, 0] = table["x"]
    positions[agent, slot, 1] = table["y"]
    recorded = np.ones((2, len(agent_ids)), dtype=bool)  # v and a: if every row of the agent records it
    recorded[0, agent[v_empty]] = False
    recorded[1, agent[a_empty]] = False
    speeds, accels = (_on_window(table[name], kept, agent, slot, present.shape) for name, kept in zip("va", recorded))
    # every row on a window frame of its own, and every recorded value finite
    if (np.any(window[slot] != frames) or np.count_nonzero(present) < frames.size
            or not all(np.isfinite(block).all() for block in (positions, speeds, accels))):
        raise _scene_fault(path, table, agent_ids, agent, window, slot, present, recorded)
    speeds, accels = iter(speeds), iter(accels)
    agents = [SceneAgent(agent_id, present[k], positions[k], next(speeds) if v else None, next(accels) if a else None)
              for k, (agent_id, v, a) in enumerate(zip(agent_ids, *recorded.tolist()))]
    return Scene(frames=window, agents=agents, frame_rate=frame_rate)


def _on_window(column, recorded, agent, slot, shape) -> np.ndarray:
    """A column placed on the window, one row for each agent that records it."""
    placed = np.zeros(shape)
    placed[agent, slot] = column
    return placed[recorded]


def _scene_fault(path, table, agent_ids, agent, window, slot, present, recorded) -> DataError:
    """The error of the first agent with a fault, for its first fault in
    this order: a frame outside the window (its first such frame in file
    order), a duplicate frame, a non-finite value."""
    frames = table["frame"]
    outside = window[slot] != frames
    finite = np.isfinite(table["x"]) & np.isfinite(table["y"])
    finite &= (np.isfinite(table["v"]) | ~recorded[0][agent]) & (np.isfinite(table["a"]) | ~recorded[1][agent])
    duplicate = np.count_nonzero(present, axis=1) < np.bincount(agent, minlength=len(agent_ids))
    faulty = duplicate.copy()
    faulty[agent[outside | ~finite]] = True
    k = int(np.argmax(faulty))
    outside = outside[agent == k]
    if outside.any():
        frame = int(frames[agent == k][np.argmax(outside)])
        return DataError(f"{path}: scene agent {agent_ids[k]} has frame {frame} outside the window")
    if duplicate[k]:
        return DataError(f"{path}: scene agent {agent_ids[k]} has a duplicate frame")
    return DataError(f"{path}: scene agent {agent_ids[k]} has a non-finite value")


def _scene_table(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A scene file's rows as a SCENE_DTYPE table, with per-row flags for
    an empty v and an empty a field (read as 0)."""
    raw = _read_bytes(path)
    if not raw.isascii():  # numpy's text parser misreads, or crashes on, some non-ASCII characters
        at = int(np.argmax(np.frombuffer(raw, dtype=np.uint8) >= 0x80))
        raise DataError(f"{path}, line {raw.count(LF, 0, at) + 1}: non-ASCII byte 0x{raw[at]:02x}")
    header, _, body = raw.partition(LF)
    if header.removesuffix(CR) != SCENE_HEADER_LINE:
        raise DataError(f"bad scene header in {path}: {header.decode()!r}")
    if not body:
        raise DataError(f"scene file {path} has no rows")
    if not body.endswith(LF):
        body += LF
    chars = np.frombuffer(body, dtype=np.uint8)
    ends = (chars == LF[0]).nonzero()[0]
    starts = np.concatenate([[0], ends[:-1] + 1])
    crlf = chars[ends - 1] == CR[0]
    ends = ends - crlf  # where each line's last field ends
    commas = (chars == ord(",")).nonzero()[0]
    # every carriage return ends a line, and each line holds its own five commas
    if (np.count_nonzero(chars == CR[0]) > np.count_nonzero(crlf) or commas.size != ends.size * 5
            or np.any(commas[::5] < starts) or np.any(commas[4::5] > ends)):
        raise _scene_line_error(path, chars, ends, commas)
    commas = commas.reshape(ends.size, len(SCENE_HEADER) - 1)
    # numpy releases that still carry the 1.23 deprecation parse an int64
    # field that is not an integer as a float and truncate it, with only a
    # DeprecationWarning; an id or frame of other bytes than digits, signs
    # and blanks, or over 18 bytes wide, goes to the line-wise check
    ints_end = commas[:, 1]  # a line's id, comma and frame end here
    widest = int(np.max(ints_end - starts))
    wide = widest > 18 and max(np.max(commas[:, 0] - starts), np.max(ints_end - commas[:, 0]) - 1) > 18
    at = np.minimum(starts[:, None] + np.arange(widest), ints_end[:, None])  # past the frame: its comma
    suspect = wide or bool(chars[at].tobytes().translate(None, INT_FIELD_BYTES))
    v_empty = commas[:, -1] == commas[:, -2] + 1
    a_empty = ends == commas[:, -1] + 1
    if v_empty.any() or a_empty.any():  # an empty v or a reads as 0
        body = np.insert(chars, np.concatenate([commas[v_empty, -1], ends[a_empty]]), ord("0")).tobytes()
    text = body.decode()
    if suspect:
        _check_scene_lines(path, text)
    try:
        table = np.loadtxt(io.StringIO(text), delimiter=",", dtype=SCENE_DTYPE, comments=None, ndmin=1)
    except ValueError as exc:
        _check_scene_lines(path, text)
        raise DataError(f"{path}: {exc}") from None
    return table, v_empty, a_empty


def _scene_line_error(path: Path, chars: np.ndarray, ends: np.ndarray, commas: np.ndarray) -> DataError:
    """The error of the first scene body line with a carriage return before
    its end, or else of the first line without six fields."""
    returns = np.flatnonzero(chars == CR[0])
    bare = returns[chars[returns + 1] != LF[0]]
    if bare.size:
        line = int(np.searchsorted(ends, bare[0])) + 2
        return DataError(f"{path}, line {line}: carriage return without a line feed")
    fields = np.diff(np.searchsorted(commas, ends), prepend=0) + 1
    i = int(np.argmax(fields != len(SCENE_HEADER)))
    return DataError(f"{path}, line {i + 2}: expected {len(SCENE_HEADER)} fields, got {fields[i]}")


def _check_scene_lines(path: Path, text: str) -> None:
    """Raise the DataError of the first scene body line that does not parse."""
    for number, line in enumerate(text.split("\n")[:-1], start=2):
        try:
            for field in line.split(",", 2)[:2]:
                if not (SCENE_INT_FIELD.fullmatch(field) and -(2**63) <= int(field) < 2**63):
                    raise ValueError(f"could not convert string {field!r} to int64")
            np.loadtxt([line], delimiter=",", dtype=SCENE_DTYPE, comments=None)
        except ValueError as exc:
            raise DataError(f"{path}, line {number}: {exc}") from None


def _read_bytes(path: Path) -> bytes:
    """A file's bytes; a file that cannot be read is a DataError."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None


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
    tracks: Sequence[Track],
    segment_len: int = default("data.segment_len"),
    ratio: str = default("data.split_ratio"),
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
    scene: Scene,
    lateral_range_m: float = default("data.straight.lateral_range_m"),
    speed_std: float = default("data.straight.speed_std"),
) -> bool:
    """Reference agent stays within a small lateral band at near-constant speed."""
    positions = scene.ego.positions
    lateral_span = float(positions[:, 0].max() - positions[:, 0].min())
    speeds = _speed(positions, scene.frame_rate) if scene.ego.speeds is None else scene.ego.speeds
    return lateral_span < lateral_range_m and float(np.std(speeds)) < speed_std


def filter_straight(
    scenes: Sequence[Scene],
    fraction: float = default("data.straight.fraction"),
    rng: np.random.Generator | None = None,
    lateral_range_m: float = default("data.straight.lateral_range_m"),
    speed_std: float = default("data.straight.speed_std"),
) -> list[Scene]:
    """Downsample straight constant-velocity scenes to `fraction`; keep the rest."""
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
    t_0 = start + history_len - 1; the closest `max_neighbors` are kept,
    ties going to the lower agent id, then to the earlier track.  The
    reference agent covers the whole window and each neighbor only the
    frames up to and including t_0, the part `build_sample` reads.  The
    tracks present at t_0 come from a frame index of every track row: a
    `TrackList` (as `ingest_ngsim` returns) builds it once, any other
    sequence of tracks on every call.
    """
    if not 2 <= history_len < segment.length:
        raise ConfigError(
            f"history_len must be >= 2 and below the segment length {segment.length}, got {history_len}"
        )
    track = segment.track
    frames = track.frames[segment.start : segment.start + segment.length]
    index = tracks.frame_index if isinstance(tracks, TrackList) else _FrameIndex(tracks)
    t0_frame = frames[history_len - 1]
    rows = slice(*np.searchsorted(index.frames, (t0_frame, t0_frame + 1)))  # the tracks present at t_0
    others = index.agent_ids[rows] != track.agent_id
    owner, agent_ids = index.owner[rows][others], index.agent_ids[rows][others]
    offset = index.positions[rows][others] - track.positions[segment.start + history_len - 1]
    distance = np.hypot(offset[:, 0], offset[:, 1])
    nearest = owner[np.lexsort((owner, agent_ids, distance))[:max_neighbors]]
    agents = []
    for kept, last in [(track, frames[-1])] + [(index.tracks[k], t0_frame) for k in nearest.tolist()]:
        rows = slice(*np.searchsorted(kept.frames, (frames[0], last + 1)))
        columns = (None if c is None else c[rows] for c in (kept.positions, kept.speeds, kept.accels))
        agents.append(_align(frames, kept.agent_id, kept.frames[rows], *columns)[0])
    return Scene(frames=frames, agents=agents, frame_rate=track.frame_rate)


# -- synthetic scenes -------------------------------------------------------------


def _synthetic_ego(kind: str, p: dict, rng: np.random.Generator, n_frames: int, frame_rate: float):
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
        ay_low = min(max(-accel_max, -(vy - 0.5) / horizon_s), accel_max)  # below 0.5 m/s, no braking
        ay = float(rng.uniform(ay_low, accel_max))
        vx = float(rng.uniform(-1.0, 1.0))
        ax = float(rng.uniform(-accel_max / 4.0, accel_max / 4.0))
        x = vx * tau + 0.5 * ax * tau**2
        y = vy * tau + 0.5 * ay * tau**2
    elif kind == "lane_change":
        direction = 1.0 if rng.uniform() < 0.5 else -1.0
        t_mid = float(rng.uniform(p["lane_mid_min"], p["lane_mid_max"])) * n_frames
        profile = sigmoid(p["lane_steepness"] * (np.arange(n_frames) - t_mid))
        x = direction * p["lane_offset_m"] * profile
        x = x - x[0]
        y = vy * tau
    else:  # arc
        radius = float(rng.uniform(150.0, 400.0))
        direction = 1.0 if rng.uniform() < 0.5 else -1.0
        angle = vy * tau / radius
        x = direction * radius * (1.0 - np.cos(angle))
        y = radius * np.sin(angle)
    return np.stack([x, y], axis=1)


def gen_synthetic(
    params: dict,
    n: int,
    rng: np.random.Generator,
    frame_rate: float = DEFAULT_FRAME_RATE,
    *,
    history_len: int,
) -> list[Scene]:
    """Generate `n` scenes of params['frames'] frames with closed-form ground truth.

    `params` is the `synthetic` section of a run config (`n` and
    `test_fraction` are the caller's).  const_vel is exactly degree 1 in
    the frame offset, const_acc exactly degree 2; lane_change uses a
    logistic lateral profile and arc a constant-curvature path; mixed
    cycles through the four.  Optional additive Gaussian observation noise
    via params['noise'].  params['neighbors'] parallel constant-velocity
    neighbors are present over the first `history_len` frames only, up to
    and including t_0, and zero elsewhere, as `read_scene` leaves absent
    rows.  Each range's minimum must not exceed its maximum (the config
    bounds each value).
    """
    kind, n_frames, noise, n_neighbors = params["kind"], params["frames"], params["noise"], params["neighbors"]
    if not 2 <= history_len < n_frames:
        raise ConfigError(f"history_len must be >= 2 and below the frame count {n_frames}, got {history_len}")
    for low, high in (("speed_min", "speed_max"), ("lane_mid_min", "lane_mid_max")):
        if params[low] > params[high]:
            raise ConfigError(f"synthetic.{low} {params[low]} exceeds synthetic.{high} {params[high]}")
    cycle = ("const_vel", "const_acc", "lane_change", "arc")
    in_history = np.arange(n_frames) < history_len
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
            neighbor_pos[history_len:] = 0.0
            agents.append(
                SceneAgent(
                    agent_id=j + 1,
                    present=in_history.copy(),
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
    the recorded acceleration or else the change of v from t - 1, with v
    from the same source at both frames (0 when the agent is absent at
    t - 2), theta the increment's heading, and (l, phi) the polar offset
    from the reference agent (phi 0 at l = 0).
    """
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
    accel[:, 1:] = np.where(present[:, : n - 2], np.diff(speed, axis=1) * rate, 0.0)
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


def future_at(samples: Sequence[Sample], offsets) -> np.ndarray:
    """Each sample's future positions at frame offsets: (B, T, 2) for a
    (B, T) offset matrix, one row per sample, or a (T,) row shared by all.
    An offset past a sample's future is a DataError naming the sample."""
    offsets = np.asarray(offsets, dtype=np.int64)
    offsets = np.broadcast_to(offsets, (len(samples), offsets.shape[-1]))
    truth = np.empty(offsets.shape + (2,))
    for i, (sample, row) in enumerate(zip(samples, offsets)):
        horizon = sample.future.shape[0] - 1
        if row.max() > horizon:
            raise DataError(
                f"sample {sample.sample_id}: offset {int(row.max())} beyond available future of {horizon} frames"
            )
        truth[i] = sample.future[row]
    return truth
