"""Dataset handling: NGSim-format ingestion, synthetic scenes, scene files
and model-ready samples.

A track is one agent's fixed-rate sequence of 2-D positions (x lateral, y
longitudinal, metres); `ingest_ngsim` parses an NGSim CSV's six used
columns in one `np.loadtxt`, sorts the rows by (vehicle, frame), cuts
each vehicle's rows into tracks at frame gaps and returns them as one
`Tracks` row table.  Tracks are cut into fixed-length segments and split
temporally into train and test, a split being one array of segment rows.
In whole-array passes, `filter_straight` thins the straight segments and
`build_scene` turns a split's segments into one `Scenes` batch: per
segment a window of frames with one reference agent and its nearest
neighbours at t_0, which are the tracks at that frame, found in the
table's frame order.  `gen_synthetic` builds a batch directly from the
`synthetic` section of a run config.  A batch holds arrays over (scene,
agent, frame), the reference agent in row 0, padded with absent agents
and frames.  The reference agent covers its scene's window, each
neighbour only the first `history_len` frames, up to and including t_0:
the model reads every agent's history but the future of the reference
agent alone, so a neighbour's future would be written, parsed and never
used.  This module alone knows a data directory's format: per split, CSV
files, one per scene and one row per present (agent, frame), an empty v
or a field for a value not recorded, and a `manifest.json` with each
file's sha256 and the scenes' `history_len` and frame rate.
`write_data_dir` writes each split's files `SPLIT_CHUNK` at a time, then
the manifest.  For each chunk, a slice of the batch, it gathers the
present cells into one row table by one `np.nonzero`, formats each column
whole, each distinct value once (floats keyed by their bits), and writes
each file at once; `write_scene` is its one-file case.  `read_split` loads
a split: it checks the manifest, takes only the files it lists, and reads
them `SPLIT_CHUNK` at a time.  For each chunk it checks
each file's sha256, ASCII and header, joins the bodies, checks their
lines and fields at once and parses them in one `np.loadtxt` (an empty
field reads as 0).  It then numbers each file's agents by first
appearance, finds every row's window slot by one `searchsorted`, checks
all rows at once and scatters them into a batch, whose samples
`build_sample` computes in one feature pass, angles by numpy's `arctan2`,
and `read_split` copies into the split's table.  `read_scene` is that
code's one-file case, and a chunk with a fault is read again file by file
for the first file's error.  Both parsers accept plain comma-separated
numbers only, with no quoting.  A split's samples are one `Samples`
table: per-agent state histories plus the reference agent's future in its
own frame at the current time step, padded over agents and frames.  A
model batch is a selection of its rows; `future_at` reads the future at
frame offsets in one gather for the loss and the metrics.  Keyword
defaults, such as a frame rate or a segment length, read
`config.DEFAULTS`; none is written here.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import sigmoid
from .config import default, parse_ratio
from .errors import ConfigError, DataError, ShapeError
from .files import write_bytes

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

SCENE_GLOB = "scene_*.csv"  # a split's scene files, named by `write_data_dir`
MANIFEST = "manifest.json"  # a data directory's record of its scenes, written by `write_data_dir`
# scene files `read_split` parses, and `write_data_dir` formats, in one pass; a
# whole split at once held its text and arrays together, which raised the
# loader's peak memory by half
SPLIT_CHUNK = 16


TRACK_ARRAYS = ("agent_ids", "bounds", "frames", "positions", "speeds", "accels", "recorded")


@dataclass
class Tracks:
    """Every track as one row table: track k holds rows
    `bounds[k]:bounds[k + 1]`, its frames increasing.

    `agent_ids` (T,), `bounds` (T + 1,) and `frames` (R,) are int64;
    `positions` (R, 2), `speeds` (R,) and `accels` (R,) float64; `recorded`
    (2, T) bool, as each scene's `Scenes.recorded`, with 0 for a value not
    recorded.
    Derived: `owner` (R,), each row's track, and `by_frame` (R,), the rows
    in frame order, ties in table order.  The rules for one track (2 rows
    or more, one frame step, finite values) are checked by `ingest_ngsim`."""

    agent_ids: np.ndarray
    bounds: np.ndarray
    frames: np.ndarray
    positions: np.ndarray
    speeds: np.ndarray
    accels: np.ndarray
    recorded: np.ndarray
    frame_rate: float = DEFAULT_FRAME_RATE

    def __post_init__(self):
        t, r = self.agent_ids.size, self.frames.size
        shapes = tuple(np.shape(getattr(self, name)) for name in TRACK_ARRAYS)
        if shapes != ((t,), (t + 1,), (r,), (r, 2), (r,), (r,), (2, t)):
            raise DataError(f"track arrays {dict(zip(TRACK_ARRAYS, shapes))} do not fit {t} tracks of {r} rows")
        lengths = np.diff(self.bounds)
        if self.bounds[0] != 0 or self.bounds[-1] != r or np.any(lengths < 0):
            raise DataError(f"track bounds must run from 0 to {r} without decreasing")
        self.owner = np.repeat(np.arange(t), lengths)
        self.by_frame = np.argsort(self.frames, kind="stable")

    def __len__(self) -> int:
        return self.agent_ids.size


SCENE_ARRAYS = ("frames", "agent_ids", "present", "positions", "speeds", "accels", "recorded")


@dataclass
class Scenes:
    """N scenes, each a window of frames with arrays over (agent, frame),
    the reference agent in row 0, padded with absent agents and frames to
    the most agents A and the longest window W.

    `frames` (N, W) and `agent_ids` (N, A) are int64; `present` (N, A, W) is
    bool, `positions` (N, A, W, 2), `speeds` and `accels` (N, A, W) float64.
    `recorded` (N, 2, A) is bool and says whether an agent records its speed
    (row 0) and its acceleration (row 1); values an agent does not record
    are 0, every value is 0 where its agent is absent, and padding agents
    record nothing.  The reference agent is present on a prefix of the
    window, its scene's own.
    `build_scene` and `gen_synthetic` leave each neighbor absent after t_0,
    the last of the `history_len` history frames, since a sample never
    reads a neighbor's future.  Derived: `lengths` (N,), the windows, and
    `counts` (N,), the agents up to the last one present at a frame.
    Indexing by a slice, an index array or a boolean mask selects scenes."""

    frames: np.ndarray
    agent_ids: np.ndarray
    present: np.ndarray
    positions: np.ndarray
    speeds: np.ndarray
    accels: np.ndarray
    recorded: np.ndarray
    frame_rate: float = DEFAULT_FRAME_RATE

    def __post_init__(self):
        n, a, w = np.shape(self.present) if np.ndim(self.present) == 3 else (None,) * 3
        shapes = tuple(np.shape(getattr(self, name)) for name in SCENE_ARRAYS)
        if shapes != ((n, w), (n, a), (n, a, w), (n, a, w, 2), (n, a, w), (n, a, w), (n, 2, a)):
            raise DataError(f"scene arrays {dict(zip(SCENE_ARRAYS, shapes))} do not fit {n} scenes of {a} agents "
                            f"on {w} frames")
        reference = self.present[:, :1].any(axis=1)  # (N, W), all False for a scene without agents
        self.lengths = np.count_nonzero(reference, axis=1)
        if np.any(self.lengths == 0) or np.any(reference != (np.arange(w) < self.lengths[:, None])):
            raise DataError("the reference agent must be present on a prefix of the window, from its first frame")
        self.counts = np.max(np.where(self.present.any(axis=2), np.arange(1, a + 1), 0), axis=1, initial=0)

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, rows) -> Scenes:
        return Scenes(*(getattr(self, name)[rows] for name in SCENE_ARRAYS), self.frame_rate)


SAMPLE_ARRAYS = ("states", "mask", "counts", "future", "horizons", "sample_ids")


@dataclass
class Samples:
    """N model-ready samples as one table, padded to the most agents A and
    the longest future H, and zero wherever a sample has no agent or no
    frame: state histories per agent plus the reference agent's future
    positions relative to its own position at t_0.

    `states` (N, A, S, STATE_DIM) and `mask` (N, A, S), 1.0 where a state
    is valid, hold the S history steps of each agent, the reference agent
    in slot 0; `future` (N, H + 1, 2), row 0 the origin, is float64 too.
    `counts` (N,), each sample's agent count, `horizons` (N,), each one's
    future frames, and `sample_ids` (N,) are int64.  Indexing by a slice,
    an index array or a boolean mask selects rows."""

    states: np.ndarray
    mask: np.ndarray
    counts: np.ndarray
    future: np.ndarray
    horizons: np.ndarray
    sample_ids: np.ndarray

    def __len__(self) -> int:
        return self.counts.size

    def __getitem__(self, rows) -> Samples:
        return Samples(*(getattr(self, name)[rows] for name in SAMPLE_ARRAYS))


# -- ingestion ----------------------------------------------------------------


def ingest_ngsim(csv_path, frame_rate: float = DEFAULT_FRAME_RATE) -> Tracks:
    """Read an NGSim-format CSV into one `Tracks` table (feet -> metres).

    The header is read with the csv module; the body is parsed by one
    `np.loadtxt` over the six `NGSIM_COLUMNS`, so it must be plain
    comma-separated ASCII: a quoted field or a non-ASCII character is a
    DataError.  Vehicle ids and frames are truncated to integers as
    `int(float(...))` does and must lie within 2**53.  Rows are sorted by
    (vehicle, frame); a repeated frame or a non-finite value is a
    DataError.  A vehicle's rows are cut into tracks wherever its frame
    step exceeds its smallest step, so each track has one frame step, and
    tracks shorter than 2 frames are dropped.  Every track records its
    speed and acceleration.  A file that cannot be read is a DataError.
    """
    path = Path(csv_path)
    header, has_rows, plain = _ngsim_header(path)
    if not header:
        raise DataError(f"empty CSV: {path}")
    for column in NGSIM_COLUMNS:
        if column not in header:
            raise DataError(f"missing column '{column}' in {path}")
    columns = [header.index(column) for column in NGSIM_COLUMNS]
    values = None if has_rows else np.empty((0, len(columns)))
    # a quoted comma would shift the columns read, and numpy's text parser
    # misreads, or crashes on, some non-ASCII characters
    if plain and has_rows:
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
    new_piece = np.ones(frames.size, dtype=bool)  # a track starts at row 0, a new vehicle and a gap
    new_piece[1:] = gap | ~same_vehicle
    starts = np.flatnonzero(new_piece)
    lengths = np.diff(starts, append=frames.size)
    kept = lengths >= 2
    splits, dropped = int(np.count_nonzero(gap)), int(np.count_nonzero(~kept))
    if splits or dropped:
        log.warning("split tracks at %d frame gap(s); dropped %d piece(s) shorter than 2 frames", splits, dropped)
    rows = np.repeat(kept, lengths)
    data = data[rows]
    return Tracks(vehicles[starts[kept]], np.concatenate([[0], np.cumsum(lengths[kept])]), frames[rows],
                  data[:, :2], data[:, 2], data[:, 3], np.ones((2, np.count_nonzero(kept)), dtype=bool), frame_rate)


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


def write_scene(scene: Scenes, path) -> str:
    """Write a one-scene batch as one scene file, as `write_data_dir` writes
    each file of a split, and return the sha256 of the bytes written."""
    (digest,) = _write_scenes(scene, [Path(path)])
    return digest


def write_data_dir(data_dir, splits: dict[str, Scenes], history_len: int, frame_rate: float, **origin) -> dict:
    """Write a data directory and return its manifest: each split's scenes
    as `SPLIT/scene_00000.csv` on, in place of any scene files the split
    directory holds, then `manifest.json`, which is removed first so that a
    failed write leaves none.  The manifest holds `history_len` and
    `frame_rate`, each split's scene count and their total under `scenes`,
    each file's sha256 under `files` and the keys of `origin`.

    A file holds the header, then one row per present (agent, frame):
    the reference agent's rows first, then each neighbor's, with "\\r\\n"
    line ends.  Ids and frames are written by str and floats by repr, so
    that they round-trip; a v or a field is empty for an agent that does
    not record the value.  Scenes are written `SPLIT_CHUNK` at a time, each
    chunk, a slice of the batch, in one pass of `_write_scenes`.
    """
    data_dir = Path(data_dir)
    (data_dir / MANIFEST).unlink(missing_ok=True)
    files = {}
    for split, scenes in splits.items():
        split_dir = data_dir / split
        split_dir.mkdir(parents=True, exist_ok=True)
        for stale in split_dir.glob(SCENE_GLOB):
            stale.unlink()
        files[split] = {}
        for start in range(0, len(scenes), SPLIT_CHUNK):
            chunk = scenes[start : start + SPLIT_CHUNK]
            paths = [split_dir / f"scene_{i:05d}.csv" for i in range(start, start + len(chunk))]
            files[split].update(zip((path.name for path in paths), _write_scenes(chunk, paths)))
    counts = {split: len(names) for split, names in files.items()}
    manifest = {**origin, "history_len": history_len, "frame_rate": frame_rate,
                "scenes": {**counts, "total": sum(counts.values())}, "files": files}
    write_bytes(data_dir / MANIFEST, (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("ascii"))
    return manifest


def _write_scenes(scenes: Scenes, paths: list[Path]) -> list[str]:
    """Write each scene to its path, each file's text encoded once for its
    write and its sha256; returns the sha256s.

    The present cells, `np.nonzero(scenes.present)` in scene, agent and
    frame order, are gathered into one SCENE_DTYPE table, with (2, R) flags
    for a recorded v and a, and each column is formatted whole, each
    distinct value once: floats are told apart by their bits, so -0.0
    stays "-0.0", and only recorded v and a values are formatted."""
    scene, agent, slot = np.nonzero(scenes.present)
    table = np.empty(scene.size, SCENE_DTYPE)
    table["agent_id"], table["frame"] = scenes.agent_ids[scene, agent], scenes.frames[scene, slot]
    table["x"], table["y"] = scenes.positions[scene, agent, slot].T
    table["v"], table["a"] = scenes.speeds[scene, agent, slot], scenes.accels[scene, agent, slot]
    recorded = scenes.recorded[scene, :, agent].T
    columns = [_formatted(table[name], str) for name in ("agent_id", "frame")]
    columns += [_formatted(table[name], repr) for name in ("x", "y")]
    for name, kept in zip("va", recorded):
        column = np.full(table.size, "", dtype=object)
        column[kept] = _formatted(table[name][kept], repr)
        columns.append(column)
    ends = np.cumsum(np.bincount(scene, minlength=len(scenes))).tolist()
    digests = []
    for path, start, end in zip(paths, [0, *ends], ends):
        lines = map(",".join, zip(*(column[start:end].tolist() for column in columns)))
        data = "\r\n".join([",".join(SCENE_HEADER), *lines, ""]).encode("ascii")
        write_bytes(path, data)
        digests.append(hashlib.sha256(data).hexdigest())
    return digests


def _formatted(values: np.ndarray, fmt) -> np.ndarray:
    """`fmt` of each value, as an object array, with each distinct value
    formatted once; floats are keyed by their float64 bits."""
    values = np.ascontiguousarray(values)
    keys = values.view(np.int64) if values.dtype == np.float64 else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    text = np.array(list(map(fmt, distinct.view(values.dtype).tolist())), dtype=object)
    return text[inverse.reshape(-1)]


def read_split(data_dir, split: str, history_len: int, frame_rate: float = DEFAULT_FRAME_RATE) -> Samples:
    """The samples of a split of a data directory, its scene files in name
    order numbered from 0, as one table.

    The directory's manifest must be readable, list the split's files and
    record the `history_len` and `frame_rate` asked for, or else the scenes
    were built for other features: a ConfigError.  The split must hold
    exactly the files listed, each with the sha256 listed.  Files are read
    `SPLIT_CHUNK` at a time, each chunk in one pass of `read_scene`'s
    checks and one of `build_sample`'s features, its samples copied into
    the table.  A chunk with a fault is read again one file at a time, so
    the error is that of the first faulty file, as a loop of `read_scene`
    over every file and then `build_sample` over every scene raises first.
    """
    data_dir = Path(data_dir)
    split_dir = data_dir / split
    if not split_dir.is_dir():
        raise DataError(f"no {split} split under {data_dir}; run generate first")
    asked = {"history_len": history_len, "frame_rate": frame_rate}
    try:
        manifest = json.loads((data_dir / MANIFEST).read_text())
        generated = {key: manifest[key] for key in asked}
        digests = manifest["files"][split]
        if not isinstance(digests, dict):
            raise TypeError(f"files.{split} is not an object")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{data_dir} has no readable {MANIFEST} with a history_len, frame_rate and "
                        f"{split} scene file digests ({exc!r}); run generate again") from None
    for key, value in generated.items():
        if asked[key] != value:
            raise ConfigError(f"data.{key} is {asked[key]}, but {data_dir} was generated with "
                              f"data.{key}={value}; use that or run generate again")
    held = sorted(split_dir.glob(SCENE_GLOB))
    if not held:
        raise DataError(f"no scene files in {split_dir}")
    if len(held) != len(digests):
        raise DataError(f"{split_dir} holds {len(held)} scene files, but its manifest lists {len(digests)}; "
                        "run generate again")
    for path in held:
        if path.name not in digests:
            raise DataError(f"{path} is not listed in its manifest; run generate again")
    table, no_future = None, None
    for start in range(0, len(held), SPLIT_CHUNK):
        chunk = held[start : start + SPLIT_CHUNK]
        try:
            scenes = _read_scenes(chunk, frame_rate, [digests[path.name] for path in chunk])
        except DataError:
            for path in chunk:
                _read_scenes([path], frame_rate, [digests[path.name]])
            raise
        if no_future is None:
            try:
                table = _filled(table, len(held), start, build_sample(scenes, history_len, start))
            except DataError as exc:  # raised once every file is read, as a file's fault comes first
                no_future = exc
        del scenes  # so that the next chunk is read without this one's arrays
    if no_future is not None:
        raise no_future
    return table


def _filled(table: Samples | None, rows: int, start: int, block: Samples) -> Samples:
    """`table` with `block` copied into its rows from `start` on, in their
    leading agent slots and future frames.  When there is no table, or when
    `block` has more agents or a longer future, a zero table of `rows` rows
    takes its place first, with the rows filled so far copied in."""
    held = block[:0] if table is None else table[:start]
    shapes = [(rows, *np.maximum(getattr(block, name).shape[1:], getattr(held, name).shape[1:]).tolist())
              for name in SAMPLE_ARRAYS]
    if table is None or shapes != [getattr(table, name).shape for name in SAMPLE_ARRAYS]:
        zeros = Samples(*(np.zeros(shape, getattr(block, name).dtype) for shape, name in zip(shapes, SAMPLE_ARRAYS)))
        table = _filled(zeros, rows, 0, held)
    for name in SAMPLE_ARRAYS:
        part = getattr(block, name)
        getattr(table, name)[(slice(start, start + len(block)), *map(slice, part.shape[1:]))] = part
    return table


def read_scene(path, frame_rate: float = DEFAULT_FRAME_RATE) -> Scenes:
    """Read a scene file as a one-scene batch; the first agent block is the
    reference agent, whose frames, strictly increasing, make the window.

    The file is read once and its body parsed by one `np.loadtxt` into
    int64 ids and frames and float64 values.  Lines end in "\\n" or
    "\\r\\n" and hold exactly six plain comma-separated ASCII fields: a
    blank line, a bare "\\r", a quoted field or a non-ASCII byte is a
    DataError.  The agent id and frame must be integers within int64 (a
    fraction or an exponent is a DataError, whatever numpy's version and
    warning filters).  An empty v or a field means "not recorded": an
    agent with one such field in a column does not record that value, and
    it reads 0 at each of its frames.  Every other value must be a finite
    number.  Rows are grouped by agent id in order of first appearance; an
    agent's rows need not be adjacent.  A file that cannot be read is a
    DataError.
    """
    return _read_scenes([Path(path)], frame_rate)


def _read_scenes(paths: list[Path], frame_rate: float, digests: Sequence[str] | None = None) -> Scenes:
    """One batch of the scenes of `paths`, read as `read_scene` reads one
    file, each file's bytes checked against its sha256 in `digests` if given.

    The files' bodies are checked and parsed as one table, the agents of
    each file numbered by first appearance in that file, and the rows
    scattered into (scene, agent, frame) arrays in one pass.  The error of
    a fault names the file for one path and the chunk's first path for
    more; `read_split` reads a faulty chunk again file by file."""
    where = paths[0] if len(paths) == 1 else f"{paths[0]} (chunk of {len(paths)} files)"
    bodies = [_scene_body(path, digest) for path, digest in zip(paths, digests or [None] * len(paths))]
    table, v_empty, a_empty = _scene_table(where, b"".join(bodies))
    ids, frames = table["agent_id"], table["frame"]
    rows = np.array([body.count(LF) for body in bodies])
    scene = np.repeat(np.arange(rows.size), rows)
    new_run = np.ones(ids.size, dtype=bool)  # runs of rows of one agent in one file
    new_run[1:] = (ids[1:] != ids[:-1]) | (scene[1:] != scene[:-1])
    run_scene, run_ids = scene[new_run], ids[new_run]
    _, first_run, run_agent = np.unique(np.stack([run_scene, run_ids], axis=1), axis=0, return_index=True,
                                        return_inverse=True)
    appearance = np.empty_like(first_run)  # agents numbered by first appearance, file by file
    appearance[np.argsort(first_run)] = np.arange(first_run.size)
    counts = np.bincount(run_scene[first_run], minlength=rows.size)
    run_agent = appearance[run_agent.reshape(-1)] - (np.cumsum(counts) - counts)[run_scene]  # within its file
    agent_ids = np.zeros((rows.size, counts.max()), dtype=np.int64)
    agent_ids[run_scene, run_agent] = run_ids
    agent = run_agent[np.cumsum(new_run) - 1]
    reference = agent == 0
    window, window_scene = frames[reference], scene[reference]
    if np.any((window[1:] <= window[:-1]) & (window_scene[1:] == window_scene[:-1])):
        raise DataError(f"{where}: reference agent's frames are not strictly increasing")
    lengths = np.bincount(window_scene, minlength=rows.size)
    # each row's window slot by one search over (file, frame rank) keys, exact for any int64 frame
    key, window_start = scene * frames.size + np.unique(frames, return_inverse=True)[1], np.cumsum(lengths) - lengths
    at, on_window = _search(key[reference], key, window_start[scene] + lengths[scene] - 1)
    slot = at - window_start[scene]
    shape = (rows.size, agent_ids.shape[1], lengths.max())
    windows = np.zeros(shape[::2], dtype=np.int64)
    windows[window_scene, slot[reference]] = window
    present = np.zeros(shape, dtype=bool)
    present[scene, agent, slot] = True
    positions = np.zeros(shape + (2,))
    positions[scene, agent, slot, 0] = table["x"]
    positions[scene, agent, slot, 1] = table["y"]
    recorded = np.array([np.arange(shape[1]) < counts[:, None]] * 2)  # v, a: if all rows of an agent in use do
    recorded[0, scene[v_empty], agent[v_empty]] = False
    recorded[1, scene[a_empty], agent[a_empty]] = False
    speeds, accels = np.zeros(shape), np.zeros(shape)
    for block, name, kept in zip((speeds, accels), "va", recorded):
        block[scene, agent, slot] = np.where(kept[scene, agent], table[name], 0.0)
    # every row on a window frame of its own, and every recorded value finite
    if (not on_window.all() or np.count_nonzero(present) < frames.size
            or not all(np.isfinite(block).all() for block in (positions, speeds, accels))):
        flat = scene * shape[1] + agent  # each row's agent among all files' padded agents
        raise _scene_fault(where, table, agent_ids.ravel(), flat, ~on_window, present.reshape(-1, shape[2]),
                           recorded.reshape(2, -1))
    return Scenes(windows, agent_ids, present, positions, speeds, accels, recorded.transpose(1, 0, 2), frame_rate)


def _scene_fault(where, table, agent_ids, agent, outside, present, recorded) -> DataError:
    """The error of the first agent with a fault, for its first fault in
    this order: a frame outside the window (its first such frame in file
    order), a duplicate frame, a non-finite value."""
    frames = table["frame"]
    finite = np.isfinite(table["x"]) & np.isfinite(table["y"])
    finite &= (np.isfinite(table["v"]) | ~recorded[0][agent]) & (np.isfinite(table["a"]) | ~recorded[1][agent])
    duplicate = np.count_nonzero(present, axis=1) < np.bincount(agent, minlength=agent_ids.size)
    faulty = duplicate.copy()
    faulty[agent[outside | ~finite]] = True
    k = int(np.argmax(faulty))
    outside = outside[agent == k]
    if outside.any():
        frame = int(frames[agent == k][np.argmax(outside)])
        return DataError(f"{where}: scene agent {agent_ids[k]} has frame {frame} outside the window")
    if duplicate[k]:
        return DataError(f"{where}: scene agent {agent_ids[k]} has a duplicate frame")
    return DataError(f"{where}: scene agent {agent_ids[k]} has a non-finite value")


def _scene_body(path: Path, digest: str | None) -> bytes:
    """A scene file's body, ending in a line feed, after the file's checks
    of its own: its sha256 if `digest` is given, ASCII, the header and at
    least one row."""
    raw = _read_bytes(path)
    if digest is not None and hashlib.sha256(raw).hexdigest() != digest:
        raise DataError(f"{path} has changed since generate wrote it: its sha256 is not the one its manifest "
                        "lists; run generate again")
    if not raw.isascii():  # numpy's text parser misreads, or crashes on, some non-ASCII characters
        at = int(np.argmax(np.frombuffer(raw, dtype=np.uint8) >= 0x80))
        raise DataError(f"{path}, line {raw.count(LF, 0, at) + 1}: non-ASCII byte 0x{raw[at]:02x}")
    header, _, body = raw.partition(LF)
    if header.removesuffix(CR) != SCENE_HEADER_LINE:
        raise DataError(f"bad scene header in {path}: {header.decode()!r}")
    if not body:
        raise DataError(f"scene file {path} has no rows")
    return body if body.endswith(LF) else body + LF


def _scene_table(where, body: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Body rows, each ending in a line feed, as a SCENE_DTYPE table,
    with per-row flags for an empty v and an empty a field (read as 0)."""
    chars = np.frombuffer(body, dtype=np.uint8)
    ends = (chars == LF[0]).nonzero()[0]
    starts = np.concatenate([[0], ends[:-1] + 1])
    crlf = chars[ends - 1] == CR[0]
    ends = ends - crlf  # where each line's last field ends
    commas = (chars == ord(",")).nonzero()[0]
    # every carriage return ends a line, and each line holds its own five commas
    if (np.count_nonzero(chars == CR[0]) > np.count_nonzero(crlf) or commas.size != ends.size * 5
            or np.any(commas[::5] < starts) or np.any(commas[4::5] > ends)):
        raise _scene_line_error(where, chars, ends, commas)
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
    if suspect:
        _check_scene_lines(where, body.decode())
    try:  # bytes, not a str of 4 bytes a character, keep the parser's input small
        table = np.loadtxt(io.BytesIO(body), delimiter=",", dtype=SCENE_DTYPE, comments=None, ndmin=1,
                           encoding="ascii")
    except ValueError as exc:
        _check_scene_lines(where, body.decode())
        raise DataError(f"{where}: {exc}") from None
    return table, v_empty, a_empty


def _scene_line_error(where, chars: np.ndarray, ends: np.ndarray, commas: np.ndarray) -> DataError:
    """The error of the first scene body line with a carriage return before
    its end, or else of the first line without six fields."""
    returns = np.flatnonzero(chars == CR[0])
    bare = returns[chars[returns + 1] != LF[0]]
    if bare.size:
        line = int(np.searchsorted(ends, bare[0])) + 2
        return DataError(f"{where}, line {line}: carriage return without a line feed")
    fields = np.diff(np.searchsorted(commas, ends), prepend=0) + 1
    i = int(np.argmax(fields != len(SCENE_HEADER)))
    return DataError(f"{where}, line {i + 2}: expected {len(SCENE_HEADER)} fields, got {fields[i]}")


def _check_scene_lines(where, text: str) -> None:
    """Raise the DataError of the first scene body line that does not parse."""
    for number, line in enumerate(text.split("\n")[:-1], start=2):
        try:
            for field in line.split(",", 2)[:2]:
                if not (SCENE_INT_FIELD.fullmatch(field) and -(2**63) <= int(field) < 2**63):
                    raise ValueError(f"could not convert string {field!r} to int64")
            np.loadtxt([line], delimiter=",", dtype=SCENE_DTYPE, comments=None)
        except ValueError as exc:
            raise DataError(f"{where}, line {number}: {exc}") from None


def _read_bytes(path: Path) -> bytes:
    """A file's bytes; a file that cannot be read is a DataError."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None


# -- segmentation, splitting, filtering -----------------------------------------


def segment_and_split(
    tracks: Tracks,
    segment_len: int = default("data.segment_len"),
    ratio: str = default("data.split_ratio"),
) -> tuple[np.ndarray, np.ndarray]:
    """Cut each track of `tracks`, as long as its row count, into
    non-overlapping segments and split temporally; a split is one
    (K, segment_len) int64 array whose row k holds the `tracks` rows of
    segment k, in track and then time order.

    Within each track the later segments go to test; the test count is
    ceil(total * test_share), so a 3:1 ratio sends the last quarter
    (rounded up) of each track's segments to the test set.
    """
    train_share, test_share = parse_ratio(ratio)
    # in Python ints, as segment_len may be past int64; the widest int64 array is longer than any track too
    width = min(segment_len, np.iinfo(np.intp).max // np.dtype(np.int64).itemsize)
    totals = np.diff(tracks.bounds) // width
    if not totals.all():
        log.warning("skipped %d track(s) shorter than %d frames", np.count_nonzero(totals == 0), segment_len)
    # ceil, in Python ints, as a share may exceed int64
    n_test = (-(-totals.astype(object) * test_share // (train_share + test_share))).astype(np.int64)
    track = np.repeat(np.arange(totals.size), totals)
    index = np.arange(track.size) - np.repeat(np.cumsum(totals) - totals, totals)  # within its track
    starts = tracks.bounds[track] + index * width
    # no segment, no row offsets: segment_len may exceed every track
    segments = starts[:, None] + np.arange(width) if starts.size else np.zeros((0, width), np.int64)
    test = index >= (totals - n_test)[track]
    return segments[~test], segments[test]


def _speed(delta: np.ndarray, frame_rate: float) -> np.ndarray:
    """Speed from position increments: (..., 2) -> (...)."""
    return np.hypot(delta[..., 0], delta[..., 1]) * frame_rate


def is_straight_constant_velocity(
    segments: np.ndarray,
    tracks: Tracks,
    lateral_range_m: float = default("data.straight.lateral_range_m"),
    speed_std: float = default("data.straight.speed_std"),
) -> np.ndarray:
    """Whether each segment's agent, the reference agent of its scene, stays
    within a small lateral band at near-constant speed: (K,) bool for a
    (K, L) row array.  Only the segments' own rows of `tracks` are read;
    the recorded speeds of a track that has them, else the derived ones."""
    positions = tracks.positions[segments]
    lateral_span = np.max(positions[..., 0], axis=1) - np.min(positions[..., 0], axis=1)
    spread = np.std(tracks.speeds[segments], axis=1)
    derived = np.flatnonzero(~tracks.recorded[0, tracks.owner[segments[:, 0]]])
    if derived.size:  # a one-frame segment derives no speed, whose std would warn
        spread[derived] = np.std(_speed(np.diff(positions[derived], axis=1), tracks.frame_rate), axis=1)
    return (lateral_span < lateral_range_m) & (spread < speed_std)


def filter_straight(
    segments: np.ndarray,
    tracks: Tracks,
    fraction: float,
    rng: np.random.Generator,
    lateral_range_m: float = default("data.straight.lateral_range_m"),
    speed_std: float = default("data.straight.speed_std"),
) -> np.ndarray:
    """Downsample straight constant-velocity segments to `fraction`; keep
    the rest, in order.  Only the reference agent decides, so segments are
    chosen before their scenes are built."""
    straight = np.flatnonzero(is_straight_constant_velocity(segments, tracks, lateral_range_m, speed_std))
    keep_count = int(straight.size * fraction + 0.5)
    if keep_count == straight.size:
        return segments
    dropped = np.delete(straight, rng.choice(straight.size, size=keep_count, replace=False))
    return np.delete(segments, dropped, axis=0)


def _search(keys: np.ndarray, queries: np.ndarray, last) -> tuple[np.ndarray, np.ndarray]:
    """Each query's index in the increasing `keys`, at most `last`, and
    whether the key there is the query: keys are (group, frame rank) pairs
    as `group * frames.size + rank`, ranks of the frames of a row table."""
    at = np.minimum(np.searchsorted(keys, queries), last)
    return at, keys[at] == queries


def build_scene(segments: np.ndarray, tracks: Tracks, history_len: int, max_neighbors: int) -> Scenes:
    """Materialize segments of `tracks`, a (N, L) row array as
    `segment_and_split` returns, into one batch of scenes, each with its
    nearest neighbors.

    Neighbors must be present at the reference agent's current frame t_0,
    that of row `segments[:, history_len - 1]`; the closest `max_neighbors`
    are kept, ties going to the lower agent id, then to the earlier track.
    The tracks present at each t_0 are the rows at that frame, found in the
    table's frame order `tracks.by_frame`, and every scene's are ranked by
    one sort.  The reference agent covers the whole window and each
    neighbor only the frames up to and including t_0, the part
    `build_sample` reads, found by one search over (track, frame) keys.
    The batch is padded to the most agents a scene has, so `max_neighbors`
    needs no end.
    """
    n, length = segments.shape
    if not 2 <= history_len < length:
        raise ConfigError(f"history_len must be >= 2 and below the segment length {length}, got {history_len}")
    reference, t0 = tracks.owner[segments[:, 0]], segments[:, history_len - 1]
    # each scene's candidates: its run of the frame order at t_0, less the reference agent's tracks
    t0_frames = tracks.frames[t0]
    first, stop = np.searchsorted(tracks.frames, (t0_frames, t0_frames + 1), sorter=tracks.by_frame)
    runs = stop - first
    scene = np.repeat(np.arange(n), runs)
    rows = tracks.by_frame[np.arange(scene.size) + np.repeat(first - np.cumsum(runs) + runs, runs)]
    other = tracks.agent_ids[tracks.owner[rows]] != tracks.agent_ids[reference[scene]]
    scene, rows = scene[other], rows[other]
    owner = tracks.owner[rows]
    offset = tracks.positions[rows] - tracks.positions[t0[scene]]
    order = np.lexsort((owner, tracks.agent_ids[owner], np.hypot(offset[:, 0], offset[:, 1]), scene))
    found = np.bincount(scene, minlength=n)
    rank = np.arange(order.size) - np.repeat(np.cumsum(found) - found, found)  # within its scene
    kept = rank < min(max_neighbors, order.size)
    scene, owner, slot = scene[order[kept]], owner[order[kept]], rank[kept] + 1
    counts = 1 + np.bincount(scene, minlength=n)
    shape = (n, int(counts.max(initial=1)), length)
    # a neighbour's (track, frame rank) key at a history frame is the reference agent's there, moved to its track
    keys = tracks.owner * tracks.frames.size + np.unique(tracks.frames, return_inverse=True)[1]
    shift = (owner - reference[scene]) * tracks.frames.size
    at, landed = _search(keys, keys[segments[scene, :history_len]] + shift[:, None], keys.size - 1)
    cells = ((scene * shape[1] + slot) * length)[:, None] + np.arange(history_len)  # flat (scene, agent, frame)
    cells, at = cells[landed], at[landed]
    agent = np.zeros(shape[:2], dtype=np.int64)  # each slot's track
    agent[:, 0], agent[scene, slot] = reference, owner
    in_use = np.arange(shape[1]) < counts[:, None]
    blocks = []
    for values in (np.ones(tracks.frames.size, dtype=bool), tracks.positions, tracks.speeds, tracks.accels):
        block = np.zeros(shape + values.shape[1:], values.dtype)
        block[:, 0] = values[segments]
        block.reshape(-1, *values.shape[1:])[cells] = values[at]
        blocks.append(block)
    return Scenes(tracks.frames[segments], np.where(in_use, tracks.agent_ids[agent], 0), *blocks,
                  tracks.recorded[:, agent].transpose(1, 0, 2) & in_use[:, None], tracks.frame_rate)


# -- synthetic scenes -------------------------------------------------------------


def _synthetic_ego(kind: str, p: dict, rng: np.random.Generator, tau: np.ndarray):
    """Closed-form ego positions (n_frames, 2) at times `tau` (n_frames,) for
    one synthetic scene."""
    n_frames = tau.size
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


def check_indexable(shape: tuple[int, ...], keys: str) -> None:
    """A ConfigError naming `keys` if a float64 array of `shape` is past numpy's index range."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"{keys} together are past numpy's index range")


def gen_synthetic(
    params: dict,
    n: int,
    rng: np.random.Generator,
    frame_rate: float = DEFAULT_FRAME_RATE,
    *,
    history_len: int,
) -> Scenes:
    """A batch of `n` scenes of params['frames'] frames with closed-form ground truth.

    `params` is the `synthetic` section of a run config (`n` and
    `test_fraction` are the caller's).  const_vel is exactly degree 1 in
    the frame offset, const_acc exactly degree 2; lane_change uses a
    logistic lateral profile and arc a constant-curvature path; mixed
    cycles through the four.  Optional additive Gaussian observation noise
    via params['noise'].  params['neighbors'] parallel constant-velocity
    neighbors, agents 1 and up, are present over the first `history_len`
    frames only, up to and including t_0, and zero elsewhere, as
    `read_scene` leaves absent frames.  No agent records speeds or accels.
    All arrays but `positions` and `recorded` are read-only broadcasts of
    one scene's.  Each range's minimum must not exceed its maximum (the
    config bounds each value).
    """
    kind, n_frames, noise, n_neighbors = params["kind"], params["frames"], params["noise"], params["neighbors"]
    if not 2 <= history_len < n_frames:
        raise ConfigError(f"history_len must be >= 2 and below the frame count {n_frames}, got {history_len}")
    for low, high in (("speed_min", "speed_max"), ("lane_mid_min", "lane_mid_max")):
        if params[low] > params[high]:
            raise ConfigError(f"synthetic.{low} {params[low]} exceeds synthetic.{high} {params[high]}")
    shape = (int(n), 1 + n_neighbors, n_frames)
    check_indexable(shape + (2,), "synthetic.n, synthetic.neighbors and synthetic.frames")  # `positions`
    cycle = ("const_vel", "const_acc", "lane_change", "arc")
    tau = np.arange(n_frames, dtype=np.float64) / frame_rate
    present = np.zeros(shape[1:], dtype=bool)
    present[0] = True
    present[1:, :history_len] = True
    j = np.arange(n_neighbors)  # neighbour j, in row j + 1, drives j // 2 + 1 lanes right or left
    lateral = np.where(j % 2 == 0, 1.0, -1.0) * 3.5 * (j // 2 + 1)
    positions = np.zeros(shape + (2,))
    for i, scene in enumerate(positions):
        scene[0] = _synthetic_ego(cycle[i % len(cycle)] if kind == "mixed" else kind, params, rng, tau)
        if noise > 0.0:
            scene[0] += rng.normal(0.0, noise, size=(n_frames, 2))
        speed, gap = rng.uniform((8.0, -30.0), (16.0, 30.0), size=(n_neighbors, 2)).T  # speed, gap per neighbour
        scene[1:, :history_len, 0] = scene[0, 0, 0] + lateral[:, None]
        scene[1:, :history_len, 1] = gap[:, None] + speed[:, None] * tau[:history_len]
    frames = np.broadcast_to(np.arange(n_frames, dtype=np.int64), shape[::2])
    agent_ids = np.broadcast_to(np.arange(shape[1], dtype=np.int64), shape[:2])
    zeros = np.broadcast_to(0.0, shape)
    return Scenes(frames, agent_ids, np.broadcast_to(present, shape), positions, zeros, zeros,
                  np.zeros((shape[0], 2, shape[1]), dtype=bool), frame_rate)


# -- samples ---------------------------------------------------------------------


def _heading(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise angle of (x, y) in (-pi, pi]: numpy's `arctan2` on C-contiguous
    arrays, so every call takes one ufunc loop, and its -pi (at y = -0.0) sent to pi."""
    angle = np.arctan2(np.ascontiguousarray(y), np.ascontiguousarray(x))
    return np.where(angle == -np.pi, np.pi, angle)


def build_sample(scenes: Scenes, history_len: int, first_id: int = 0) -> Samples:
    """The scenes' samples, numbered from `first_id`, as one table padded as
    `scenes` is: state histories over the input window plus the reference
    agent's future, translated so the reference agent at t_0 is the origin.

    The state of an agent at frame t (1 <= t < history_len) needs it at t
    and t - 1: [dx, dy, v, alpha, theta, l, phi] with (dx, dy) the position
    increment, v the recorded speed or else the increment's speed, alpha
    the recorded acceleration or else the change of v from t - 1, with v
    from the same source at both frames (0 when the agent is absent at
    t - 2), theta the increment's heading, and (l, phi) the polar offset
    from the reference agent (phi 0 at l = 0), angles by `_heading`'s
    `np.arctan2`.  Each agent's recorded values are picked by its
    `scenes.recorded` flag, and every feature is computed for all scenes and
    agents at once.  A scene with no frame after its history is a DataError.
    """
    short = np.flatnonzero(scenes.lengths <= history_len)
    if short.size:
        raise DataError(
            f"scene length {scenes.lengths[short[0]]} leaves no future after {history_len} history frames"
        )
    n, frame_rate = history_len, scenes.frame_rate
    present = scenes.present[:, :, :n]
    positions = scenes.positions[:, :, :n]  # (S, A, n, 2)
    delta = np.diff(positions, axis=2)
    derived = _speed(delta, frame_rate)  # (S, A, n - 1), the speed at frames 1 .. n - 1
    speed = np.where(scenes.recorded[:, 0, :, None], scenes.speeds[:, :, 1:n], derived)
    accel = np.zeros_like(derived)
    accel[:, :, 1:] = np.where(present[:, :, : n - 2], np.diff(speed, axis=2) * frame_rate, 0.0)
    accel = np.where(scenes.recorded[:, 1, :, None], scenes.accels[:, :, 1:n], accel)
    rel = positions[:, :, 1:] - positions[:, :1, 1:]
    distance = np.hypot(rel[..., 0], rel[..., 1])
    bearing = np.where(distance == 0.0, 0.0, _heading(rel[..., 1], rel[..., 0]))
    features = np.stack(
        [delta[..., 0], delta[..., 1], speed, accel, _heading(delta[..., 1], delta[..., 0]), distance, bearing],
        axis=-1,
    )
    valid = present[:, :, 1:] & present[:, :, :-1]
    horizons = scenes.lengths - n
    future = scenes.positions[:, 0, n - 1 :] - scenes.positions[:, 0, n - 1 : n]
    future[np.arange(future.shape[1]) > horizons[:, None]] = 0.0  # past each window's end
    return Samples(np.where(valid[..., None], features, 0.0), valid.astype(np.float64), scenes.counts, future,
                   horizons, first_id + np.arange(horizons.size))


def future_at(samples: Samples, offsets) -> np.ndarray:
    """Each sample's future positions at frame offsets: (B, T, 2) for a
    (B, T) offset matrix, one row per sample, or a (T,) row shared by all.
    A matrix of another row count is a ShapeError, and a negative offset or
    one past a sample's future a DataError naming the first such sample."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim == 2 and offsets.shape[0] != len(samples):
        raise ShapeError(f"t_matrix rows {offsets.shape[0]} != batch size {len(samples)}")
    offsets = np.broadcast_to(offsets, (len(samples), offsets.shape[-1]))
    negative = np.flatnonzero(offsets.min(axis=1) < 0)
    if negative.size:
        i = negative[0]
        raise DataError(f"sample {samples.sample_ids[i]}: offset {offsets[i][offsets[i] < 0][0]} is negative")
    last = offsets.max(axis=1)
    beyond = np.flatnonzero(last > samples.horizons)
    if beyond.size:
        i = beyond[0]
        raise DataError(f"sample {samples.sample_ids[i]}: offset {last[i]} beyond available future of "
                        f"{samples.horizons[i]} frames")
    return samples.future[np.arange(len(samples))[:, None], offsets]
