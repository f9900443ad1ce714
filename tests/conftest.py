"""Shared test helpers: the default model, training and synthetic settings
with some fields replaced, finite-difference, loss, state, attention,
forward-pass, per-sample anchor-draw, batching and row-wise data-path
oracles, a sample table built from and viewed as per-sample rows,
hand-built samples, a one-scene batch built from per-agent rows, a
batch viewed as one-scene batches, a track table built from and viewed
as per-track rows, an anchor histogram, a zeroed model head and a
checkpoint values-line editor."""

from __future__ import annotations

import base64
import csv
import dataclasses
import math
from collections import Counter, namedtuple
from pathlib import Path

import numpy as np
import pytest

from polytraj import autodiff as ad
from polytraj.autodiff import Tensor
from polytraj.config import RunConfig
from polytraj.data import (
    DEFAULT_FRAME_RATE,
    FEET_TO_METRES,
    NGSIM_COLUMNS,
    SCENE_ARRAYS,
    SCENE_HEADER,
    STATE_DIM,
    Samples,
    Scenes,
    Tracks,
)
from polytraj.errors import DataError
from polytraj.model import (
    INPUT_SCALE,
    GRUWeights,
    ModelConfig,
    TrainSettings,
    TrajectoryModel,
    draw_schedules,
)
from polytraj.poly import VAR_FLOOR


def model_config(**fields) -> ModelConfig:
    """The default run config's ModelConfig with `fields` replaced."""
    return dataclasses.replace(ModelConfig.from_config(RunConfig()), **fields)


def train_settings(**fields) -> TrainSettings:
    """The default run config's TrainSettings with `fields` replaced."""
    return dataclasses.replace(TrainSettings.from_config(RunConfig()), **fields)


def synthetic_params(**params) -> dict:
    """The default run config's `synthetic` section with `params` replaced."""
    return {**RunConfig().section("synthetic"), **params}


def central_difference(f, array: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Independent gradient oracle: central differences of f over `array`."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        up = f()
        flat[i] = original - step
        down = f()
        flat[i] = original
        out[i] = (up - down) / (2.0 * step)
    return grad


def assert_close_to_fd(analytic: np.ndarray, numeric: np.ndarray, rel: float = 1e-4, abs_tol: float = 1e-7):
    bound = abs_tol + rel * np.maximum(np.abs(analytic), np.abs(numeric))
    gap = np.abs(analytic - numeric)
    assert np.all(gap <= bound), f"gradient mismatch: worst excess {np.max(gap - bound)}"


SampleRow = namedtuple("SampleRow", "states mask future sample_id", defaults=(0,))


def samples_of(rows) -> Samples:
    """A Samples table from per-sample rows `(states, mask, future[,
    sample_id])`: (agents, S, STATE_DIM) states, (agents, S) mask and
    (horizon + 1, 2) future, each padded with zeros."""
    rows = [SampleRow(*row) for row in rows]
    agents = max((len(row.states) for row in rows), default=0)
    steps = rows[0].states.shape[1] if rows else 0
    frames = max((len(row.future) for row in rows), default=1)
    states, mask = np.zeros((len(rows), agents, steps, STATE_DIM)), np.zeros((len(rows), agents, steps))
    future = np.zeros((len(rows), frames, 2))
    for i, row in enumerate(rows):
        states[i, : len(row.states)], mask[i, : len(row.mask)], future[i, : len(row.future)] = row[:3]
    return Samples(states, mask, np.array([len(row.states) for row in rows], dtype=np.int64), future,
                   np.array([len(row.future) - 1 for row in rows], dtype=np.int64),
                   np.array([row.sample_id for row in rows], dtype=np.int64))


def sample_rows(samples: Samples) -> list[SampleRow]:
    """Each sample of a Samples table as a `SampleRow` of views into it,
    without the padding."""
    columns = zip(samples.counts.tolist(), samples.horizons.tolist(), samples.sample_ids.tolist())
    return [SampleRow(samples.states[i, :count], samples.mask[i, :count], samples.future[i, : horizon + 1], sample_id)
            for i, (count, horizon, sample_id) in enumerate(columns)]


def oracle_collate(rows) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample rows stacked one at a time, agent slots padded with fully
    masked zeros."""
    if not rows:
        raise DataError("empty batch")
    steps = rows[0].states.shape[1]
    if any(row.states.shape[1] != steps for row in rows):
        raise DataError("samples in one batch must share the history length")
    max_agents = max(row.states.shape[0] for row in rows)
    states = np.zeros((len(rows), max_agents, steps, STATE_DIM))
    mask = np.zeros((len(rows), max_agents, steps))
    for i, row in enumerate(rows):
        a = row.states.shape[0]
        states[i, :a] = row.states
        mask[i, :a] = row.mask
    return states, mask


def oracle_future_at(rows, offsets) -> np.ndarray:
    """Each row's future at frame offsets, one row at a time: (B, T, 2)
    for a (B, T) offset matrix or a (T,) row shared by all."""
    offsets = np.asarray(offsets, dtype=np.int64)
    offsets = np.broadcast_to(offsets, (len(rows), offsets.shape[-1]))
    truth = np.empty(offsets.shape + (2,))
    for i, (row, row_offsets) in enumerate(zip(rows, offsets)):
        horizon = row.future.shape[0] - 1
        if row_offsets.max() > horizon:
            raise DataError(
                f"sample {row.sample_id}: offset {int(row_offsets.max())} beyond available future of {horizon} frames"
            )
        truth[i] = row.future[row_offsets]
    return truth


def moderate_rows(rng: np.random.Generator, n: int, agents: int = 2, steps: int = 6,
                  horizon: int = 55) -> list[SampleRow]:
    """Small random-walk samples with O(1) magnitudes, so finite differences
    are trustworthy at step 1e-3, as per-sample rows numbered from 0."""
    rows = []
    for i in range(n):
        states = rng.normal(0.0, 1.0, size=(agents, steps, 7))
        mask = np.ones((agents, steps))
        if agents > 1:
            mask[1:, :2] = 0.0  # neighbors enter two frames late
        future = np.cumsum(rng.normal(0.0, 0.08, size=(horizon + 1, 2)), axis=0)
        future[0] = 0.0
        rows.append(SampleRow(states, mask, future, i))
    return rows


def make_moderate_samples(rng: np.random.Generator, n: int, agents: int = 2, steps: int = 6,
                          horizon: int = 55) -> Samples:
    """`moderate_rows` as one Samples table."""
    return samples_of(moderate_rows(rng, n, agents, steps, horizon))


def schedule_histogram(cfg: ModelConfig, n_draws: int, rng: np.random.Generator) -> dict[int, int]:
    """Frequency of each supervised offset over n_draws anchor rows of `cfg`."""
    return dict(sorted(Counter(draw_schedules(cfg, n_draws, rng).ravel().tolist()).items()))


def oracle_random_schedules(low: int, high: int, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random anchor rows drawn one sample at a time: each last offset r by
    its own `rng.integers` call over U{low, high}, spread as (r * k) // count."""
    rows = []
    for _ in range(n):
        r = int(rng.integers(low, high + 1))
        rows.append(tuple((r * k) // count for k in range(1, count + 1)))
    return np.array(rows, dtype=np.int64)


def zero_head(model: TrajectoryModel) -> None:
    """Zero a model's output layer, so its raw output is zero for every input."""
    model.params["head.w"].data[:] = 0.0
    model.params["head.b"].data[:] = 0.0


def oracle_loss(traj, truth, offsets) -> float:
    """Independent reimplementation of the loss: explicit loops, math-module
    only, over per-frame coefficients traj.a, traj.b and sigmas traj.sigma_a,
    traj.sigma_b."""
    total = 0.0
    for t in offsets:
        for coeffs, sigmas, column in ((traj.a, traj.sigma_a, 0), (traj.b, traj.sigma_b, 1)):
            pred = sum(coeffs[j] * t ** (j + 1) for j in range(len(coeffs)))
            var = sum(sigmas[j] ** 2 * t ** (2 * (j + 1)) for j in range(len(sigmas)))
            var += VAR_FLOOR
            residual = pred - truth[t][column]
            total += 0.5 * residual**2 / var + 0.5 * math.log(2 * math.pi * var)
    return total / len(offsets)


def _angle(y: float, x: float) -> float:
    """The angle of (x, y) in (-pi, pi]: `np.arctan2` on one-element arrays,
    with -pi sent to pi."""
    angle = float(np.arctan2(np.array([y]), np.array([x]))[0])
    return math.pi if angle == -math.pi else angle


def one_scene(frames, agent_ids, present, positions, speeds, accels, recorded,
              frame_rate: float = DEFAULT_FRAME_RATE) -> Scenes:
    """A one-scene batch of one scene's arrays, without padding: `recorded`
    is (2, agents)."""
    arrays = (frames, agent_ids, present, positions, speeds, accels, recorded)
    return Scenes(*(np.asarray(array)[None] for array in arrays), frame_rate)


def each_scene(scenes: Scenes) -> list[Scenes]:
    """Each scene of a batch as a one-scene batch, a view keeping the
    batch's padding."""
    return [scenes[i : i + 1] for i in range(len(scenes))]


SceneRow = namedtuple("SceneRow", (*SCENE_ARRAYS, "frame_rate"))


def scene_rows(scenes: Scenes) -> list[SceneRow]:
    """Each scene of a batch as a `SceneRow` of views into it, padding
    kept: arrays over (agent, frame) and a (2, agents) `recorded`."""
    return [SceneRow(*(getattr(scenes, name)[i] for name in SCENE_ARRAYS), scenes.frame_rate)
            for i in range(len(scenes))]


def batch_of(scenes: list[Scenes]) -> Scenes:
    """One-scene batches stacked into one batch, each scene padded with
    absent agents and frames to the most agents and the longest window."""
    agents = max((scene.agent_ids.shape[1] for scene in scenes), default=0)
    width = max((scene.frames.shape[1] for scene in scenes), default=0)
    shapes = [(width,), (agents,), (agents, width), (agents, width, 2), (agents, width), (agents, width), (2, agents)]
    dtypes = {"frames": np.int64, "agent_ids": np.int64, "present": bool, "recorded": bool}
    batch = [np.zeros((len(scenes), *shape), dtypes.get(name, np.float64)) for name, shape in zip(SCENE_ARRAYS, shapes)]
    for i, scene in enumerate(scenes):
        for array, name in zip(batch, SCENE_ARRAYS):
            part = getattr(scene, name)[0]
            array[(i, *map(slice, part.shape))] = part
    return Scenes(*batch, scenes[0].frame_rate if scenes else DEFAULT_FRAME_RATE)


def scene_of(frames, agents, frame_rate: float = DEFAULT_FRAME_RATE) -> Scenes:
    """A one-scene batch from per-agent rows `(agent_id, present,
    positions[, speeds[, accels]])`, the reference agent first; a speeds or
    accels row left out or None is not recorded."""
    ids, present, positions, speeds, accels = zip(*((*agent, None, None)[:5] for agent in agents))
    recorded = np.array([[v is not None for v in speeds], [a is not None for a in accels]])

    def block(rows):
        return np.array([np.zeros(len(frames)) if row is None else row for row in rows], dtype=np.float64)

    return one_scene(np.asarray(frames, dtype=np.int64), np.array(ids, dtype=np.int64), np.array(present, dtype=bool),
                     np.array(positions, dtype=np.float64), block(speeds), block(accels), recorded, frame_rate)


TrackRow = namedtuple("TrackRow", "agent_id frames positions speeds accels")


def tracks_of(rows, frame_rate: float = DEFAULT_FRAME_RATE) -> Tracks:
    """A Tracks table from per-track rows `(agent_id, frames, positions[,
    speeds[, accels]])`, in table order; a speeds or accels row left out or
    None is not recorded."""
    rows = [TrackRow(*(*row, None, None)[:5]) for row in rows]
    lengths = [len(row.frames) for row in rows]

    def column(name, width=()):
        parts = [np.zeros((n, *width)) if getattr(row, name) is None else getattr(row, name)
                 for row, n in zip(rows, lengths)]
        return np.concatenate([np.empty((0, *width)), *parts]).astype(np.float64)

    frames = np.concatenate([np.empty(0, dtype=np.int64), *(np.asarray(row.frames, dtype=np.int64) for row in rows)])
    recorded = np.array([[row.speeds is not None for row in rows], [row.accels is not None for row in rows]],
                        dtype=bool).reshape(2, len(rows))
    return Tracks(np.array([row.agent_id for row in rows], dtype=np.int64), np.cumsum([0, *lengths], dtype=np.int64),
                  frames, column("positions", (2,)), column("speeds"), column("accels"), recorded, frame_rate)


def track_rows(tracks: Tracks) -> list[TrackRow]:
    """Each track of a Tracks table as a `TrackRow` of views into it, with
    None for a value the track does not record."""
    rows = []
    for k, (start, stop) in enumerate(zip(tracks.bounds[:-1].tolist(), tracks.bounds[1:].tolist())):
        speeds, accels = (values[start:stop] if kept else None
                          for values, kept in zip((tracks.speeds, tracks.accels), tracks.recorded[:, k].tolist()))
        rows.append(TrackRow(int(tracks.agent_ids[k]), tracks.frames[start:stop], tracks.positions[start:stop],
                             speeds, accels))
    return rows


def oracle_states(batch: Scenes, history_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Independent reimplementation of the sample states of a one-scene
    batch: one scalar state vector per agent row, padding included, and
    frame, each angle from `np.arctan2` on one element."""
    (scene,) = scene_rows(batch)

    def speed(a, t):
        if scene.recorded[0, a]:
            return float(scene.speeds[a, t])
        delta = scene.positions[a, t] - scene.positions[a, t - 1]
        return float(np.hypot(delta[0], delta[1])) * scene.frame_rate

    n_agents = scene.agent_ids.size
    states = np.zeros((n_agents, history_len - 1, STATE_DIM))
    mask = np.zeros((n_agents, history_len - 1))
    for t in range(1, history_len):
        for a in range(n_agents):
            present = scene.present[a]
            if not (present[t] and present[t - 1]):
                continue
            delta = scene.positions[a, t] - scene.positions[a, t - 1]
            v = speed(a, t)
            if scene.recorded[1, a]:
                alpha = float(scene.accels[a, t])
            elif t >= 2 and present[t - 2]:
                alpha = (v - speed(a, t - 1)) * scene.frame_rate
            else:
                alpha = 0.0
            theta = _angle(delta[1], delta[0])
            rel = scene.positions[a, t] - scene.positions[0, t]
            l = float(np.hypot(rel[0], rel[1]))
            phi = 0.0 if l == 0.0 else _angle(rel[1], rel[0])
            states[a, t - 1] = [delta[0], delta[1], v, alpha, theta, l, phi]
            mask[a, t - 1] = 1.0
    return states, mask


def _oracle_sigmoid(x):
    """Logistic function: `ad.sigmoid` on arrays, 1 / (1 + exp(-x)) from
    graph ops on a Tensor."""
    if isinstance(x, Tensor):
        return ((x * -1.0).exp() + 1.0) ** -1
    return ad.sigmoid(x)


def _oracle_tanh(x):
    """`np.tanh` on arrays, 2 sigmoid(2x) - 1 on a Tensor."""
    if isinstance(x, Tensor):
        return _oracle_sigmoid(x * 2.0) * 2.0 - 1.0
    return np.tanh(x)


def _oracle_matmul(a, b):
    """a @ b, with an array `a` lifted into a Tensor when `b` is one."""
    return (Tensor(a) if isinstance(b, Tensor) and not isinstance(a, Tensor) else a) @ b


def oracle_gru_cell(x, h, weights: GRUWeights):
    """Independent GRU step on elementwise graph ops, about 30 nodes a step:
    the reset gate scales h before the candidate matmul, and the update gate
    interpolates between old state and candidate (Cho et al. 2014)."""
    units = weights.u_c.shape[0]
    gx = _oracle_matmul(x, weights.w_x) + weights.b
    gh = _oracle_matmul(h, weights.u_zr)
    z = _oracle_sigmoid(gx[:, :units] + gh[:, :units])
    r = _oracle_sigmoid(gx[:, units : 2 * units] + gh[:, units:])
    c = _oracle_tanh(gx[:, 2 * units :] + _oracle_matmul(r * h, weights.u_c))
    return z * h + (z * -1.0 + 1.0) * c  # z * -1.0 + 1.0 is 1 - z to the bit


def _oracle_weights(params: dict, prefix: str) -> GRUWeights:
    return GRUWeights(*(params[f"{prefix}.{key}"] for key in ("w_x", "u_zr", "u_c", "b")))


def oracle_attention(slots: list, present: np.ndarray):
    """Per-slot scaled dot-product attention: slot 0 of the row-major (B, d)
    `slots` queries every slot, each a key and a value, under the (B, A)
    `present` mask.  The softmax is built from exp, sums and one division
    per slot, unshifted: GRU states lie in (-1, 1), so no score exceeds
    sqrt(d) and exp cannot overflow."""
    if len(slots) == 1:
        return slots[0]
    scale = 1.0 / math.sqrt(slots[0].shape[1])
    exps = [
        ad.exp((slots[0] * slot).sum(axis=1, keepdims=True) * scale + np.where(present[:, a : a + 1], 0.0, -1e9))
        for a, slot in enumerate(slots)
    ]
    total = exps[0]
    for e in exps[1:]:
        total = total + e
    context = exps[0] / total * slots[0]
    for e, slot in zip(exps[1:], slots[1:]):
        context = context + e / total * slot
    return context


def oracle_forward(model, states: np.ndarray, mask: np.ndarray, train: bool = True):
    """Unrolled forward pass with the signature of `TrajectoryModel.forward_batch`:
    each agent slot runs through the encoder on its own, and every layer and
    step of encoder and decoder is one `oracle_gru_cell`."""
    cfg = model.config
    batch, n_agents, steps, _ = states.shape
    params = model.params if train else {name: node.data for name, node in model.params.items()}
    finals = []
    for a in range(n_agents):
        x_seq = states[:, a] * INPUT_SCALE
        all_present = bool(np.all(mask[:, a] == 1.0))
        hidden = [np.zeros((batch, cfg.units)) for _ in range(cfg.encoder_layers)]
        for t in range(steps):
            x = x_seq[:, t, :]
            for layer in range(cfg.encoder_layers):
                new_h = oracle_gru_cell(x, hidden[layer], _oracle_weights(params, f"enc{layer}"))
                if not all_present:
                    m = mask[:, a, t : t + 1]
                    new_h = m * new_h + (1.0 - m) * hidden[layer]
                hidden[layer] = x = new_h
        finals.append(hidden[-1])
    context = oracle_attention(finals, mask.any(axis=2))
    dec_in = params["dec.x0"] + np.zeros((batch, cfg.units))
    hidden = [context for _ in range(cfg.decoder_layers)]
    for _ in range(cfg.decoder_steps):
        x = dec_in
        for layer in range(cfg.decoder_layers):
            hidden[layer] = x = oracle_gru_cell(x, hidden[layer], _oracle_weights(params, f"dec{layer}"))
    return hidden[-1] @ params["head.w"] + params["head.b"]


# -- row-wise data-path oracles: the csv-module reader and writer and the
# per-track neighbour search that the column-wise data path replaced -------------


def oracle_ingest_ngsim(csv_path, frame_rate: float = DEFAULT_FRAME_RATE) -> Tracks:
    """NGSim rows parsed one csv row at a time, grouped per vehicle in dicts,
    each vehicle's rows split with `np.split` at its gaps."""
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
        for piece_frames, piece in zip(np.split(frames, cuts), np.split(data, cuts)):
            if piece_frames.size >= 2:
                tracks.append((vid, piece_frames, piece[:, :2], piece[:, 2], piece[:, 3]))
    return tracks_of(tracks, frame_rate)


def oracle_write_scene(batch: Scenes, path) -> None:
    """One csv row per present agent frame of a one-scene batch, written by
    `csv.writer`."""
    (scene,) = scene_rows(batch)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCENE_HEADER)
        for a, agent_id in enumerate(scene.agent_ids.tolist()):
            for t, frame in enumerate(scene.frames.tolist()):
                if scene.present[a, t]:
                    x, y = scene.positions[a, t].tolist()
                    v, acc = (float(values[a, t]) if kept[a] else "" for values, kept in
                              zip((scene.speeds, scene.accels), scene.recorded))
                    writer.writerow([agent_id, frame, x, y, v, acc])


def oracle_read_scene(path, frame_rate: float = DEFAULT_FRAME_RATE) -> Scenes:
    """Scene rows parsed one csv row at a time with `int` and `float`, as a
    one-scene batch without padding."""
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
    ids, recorded, blocks = [], [], []
    for agent_id, rows in rows_by_agent.items():
        frames, xs, ys, vs, acs = zip(*rows)
        try:
            frames = np.array(frames, dtype=np.int64)
        except OverflowError:
            raise DataError(f"{path}: scene agent {agent_id} has a frame out of range") from None
        if window is None:
            if np.any(np.diff(frames) <= 0):
                raise DataError(f"{path}: reference agent's frames are not strictly increasing")
            window = frames
            slot_of = {frame: slot for slot, frame in enumerate(window.tolist())}
        outside = [frame for frame in frames.tolist() if frame not in slot_of]
        if outside:
            raise DataError(f"{path}: scene agent {agent_id} has frame {outside[0]} outside the window")
        slots = [slot_of[frame] for frame in frames.tolist()]
        if len(set(slots)) < len(slots):
            raise DataError(f"{path}: scene agent {agent_id} has a duplicate frame")
        kept = (None not in vs, None not in acs)
        present, positions = np.zeros(window.size, dtype=bool), np.zeros((window.size, 2))
        speeds, accels = np.zeros(window.size), np.zeros(window.size)
        for slot, x, y, v, a in zip(slots, xs, ys, vs, acs):
            present[slot] = True
            positions[slot] = (x, y)
            speeds[slot] = v if kept[0] else 0.0
            accels[slot] = a if kept[1] else 0.0
        if not all(np.isfinite(values).all() for values in (positions, speeds, accels)):
            raise DataError(f"{path}: scene agent {agent_id} has a non-finite value")
        ids.append(agent_id)
        recorded.append(kept)
        blocks.append((present, positions, speeds, accels))
    present, positions, speeds, accels = map(np.array, zip(*blocks))
    return one_scene(window, np.array(ids, dtype=np.int64), present, positions, speeds, accels, np.array(recorded).T,
                     frame_rate)


def assert_same_scene(scene: Scenes, expected: Scenes) -> None:
    """Two one-scene batches with an equal frame rate and equal arrays, bit
    for bit and dtypes included, in the leading agents and frames of
    `expected`; `scene` may be padded further, with zeros (False) only."""
    assert scene.frame_rate == expected.frame_rate and len(scene) == len(expected) == 1
    for name in SCENE_ARRAYS:
        a, b = getattr(scene, name), getattr(expected, name)
        leading = tuple(map(slice, b.shape))
        assert a.dtype == b.dtype and a[leading].shape == b.shape and a[leading].tobytes() == b.tobytes(), name
        padding = a.copy()
        padding[leading] = 0
        assert padding.tobytes() == bytes(padding.nbytes), name


def oracle_build_scene(segment, tracks, history_len: int, max_neighbors: int) -> Scenes:
    """Neighbours found by a binary search of every track for t_0, and
    placed on the window one row at a time; the tracks are walked as
    per-track rows.  `segment` is one row of a segment array, its window's
    consecutive rows of one track, found here by the track bounds."""
    rows = track_rows(tracks)
    index = int(np.searchsorted(tracks.bounds, segment[0], side="right")) - 1
    track, start = rows[index], int(segment[0] - tracks.bounds[index])
    frames = track.frames[start : start + len(segment)]
    t0_frame = frames[history_len - 1]
    ego_t0 = track.positions[start + history_len - 1]
    candidates = []
    for other in rows:
        if other.agent_id == track.agent_id:
            continue
        row = int(np.searchsorted(other.frames, t0_frame))
        if row == len(other.frames) or other.frames[row] != t0_frame:
            continue
        distance = float(np.hypot(*(other.positions[row] - ego_t0)))
        candidates.append((distance, other.agent_id, other))
    candidates.sort(key=lambda c: (c[0], c[1]))
    kept = [track] + [other for _, _, other in candidates[:max_neighbors]]
    slot_of = {frame: slot for slot, frame in enumerate(frames.tolist())}
    shape = (len(kept), frames.size)
    present, positions, speeds, accels = np.zeros(shape, dtype=bool), np.zeros(shape + (2,)), np.zeros(shape), np.zeros(shape)
    for a, agent in enumerate(kept):
        for row, frame in enumerate(agent.frames.tolist()):
            slot = slot_of.get(frame)
            if slot is None:
                continue
            present[a, slot] = True
            positions[a, slot] = agent.positions[row]
            if agent.speeds is not None:
                speeds[a, slot] = agent.speeds[row]
            if agent.accels is not None:
                accels[a, slot] = agent.accels[row]
    recorded = np.array([[agent.speeds is not None for agent in kept], [agent.accels is not None for agent in kept]])
    agent_ids = np.array([agent.agent_id for agent in kept], dtype=np.int64)
    return one_scene(frames, agent_ids, present, positions, speeds, accels, recorded, tracks.frame_rate)


def cut_neighbours_at_t0(scenes: Scenes, history_len: int) -> Scenes:
    """A batch with each neighbour absent, and zero, after t_0, the last of
    the `history_len` history frames; each reference agent is kept whole."""
    kept = np.ones(scenes.present.shape, dtype=bool)
    kept[:, 1:, history_len:] = False
    return dataclasses.replace(
        scenes, present=scenes.present & kept, positions=np.where(kept[..., None], scenes.positions, 0.0),
        speeds=np.where(kept, scenes.speeds, 0.0), accels=np.where(kept, scenes.accels, 0.0),
    )


def with_first_value(values_line: str, value: float) -> str:
    """A checkpoint values line (base64 of little-endian float64s) with its
    first value replaced by `value`."""
    values = np.frombuffer(base64.b64decode(values_line, validate=True), dtype="<f8").copy()
    values[0] = value
    return base64.b64encode(values.tobytes()).decode("ascii")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
