"""Shared test helpers: finite-difference, loss, state, forward-pass and
row-wise data-path oracles, hand-built samples."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from polytraj import autodiff as ad
from polytraj.data import (
    DEFAULT_FRAME_RATE,
    FEET_TO_METRES,
    NGSIM_COLUMNS,
    SCENE_HEADER,
    STATE_DIM,
    Sample,
    Scene,
    Track,
    _align,
)
from polytraj.errors import DataError
from polytraj.model import INPUT_SCALE, GRUWeights, attention
from polytraj.poly import VAR_FLOOR


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


def make_moderate_samples(rng: np.random.Generator, n: int, agents: int = 2, steps: int = 6, horizon: int = 55) -> list[Sample]:
    """Small random-walk samples with O(1) magnitudes, so finite differences
    are trustworthy at step 1e-3."""
    samples = []
    for i in range(n):
        states = rng.normal(0.0, 1.0, size=(agents, steps, 7))
        mask = np.ones((agents, steps))
        if agents > 1:
            mask[1:, :2] = 0.0  # neighbors enter two frames late
        future = np.cumsum(rng.normal(0.0, 0.08, size=(horizon + 1, 2)), axis=0)
        future[0] = 0.0
        samples.append(Sample(states=states, mask=mask, future=future, sample_id=i))
    return samples


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


def _wrap_angle(angle: float) -> float:
    wrapped = (angle + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if wrapped == -math.pi else wrapped


def oracle_states(scene: Scene, history_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Independent reimplementation of the sample states: one scalar state
    vector per agent and frame, math-module angles."""

    def speed(agent, t):
        if agent.speeds is not None:
            return float(agent.speeds[t])
        delta = agent.positions[t] - agent.positions[t - 1]
        return float(np.hypot(delta[0], delta[1])) * scene.frame_rate

    n_agents = len(scene.agents)
    states = np.zeros((n_agents, history_len - 1, STATE_DIM))
    mask = np.zeros((n_agents, history_len - 1))
    for t in range(1, history_len):
        for a, agent in enumerate(scene.agents):
            if not (agent.present[t] and agent.present[t - 1]):
                continue
            delta = agent.positions[t] - agent.positions[t - 1]
            v = speed(agent, t)
            if agent.accels is not None:
                alpha = float(agent.accels[t])
            elif t >= 2 and agent.present[t - 2]:
                alpha = (v - speed(agent, t - 1)) * scene.frame_rate
            else:
                alpha = 0.0
            theta = _wrap_angle(math.atan2(delta[1], delta[0]))
            rel = agent.positions[t] - scene.ego.positions[t]
            l = float(np.hypot(rel[0], rel[1]))
            phi = 0.0 if l == 0.0 else _wrap_angle(math.atan2(rel[1], rel[0]))
            states[a, t - 1] = [delta[0], delta[1], v, alpha, theta, l, phi]
            mask[a, t - 1] = 1.0
    return states, mask


def oracle_gru_cell(x, h, weights: GRUWeights):
    """Independent GRU step on elementwise graph ops, about 20 nodes a step:
    the reset gate scales h before the candidate matmul, and the update gate
    interpolates between old state and candidate (Cho et al. 2014)."""
    units = weights.u_c.shape[0]
    gx = x @ weights.w_x + weights.b
    gh = h @ weights.u_zr
    z = ad.sigmoid(gx[:, :units] + gh[:, :units])
    r = ad.sigmoid(gx[:, units : 2 * units] + gh[:, units:])
    c = ad.tanh(gx[:, 2 * units :] + (r * h) @ weights.u_c)
    return z * h + (1.0 - z) * c


def _oracle_weights(params: dict, prefix: str) -> GRUWeights:
    return GRUWeights(*(params[f"{prefix}.{key}"] for key in ("w_x", "u_zr", "u_c", "b")))


def oracle_forward(model, states: np.ndarray, mask: np.ndarray, train: bool = True):
    """Unrolled forward pass with the signature of `TrajectoryModel.forward_batch`:
    each agent slot runs through the encoder on its own, and every layer and
    step of encoder and decoder is one `oracle_gru_cell`."""
    cfg = model.config
    batch, n_agents, steps, _ = states.shape
    params = model.params if train else {name: node.data for name, node in model.params.items()}
    scale = INPUT_SCALE if cfg.input_dim == INPUT_SCALE.size else 1.0
    finals = []
    for a in range(n_agents):
        x_seq = states[:, a] * scale
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
    context = attention(finals[0], finals, finals, mask.any(axis=2))
    dec_in = params["dec.x0"] + np.zeros((batch, cfg.units))
    hidden = [context for _ in range(cfg.decoder_layers)]
    for _ in range(cfg.decoder_steps):
        x = dec_in
        for layer in range(cfg.decoder_layers):
            hidden[layer] = x = oracle_gru_cell(x, hidden[layer], _oracle_weights(params, f"dec{layer}"))
    return hidden[-1] @ params["head.w"] + params["head.b"]


# -- row-wise data-path oracles: the csv-module reader and writer and the
# per-track neighbour search that the column-wise data path replaced -------------


def oracle_ingest_ngsim(csv_path, frame_rate: float = DEFAULT_FRAME_RATE) -> list[Track]:
    """NGSim rows parsed one csv row at a time, grouped per vehicle in dicts."""
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
                tracks.append(Track(vid, piece_frames, piece[:, :2], piece[:, 2], piece[:, 3], frame_rate))
    return tracks


def oracle_write_scene(scene: Scene, path) -> None:
    """One csv row per present agent frame, written by `csv.writer`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCENE_HEADER)
        for agent in scene.agents:
            rows = np.flatnonzero(agent.present)
            columns = [[int(agent.agent_id)] * rows.size, scene.frames[rows].tolist()]
            for values in (agent.positions[:, 0], agent.positions[:, 1], agent.speeds, agent.accels):
                columns.append([""] * rows.size if values is None else values[rows].astype(float).tolist())
            writer.writerows(zip(*columns))


def oracle_read_scene(path, frame_rate: float = DEFAULT_FRAME_RATE) -> Scene:
    """Scene rows parsed one csv row at a time with `int` and `float`."""
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


def oracle_build_scene(segment, tracks, history_len: int, max_neighbors: int) -> Scene:
    """Neighbours found by a binary search of every track for t_0."""
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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
