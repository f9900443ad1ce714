"""Shared test helpers: finite-difference, loss, state and forward-pass
oracles, hand-built samples."""

from __future__ import annotations

import math

import numpy as np
import pytest

from polytraj import autodiff as ad
from polytraj.data import STATE_DIM, Sample, Scene
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

    def derived_speed(agent, t):
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
            v = derived_speed(agent, t) if agent.speeds is None else float(agent.speeds[t])
            if agent.accels is not None:
                alpha = float(agent.accels[t])
            elif t >= 2 and agent.present[t - 2]:
                alpha = (v - derived_speed(agent, t - 1)) * scene.frame_rate
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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
