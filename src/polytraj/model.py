"""GRU encoder-attention-decoder with interchangeable output heads.

Every agent's state history runs through a shared stacked-GRU encoder,
all agents of a batch in one pass; the reference agent's final encoder
state queries a scaled dot-product attention over all agents' final
states, and the attended context initializes a stacked-GRU decoder driven
for a fixed number of steps by a learned constant input.  A dense layer
on the final decoder state emits either fixed-offset coordinates (with
per-point log-sigmas) or polynomial coefficients (with per-coefficient
log-sigmas).  `gru_cell` is the one GRU function: encoder and decoder run
it step-major, one call per layer and step, holding one state per layer.
When training, each call is one graph node with a hand-written backward
pass, so the graph unrolls backpropagation through time step by step.

`moments` is the one decoding path: it turns a batch of raw head outputs
and a (B, T) matrix of frame offsets into the per-axis predicted mean and
variance.  The loss (`batch_loss`), prediction (`predict_positions`) and
through it evaluation and the studies all decode through it.  The forward
pass runs on Tensor parameters when the loss needs gradients and on their
plain arrays otherwise, so inference builds no graph.  `Tensor.backward`
consumes the graph it walks, so a training step's graph is freed as soon
as its loss is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import poly
from .anchoring import AnchorDistribution, fixed_schedule, random_schedule
from .autodiff import Adam, Parameter, Tensor, sgd_step
from .data import STATE_DIM, Sample
from .errors import ConfigError, DataError, NumericalError, ShapeError
from .poly import gaussian_nll

COORDINATES = "coordinates"
POLYNOMIAL = "polynomial"

# fixed feature normalization applied before the first encoder layer, chosen
# for motorway magnitudes: [dx, dy, v, alpha, theta, l, phi]
INPUT_SCALE = np.array([1.0, 1.0, 0.1, 0.5, 1.0, 0.05, 1.0])


@dataclass(frozen=True)
class ModelConfig:
    head: str = POLYNOMIAL
    units: int = 32
    encoder_layers: int = 2
    decoder_layers: int = 3
    decoder_steps: int = 5
    d_x: int = 3
    d_y: int = 3
    horizon: int = 50
    anchor_count: int = 25
    anchor_mode: str = "random"
    anchor_min: int = 35
    anchor_max: int = 55
    input_dim: int = STATE_DIM

    def __post_init__(self):
        if self.head not in (COORDINATES, POLYNOMIAL):
            raise ConfigError(f"unknown head {self.head!r}")
        if self.anchor_mode not in ("fixed", "random"):
            raise ConfigError(f"unknown anchor mode {self.anchor_mode!r}")
        if self.head == COORDINATES and self.anchor_mode == "random":
            raise ConfigError(
                "coordinate head bakes its offsets into the output layer; "
                "random anchoring requires the polynomial head"
            )
        if min(self.units, self.encoder_layers, self.decoder_layers, self.decoder_steps) < 1:
            raise ConfigError("units, layer counts and decoder steps must be >= 1")
        if min(self.d_x, self.d_y) < 1:
            raise ConfigError("polynomial degrees must be >= 1")
        # anchoring.py floors evenly spread offsets: as many frames as anchors are needed
        count, low, high = self.anchor_count, self.anchor_min, self.anchor_max
        if self.anchor_mode == "fixed" and not 1 <= count <= self.horizon:
            raise ConfigError(f"fixed anchors need 1 <= count {count} <= horizon {self.horizon}")
        if self.anchor_mode == "random" and not 1 <= count <= low <= high:
            raise ConfigError(f"random anchors need 1 <= count {count} <= min {low} <= max {high}")

    @property
    def output_dim(self) -> int:
        if self.head == POLYNOMIAL:
            return 2 * (self.d_x + self.d_y)
        return 4 * self.anchor_count

    @property
    def time_scale(self) -> float:
        """Normalization scale for the output head.

        The polynomial head emits coefficients of scale * sum c_j (t/scale)^j
        and the coordinate head emits positions divided by scale, so raw
        outputs stay O(1) for motorway magnitudes; predictions map back to
        metres and per-frame coefficients."""
        return float(self.horizon)

    @property
    def head_offsets(self) -> tuple[int, ...]:
        """Fixed offsets of the coordinate head (empty for the polynomial head)."""
        if self.head == POLYNOMIAL:
            return ()
        return fixed_schedule(self.anchor_count, self.horizon).offsets

    def to_meta(self) -> dict[str, str]:
        return {
            "model.head": self.head,
            "model.units": str(self.units),
            "model.encoder_layers": str(self.encoder_layers),
            "model.decoder_layers": str(self.decoder_layers),
            "model.decoder_steps": str(self.decoder_steps),
            "model.d_x": str(self.d_x),
            "model.d_y": str(self.d_y),
            "model.horizon": str(self.horizon),
            "model.anchor_count": str(self.anchor_count),
            "model.anchor_mode": self.anchor_mode,
            "model.anchor_min": str(self.anchor_min),
            "model.anchor_max": str(self.anchor_max),
            "model.input_dim": str(self.input_dim),
        }

    @staticmethod
    def from_meta(meta: dict[str, str]) -> "ModelConfig":
        """Parse `to_meta` output; a missing or malformed key is a DataError."""

        def _int(key):
            return int(meta[f"model.{key}"])

        try:
            return ModelConfig(
                head=meta["model.head"],
                units=_int("units"),
                encoder_layers=_int("encoder_layers"),
                decoder_layers=_int("decoder_layers"),
                decoder_steps=_int("decoder_steps"),
                d_x=_int("d_x"),
                d_y=_int("d_y"),
                horizon=_int("horizon"),
                anchor_count=_int("anchor_count"),
                anchor_mode=meta["model.anchor_mode"],
                anchor_min=_int("anchor_min"),
                anchor_max=_int("anchor_max"),
                input_dim=_int("input_dim"),
            )
        except KeyError as exc:
            raise DataError(f"model meta key {exc} missing") from None
        except (ValueError, ConfigError) as exc:
            raise DataError(f"bad model meta: {exc}") from None

    def param_shapes(self):
        """Yield (name, shape) of every parameter in creation order."""
        for prefix, layers, in_dim in (
            ("enc", self.encoder_layers, self.input_dim),
            ("dec", self.decoder_layers, self.units),
        ):
            for layer in range(layers):
                yield f"{prefix}{layer}.w_x", (in_dim if layer == 0 else self.units, 3 * self.units)
                yield f"{prefix}{layer}.u_zr", (self.units, 2 * self.units)
                yield f"{prefix}{layer}.u_c", (self.units, self.units)
                yield f"{prefix}{layer}.b", (3 * self.units,)
        yield "dec.x0", (1, self.units)
        yield "head.w", (self.units, self.output_dim)
        yield "head.b", (self.output_dim,)


@dataclass(frozen=True)
class GRUWeights:
    """One cell's weights: `w_x` maps the input to the three stacked gate
    pre-activations [update | reset | candidate], `u_zr` maps the hidden
    state to the two gate pre-activations, `u_c` to the candidate."""

    w_x: object
    u_zr: object
    u_c: object
    b: object


def gru_cell(x, h, weights: GRUWeights, mask=None):
    """One GRU step: the (N, units) state after the (N, F) input `x` from
    the (N, units) state `h`.

    `mask` is None when every row is present, else an (N,) 0/1 row; an
    absent row keeps its state.  When `x`, `h` or a weight is a Tensor, the
    result is one graph node whose backward pass is written by hand from
    the cached gates; on plain arrays no graph is built.
    """
    inputs = (x, h, weights.w_x, weights.u_zr, weights.u_c, weights.b)
    # lists, not tuples built from generators: those leave a resized tuple
    # on the interpreter's free list per call, which reads as memory growth
    arrays = [v.data if isinstance(v, Tensor) else v for v in inputs]
    _, h_prev, w_x, u_zr, u_c, _ = arrays
    rows, units, in_dim = len(h_prev), u_c.shape[0], w_x.shape[0]
    shapes = [v.shape for v in arrays]
    if shapes != [(rows, in_dim), (rows, units), (in_dim, 3 * units), (units, 2 * units), (units, units), (3 * units,)]:
        raise ShapeError(f"GRU input, state and weights {shapes} do not fit {units} units")
    parents = tuple(v for v in inputs if isinstance(v, Tensor))
    gates = np.empty((rows, 3 * units)) if parents else None  # [z | r | c]
    h_new = _gru_step(*arrays, gates)
    m = None if mask is None else mask[:, np.newaxis]
    if m is not None:
        h_new = m * h_new + (1.0 - m) * h_prev
    if not parents:
        return h_new
    out = Tensor(h_new, parents)
    # the node's cache goes to the backward pass as one partial, not as a
    # closure's cells, so each node adds two gc-tracked objects, not fifteen
    out._backward = partial(_gru_cell_backward, out, inputs, arrays, gates, m)
    return out


def _gru_cell_backward(out: Tensor, inputs: tuple, arrays: list, gates: np.ndarray, m) -> None:
    """Backward pass of one `gru_cell` node from its cached [z | r | c] gates;
    `m` is the (N, 1) row mask, or None when every row is present."""
    x_in, h_prev, w_x, u_zr, u_c, _ = arrays
    rows, units = len(h_prev), u_c.shape[0]
    z, r, c = (gates[:, k * units : (k + 1) * units] for k in range(3))
    d_new, d_kept = (out.grad, 0.0) if m is None else (m * out.grad, (1.0 - m) * out.grad)
    d_pre = np.empty((rows, 3 * units))  # gradient of the gate pre-activations
    d_pre[:, :units] = d_new * (h_prev - c) * z * (1.0 - z)
    d_pre[:, 2 * units :] = d_new * (1.0 - z) * (1.0 - c * c)
    d_rh = d_pre[:, 2 * units :] @ u_c.T
    d_pre[:, units : 2 * units] = d_rh * h_prev * r * (1.0 - r)
    d_h = d_kept + d_new * z + d_rh * r + d_pre[:, : 2 * units] @ u_zr.T
    d_x = d_pre @ w_x.T if isinstance(inputs[0], Tensor) else None
    grads = (
        d_x,
        d_h,
        x_in.T @ d_pre,
        h_prev.T @ d_pre[:, : 2 * units],
        (r * h_prev).T @ d_pre[:, 2 * units :],
        d_pre.sum(axis=0),
    )
    for node, grad in zip(inputs, grads):
        if isinstance(node, Tensor):
            node._accumulate(grad)


def _gru_step(x, h, w_x, u_zr, u_c, b, gates=None):
    """Classic GRU update (Cho et al. 2014): the reset gate scales h before the
    candidate matmul, and the update gate interpolates between old state and
    candidate.  Stores [z | r | c] in `gates` when given."""
    units = u_c.shape[0]
    gx = x @ w_x + b
    zr = ad.sigmoid(gx[:, : 2 * units] + h @ u_zr)
    z, r = zr[:, :units], zr[:, units:]
    c = np.tanh(gx[:, 2 * units :] + (r * h) @ u_c)
    if gates is not None:
        gates[:, : 2 * units] = zr
        gates[:, 2 * units :] = c
    return z * h + (1.0 - z) * c


def attention(query, keys: Sequence, values: Sequence, present: np.ndarray):
    """Scaled dot-product attention of each sample's query over its agent slots.

    `query` is (B, d); `keys` and `values` hold one (B, d) entry per slot;
    `present` is the (B, A) slot mask.  An absent slot gets exactly zero
    weight, so padding a batch with empty slots leaves every output unchanged.
    """
    if not keys or len(keys) != len(values):
        raise ShapeError(f"attention needs matching non-empty slots, got {len(keys)} keys, {len(values)} values")
    if len(keys) == 1:
        return values[0]  # the softmax of a single score is exactly 1
    scale = 1.0 / math.sqrt(query.shape[1])
    scores = ad.concat([(query * k).sum(axis=1, keepdims=True) * scale for k in keys], axis=1)
    weights = ad.softmax(scores + np.where(present, 0.0, -1e9), axis=1)
    context = weights[:, 0:1] * values[0]
    for a in range(1, len(values)):
        context = context + weights[:, a : a + 1] * values[a]
    return context


class TrajectoryModel:
    """Sequence model over agent state histories; see module docstring."""

    def __init__(self, config: ModelConfig, seed=0):
        self.config = config
        rng = _stream_rng(seed, 0)
        self.params: dict[str, Tensor] = {}
        for name, shape in config.param_shapes():
            if name.endswith(".b"):
                self.params[name] = Tensor(np.zeros(shape))
                continue
            bound = 1.0 / math.sqrt(shape[-1] if name == "dec.x0" else shape[0])
            self.params[name] = Tensor(rng.uniform(-bound, bound, size=shape))

    def parameters(self) -> list[Parameter]:
        return [Parameter(name, node) for name, node in self.params.items()]

    def zero_head(self) -> None:
        """Zero the output layer; useful as a structural baseline."""
        self.params["head.w"].data[:] = 0.0
        self.params["head.b"].data[:] = 0.0

    # -- forward -----------------------------------------------------------

    def _param_values(self, train: bool) -> dict:
        """The parameter Tensors when gradients are needed, else their arrays."""
        if train:
            return self.params
        return {name: node.data for name, node in self.params.items()}

    def forward_batch(self, states: np.ndarray, mask: np.ndarray, train: bool = True):
        """Batched forward pass.

        states: (B, A, S, input_dim) with agent slot 0 the reference agent;
        mask: (B, A, S) with 1.0 where a state is valid.  Returns the raw
        head output, (B, output_dim): a Tensor when `train`, else an array.
        The encoder runs once over all A·B agent rows, agent-major, so slot
        a's final state is rows a·B to (a+1)·B.  Encoder and decoder run
        step-major: each step goes up through every layer, one `gru_cell`
        each, before the next step starts, so one state per layer is held.
        """
        if states.ndim != 4 or states.shape[3] != self.config.input_dim:
            raise ShapeError(f"states must be (B, A, S, {self.config.input_dim}), got {states.shape}")
        batch, n_agents, steps, _ = states.shape
        if steps < 1:
            raise DataError("empty history: at least one state frame is required")
        cfg = self.config
        scale = INPUT_SCALE if cfg.input_dim == INPUT_SCALE.size else 1.0
        params = self._param_values(train)
        rows = n_agents * batch
        all_present = bool(np.all(mask == 1.0))
        layers = [_weights(params, f"enc{layer}") for layer in range(cfg.encoder_layers)]
        hidden = [np.zeros((rows, cfg.units))] * cfg.encoder_layers
        for t in range(steps):
            x = states[:, :, t].swapaxes(0, 1).reshape(rows, -1) * scale
            present = None if all_present else mask[:, :, t].T.reshape(rows)
            for layer, weights in enumerate(layers):
                hidden[layer] = x = gru_cell(x, hidden[layer], weights, present)
        finals = [hidden[-1][a * batch : (a + 1) * batch] for a in range(n_agents)]
        context = attention(finals[0], finals, finals, mask.any(axis=2))
        x0 = params["dec.x0"] + np.zeros((batch, cfg.units))  # the learned constant input
        layers = [_weights(params, f"dec{layer}") for layer in range(cfg.decoder_layers)]
        hidden = [context] * cfg.decoder_layers
        for _ in range(cfg.decoder_steps):
            x = x0
            for layer, weights in enumerate(layers):
                hidden[layer] = x = gru_cell(x, hidden[layer], weights)
        return hidden[-1] @ params["head.w"] + params["head.b"]

    def predict_positions(self, samples: Sequence[Sample], offsets: Sequence[int]) -> np.ndarray:
        """Predicted (x, y) of every sample at the given frame offsets: (B, T, 2)."""
        states, mask = collate(samples)
        raw = self.forward_batch(states, mask, train=False)
        t = np.tile(np.array([int(o) for o in offsets], dtype=np.int64), (len(samples), 1))
        positions = np.stack([mean for mean, _ in moments(self.config, raw, t)], axis=2)
        finite = np.isfinite(positions).all(axis=(1, 2))
        if not finite.all():
            bad = [samples[i].sample_id for i in np.flatnonzero(~finite)]
            raise NumericalError(f"non-finite prediction for sample(s) {bad}")
        return positions


def _weights(params: dict, prefix: str) -> GRUWeights:
    return GRUWeights(
        w_x=params[f"{prefix}.w_x"],
        u_zr=params[f"{prefix}.u_zr"],
        u_c=params[f"{prefix}.u_c"],
        b=params[f"{prefix}.b"],
    )


# -- decoding and loss ------------------------------------------------------------


def moments(cfg: ModelConfig, raw, t) -> list:
    """Predicted per-axis (mean, variance) at frame offsets, in metres and m².

    `raw` is a (B, output_dim) batch of head outputs, Tensor or array, and
    `t` a (B, T) integer offset matrix with one row per sample.  Returns
    [(mean_x, var_x), (mean_y, var_y)], each (B, T).  Raw outputs are scaled
    by `cfg.time_scale` (see there); sigmas are emitted as log-sigmas.
    """
    t = np.asarray(t, dtype=np.int64)
    scale = cfg.time_scale
    if cfg.head == POLYNOMIAL:
        # [x coefficients | y coefficients | x log-sigmas | y log-sigmas]
        n = cfg.d_x + cfg.d_y
        return [
            poly.moments(raw[:, lo : lo + d], ad.exp(2.0 * raw[:, n + lo : n + lo + d]), t, scale)
            for lo, d in ((0, cfg.d_x), (cfg.d_x, cfg.d_y))
        ]
    # [(x, y) per head offset | (x, y) log-sigmas per head offset]
    offsets = np.array(cfg.head_offsets, dtype=np.int64)
    n = offsets.size
    cols = np.minimum(np.searchsorted(offsets, t), n - 1)
    missing = sorted(set(t[offsets[cols] != t].tolist()))
    if missing:
        raise ConfigError(f"coordinate head predicts offsets {cfg.head_offsets}, not {missing}")
    every_offset = t.shape[1] == n and bool(np.all(cols == np.arange(n)))
    if not every_offset and isinstance(raw, Tensor):
        raise ConfigError("coordinate head can only be supervised at its fixed offsets")
    rows = np.arange(t.shape[0])[:, np.newaxis]

    def pick(first: int):
        return raw[:, first : first + 2 * n : 2] if every_offset else raw[rows, first + 2 * cols]

    return [(pick(axis) * scale, ad.exp(2.0 * pick(2 * n + axis)) * scale**2) for axis in (0, 1)]


def batch_loss(model: TrajectoryModel, batch: Sequence[Sample], t_matrix: np.ndarray, train: bool = True):
    """Negative log-likelihood of a batch at the given anchor offsets.

    t_matrix is (B, T) integer frame offsets (one schedule row per sample;
    the coordinate head requires every row to equal its fixed offsets when
    `train`).  Returns (mean loss, per-sample loss vector).
    """
    t_matrix = np.asarray(t_matrix, dtype=np.int64)
    batch_size, n_anchors = t_matrix.shape
    if batch_size != len(batch):
        raise ShapeError(f"t_matrix rows {batch_size} != batch size {len(batch)}")
    truth = np.zeros((batch_size, n_anchors, 2))
    for i, sample in enumerate(batch):
        horizon = sample.future.shape[0] - 1
        if t_matrix[i].max() > horizon:
            raise DataError(
                f"sample {sample.sample_id}: anchor offset {int(t_matrix[i].max())} "
                f"beyond available future of {horizon} frames"
            )
        truth[i] = sample.future[t_matrix[i]]
    states, mask = collate(batch)
    out = model.forward_batch(states, mask, train=train)
    (mean_x, var_x), (mean_y, var_y) = moments(model.config, out, t_matrix)
    nll = gaussian_nll(mean_x, var_x, truth[:, :, 0]) + gaussian_nll(mean_y, var_y, truth[:, :, 1])
    per_sample = nll.sum(axis=1) * (1.0 / n_anchors)
    return per_sample.mean(), per_sample


def collate(batch: Sequence[Sample]) -> tuple[np.ndarray, np.ndarray]:
    """Stack samples, padding agent slots with fully masked zeros."""
    if not batch:
        raise DataError("empty batch")
    steps = batch[0].states.shape[1]
    if any(s.states.shape[1] != steps for s in batch):
        raise DataError("samples in one batch must share the history length")
    max_agents = max(s.states.shape[0] for s in batch)
    states = np.zeros((len(batch), max_agents, steps, STATE_DIM))
    mask = np.zeros((len(batch), max_agents, steps))
    for i, sample in enumerate(batch):
        a = sample.states.shape[0]
        states[i, :a] = sample.states
        mask[i, :a] = sample.mask
    return states, mask


# -- training ---------------------------------------------------------------------


@dataclass(frozen=True)
class TrainSettings:
    lr: float = 0.005
    epochs: int = 10
    steps: int = 0  # 0 = run all epochs; otherwise stop after this many batches
    batch: int = 32
    optimizer: str = "adam"
    grad_clip: float = 5.0
    seed: tuple = (0, 0)


@dataclass
class TrainResult:
    loss_curve: list = field(default_factory=list)  # (step, loss) pairs

    @property
    def final_loss(self) -> float:
        return self.loss_curve[-1][1] if self.loss_curve else math.nan


def _stream_rng(seed, stream: int) -> np.random.Generator:
    parts = [int(s) for s in (seed if isinstance(seed, (tuple, list)) else (seed,))]
    return np.random.default_rng(parts + [stream])


def draw_schedules(
    cfg: ModelConfig, batch_size: int, rng: np.random.Generator
) -> np.ndarray:
    """One anchor schedule per sample: a fresh uniform draw in random mode,
    the fixed evenly spread offsets otherwise."""
    if cfg.head == COORDINATES:
        return np.tile(np.array(cfg.head_offsets, dtype=np.int64), (batch_size, 1))
    if cfg.anchor_mode == "fixed":
        offsets = fixed_schedule(cfg.anchor_count, cfg.horizon).offsets
        return np.tile(np.array(offsets, dtype=np.int64), (batch_size, 1))
    dist = AnchorDistribution(cfg.anchor_min, cfg.anchor_max)
    rows = [random_schedule(dist, cfg.anchor_count, rng).offsets for _ in range(batch_size)]
    return np.array(rows, dtype=np.int64)


def train(model: TrajectoryModel, samples: Sequence[Sample], settings: TrainSettings) -> TrainResult:
    """Mini-batch NLL training; every epoch reshuffles with its own stream.

    Anchor draws use a stream independent of shuffling, so a degenerate
    random range U{c, c} reproduces fixed-anchor training exactly.
    """
    if not samples:
        raise DataError("training needs a non-empty dataset")
    _check_supervision_range(model.config, samples)
    rng_shuffle = _stream_rng(settings.seed, 1)
    rng_anchor = _stream_rng(settings.seed, 2)
    params = model.parameters()
    adam = (
        Adam(params, lr=settings.lr, grad_clip=settings.grad_clip)
        if settings.optimizer == "adam"
        else None
    )
    if settings.optimizer not in ("adam", "sgd"):
        raise ConfigError(f"unknown optimizer {settings.optimizer!r}")
    result = TrainResult()
    step = 0
    for _ in range(settings.epochs):
        order = rng_shuffle.permutation(len(samples))
        for start in range(0, len(order), settings.batch):
            if settings.steps and step >= settings.steps:
                return result
            batch = [samples[i] for i in order[start : start + settings.batch]]
            t_matrix = draw_schedules(model.config, len(batch), rng_anchor)
            loss, per_sample = batch_loss(model, batch, t_matrix, train=True)
            finite = np.isfinite(per_sample.data)
            if not finite.all():
                bad = [batch[i].sample_id for i in np.flatnonzero(~finite)]
                raise NumericalError(
                    f"non-finite loss at step {step} for sample(s) {bad}"
                )
            loss.backward()
            if adam is not None:
                adam.step()
            else:
                sgd_step(params, lr=settings.lr, grad_clip=settings.grad_clip)
            result.loss_curve.append((step, float(loss.data)))
            step += 1
    return result


def _check_supervision_range(cfg: ModelConfig, samples: Sequence[Sample]) -> None:
    if cfg.head == COORDINATES or cfg.anchor_mode == "fixed":
        needed = max(cfg.head_offsets or fixed_schedule(cfg.anchor_count, cfg.horizon).offsets)
    else:
        needed = cfg.anchor_max
    available = min(s.future.shape[0] - 1 for s in samples)
    if needed > available:
        raise DataError(
            f"anchors reach offset {needed} but samples only cover {available} future frames"
        )


# -- persistence ---------------------------------------------------------------------


def save_model(model: TrajectoryModel, path, extra_meta: dict | None = None) -> None:
    meta = model.config.to_meta()
    meta.update(extra_meta or {})
    ad.save_checkpoint(path, model.parameters(), meta)


def load_model(path) -> tuple[TrajectoryModel, dict[str, str]]:
    meta, arrays = ad.load_checkpoint(path)
    config = ModelConfig.from_meta(meta)
    # match every name and shape before building, so a corrupt size allocates nothing
    names = []
    for name, shape in config.param_shapes():
        if name not in arrays or arrays[name].shape != shape:
            raise DataError(f"checkpoint parameter '{name}' missing or not of shape {shape}")
        names.append(name)
    if len(names) != len(arrays):
        raise DataError(f"checkpoint parameters {sorted(arrays)} do not match model {names}")
    model = TrajectoryModel(config, seed=0)
    for name, node in model.params.items():
        node.data = arrays[name]
    return model, meta
