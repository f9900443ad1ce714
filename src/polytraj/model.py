"""GRU encoder-attention-decoder with interchangeable output heads.

Every agent's state history runs through a shared stacked-GRU encoder,
all agents of a batch in one pass; the reference agent's final encoder
state queries a scaled dot-product attention over all agents' final
states, and the attended context initializes a stacked-GRU decoder driven
for a fixed number of steps by a learned constant input.  A dense layer
on the final decoder state emits either fixed-offset coordinates (with
per-point log-sigmas) or polynomial coefficients (with per-coefficient
log-sigmas).  `gru_cell` is the one GRU function and `_unroll` the one
stack loop: encoder and decoder both run through it step-major, one
`gru_cell` call per layer and step, holding one state per layer.
When training, each call is one graph node with a hand-written backward
pass, so the graph unrolls backpropagation through time step by step.

The GRU runs feature-major: its inputs and states are (features, rows)
arrays, one column per agent row, so each gate z, r and c is a contiguous
row block of one (3·units, rows) array and the gate math runs in place on
whole blocks.  The parameters keep their row-major shapes and enter the
products as transposed views.  Attention works on a feature-major
(units, agents, B) view of the encoder's last state and returns the
decoder's (units, B) initial state.  The head and the loss are row-major,
(rows, features), so only the decoder's last state and the learned
decoder input `dec.x0` are transposed.

`moments` is the one decoding path: it turns a batch of raw head outputs
and a (B, T) matrix of frame offsets into the per-axis predicted mean and
variance.  The loss (`batch_loss`), prediction (`predict_positions`) and
through it evaluation and the studies all decode through it.  The forward
pass runs on Tensor parameters when the loss needs gradients and on their
plain arrays otherwise, so inference builds no graph.  `Tensor.backward`
consumes the graph it walks, so a training step's graph is freed as soon
as its loss is dropped.

`train` supervises each batch at the anchor offsets of `draw_schedules`:
the fixed offsets over the horizon, or in random mode offsets spread under
a last offset drawn per sample.  It returns the (step, loss) curve.

`ModelConfig` and `TrainSettings` hold no defaults: `from_config` reads
each field from its config key (`CONFIG_KEYS`), and `from_meta` sends a
checkpoint's values through `RunConfig`, so `config.DEFAULTS` alone sets
each default and domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from . import poly
from .anchoring import spread
from .autodiff import Adam, Tensor, sgd_step
from .config import RunConfig
from .data import STATE_DIM, Samples, check_indexable, future_at
from .errors import ConfigError, DataError, NumericalError, ShapeError
from .poly import gaussian_nll

COORDINATES = "coordinates"
POLYNOMIAL = "polynomial"

# fixed feature normalization applied before the first encoder layer, chosen
# for motorway magnitudes: [dx, dy, v, alpha, theta, l, phi]
INPUT_SCALE = np.array([1.0, 1.0, 0.1, 0.5, 1.0, 0.05, 1.0])


# the config key of every ModelConfig and TrainSettings field that is not
# named as the field under its class's section ("model" or "train")
CONFIG_KEYS: dict[str, str | tuple[str, ...]] = {
    "horizon": "horizon_frames",
    "anchor_count": "anchors.count",
    "anchor_mode": "anchors.mode",
    "anchor_min": "anchors.min",
    "anchor_max": "anchors.max",
    "seed": ("run.seed", "train.seed"),
}


def _config_keys(cls, section: str) -> dict[str, str | tuple[str, ...]]:
    """Field name -> config key, or keys for a tuple field, of `cls`."""
    return {f.name: CONFIG_KEYS.get(f.name, f"{section}.{f.name}") for f in fields(cls)}


def _from_config(cls, section: str, cfg: RunConfig):
    """A `cls` with every field read from `cfg`."""

    def read(key):
        return tuple(cfg[k] for k in key) if isinstance(key, tuple) else cfg[key]

    return cls(**{name: read(key) for name, key in _config_keys(cls, section).items()})


@dataclass(frozen=True)
class ModelConfig:
    """The model's settings; `from_config` reads them from a run config,
    whose `DEFAULTS` hold their defaults and domains."""

    head: str
    units: int
    encoder_layers: int
    decoder_layers: int
    decoder_steps: int
    d_x: int
    d_y: int
    horizon: int
    anchor_count: int
    anchor_mode: str
    anchor_min: int
    anchor_max: int

    def __post_init__(self):
        """The rules across keys; `RunConfig` checks each key's own domain."""
        if self.head == COORDINATES and self.anchor_mode == "random":
            raise ConfigError(
                "coordinate head bakes its offsets into the output layer; "
                "random anchoring requires the polynomial head"
            )
        # `spread` floors evenly spread offsets: as many frames as anchors are needed
        count, low, high = self.anchor_count, self.anchor_min, self.anchor_max
        if self.anchor_mode == "fixed" and count > self.horizon:
            raise ConfigError(f"fixed anchors need count {count} <= horizon {self.horizon}")
        if self.anchor_mode == "random" and not count <= low <= high:
            raise ConfigError(f"random anchors need count {count} <= min {low} <= max {high}")
        keys = ("model.units, model.d_x and model.d_y" if self.head == POLYNOMIAL
                else "model.units, model.d_x, model.d_y and anchors.count")
        check_indexable(max((s for _, s in self.param_shapes()), key=math.prod), keys)  # short: layers are bounded

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "ModelConfig":
        return _from_config(cls, "model", cfg)

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
        return spread([self.horizon], self.anchor_count)[0]

    def to_meta(self) -> dict[str, str]:
        """Every field as `model.<field>`, in field order."""
        return {f"model.{f.name}": str(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_meta(cls, meta: dict[str, str]) -> "ModelConfig":
        """Parse `to_meta` output, each value checked by `RunConfig` against
        its config key's domain; a missing or bad value is a DataError."""
        try:
            cfg = RunConfig({key: meta[f"model.{name}"] for name, key in _config_keys(cls, "model").items()})
            return _from_config(cls, "model", cfg)
        except KeyError as exc:
            raise DataError(f"model meta key {exc} missing") from None
        except (ValueError, ConfigError) as exc:
            raise DataError(f"bad model meta: {exc}") from None

    def param_shapes(self):
        """Yield (name, shape) of every parameter in creation order."""
        for prefix, layers, in_dim in (
            ("enc", self.encoder_layers, STATE_DIM),
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


class GRUWeights(NamedTuple):
    """One cell's weights: `w_x` maps the input to the three stacked gate
    pre-activations [update | reset | candidate], `u_zr` maps the hidden
    state to the two gate pre-activations, `u_c` to the candidate."""

    w_x: object
    u_zr: object
    u_c: object
    b: object


def gru_cell(x, h, weights: GRUWeights, mask=None):
    """One GRU step, feature-major: the (units, N) state after the (F, N)
    input `x` from the (units, N) state `h`, one column per row of the batch.

    The weights keep their row-major shapes (see `GRUWeights`) and enter
    through transposed views, so each gate is a contiguous row block of
    the (3·units, N) pre-activations.  `mask` is None when every column is
    present, else an (N,) 0/1 row; an absent column keeps its state.  When
    `x`, `h` or a weight is a Tensor, the result is one graph node whose
    backward pass is written by hand from the cached gates; on plain arrays
    no graph is built.
    """
    inputs = (x, h, *weights)
    # lists, not tuples built from generators: those leave a resized tuple
    # on the interpreter's free list per call, which reads as memory growth
    arrays = [v.data if isinstance(v, Tensor) else v for v in inputs]
    _, h_prev, w_x, u_zr, u_c, _ = arrays
    units, rows, in_dim = u_c.shape[0], h_prev.shape[-1], w_x.shape[0]
    shapes = [v.shape for v in arrays]
    if shapes != [(in_dim, rows), (units, rows), (in_dim, 3 * units), (units, 2 * units), (units, units), (3 * units,)]:
        raise ShapeError(f"GRU input, state and weights {shapes} do not fit {units} units")
    parents = tuple(v for v in inputs if isinstance(v, Tensor))
    gates = np.empty((3 * units, rows))  # [z; r; c]
    h_new = _gru_step(*arrays, gates)
    if mask is not None:
        h_new = mask * h_new + (1.0 - mask) * h_prev
    if not parents:
        return h_new
    out = Tensor(h_new, parents)
    # the node's cache goes to the backward pass as one partial, not as a
    # closure's cells, so each node adds two gc-tracked objects, not fifteen
    out._backward = partial(_gru_cell_backward, out, inputs, arrays, gates, mask)
    return out


def _gru_cell_backward(out: Tensor, inputs: tuple, arrays: list, gates: np.ndarray, mask) -> None:
    """Backward pass of one `gru_cell` node from its cached [z; r; c] gates;
    `mask` is the (N,) column mask, or None when every column is present."""
    x_in, h_prev, w_x, u_zr, u_c, _ = arrays
    units, rows = h_prev.shape
    z, r, c = gates[:units], gates[units : 2 * units], gates[2 * units :]
    d_new = out.grad if mask is None else mask * out.grad
    one_z = 1.0 - z
    d_pre = np.empty((3 * units, rows))  # gradient of the gate pre-activations
    d_z, d_r, d_c = d_pre[:units], d_pre[units : 2 * units], d_pre[2 * units :]
    np.subtract(h_prev, c, out=d_z)
    d_z *= d_new
    d_z *= z
    d_z *= one_z
    np.multiply(d_new, one_z, out=d_c)
    d_c *= 1.0 - c * c
    d_rh = u_c @ d_c
    np.multiply(d_rh, h_prev, out=d_r)
    d_r *= r
    d_r *= 1.0 - r
    d_h = d_new * z
    if mask is not None:
        d_h += (1.0 - mask) * out.grad  # an absent column passes its gradient on
    d_rh *= r
    d_h += d_rh
    d_h += u_zr @ d_pre[: 2 * units]
    d_x = w_x @ d_pre if isinstance(inputs[0], Tensor) else None
    grads = (
        d_x,
        d_h,
        x_in @ d_pre.T,
        h_prev @ d_pre[: 2 * units].T,
        (r * h_prev) @ d_c.T,
        d_pre.sum(axis=1),
    )
    for node, grad in zip(inputs, grads):
        if isinstance(node, Tensor):
            node._accumulate(grad)


def _gru_step(x, h, w_x, u_zr, u_c, b, gates):
    """Classic GRU update (Cho et al. 2014), feature-major: the reset gate
    scales h before the candidate matmul, and the update gate interpolates
    between old state and candidate.  Writes [z; r; c] into `gates`."""
    units = u_c.shape[0]
    gx = w_x.T @ x
    gx += b[:, np.newaxis]
    zr, c = gates[: 2 * units], gates[2 * units :]
    np.matmul(u_zr.T, h, out=zr)
    zr += gx[: 2 * units]
    ad.sigmoid(zr, out=zr)
    z, r = gates[:units], gates[units : 2 * units]
    np.matmul(u_c.T, r * h, out=c)
    c += gx[2 * units :]
    np.tanh(c, out=c)
    h_new = z * h
    h_new += (1.0 - z) * c
    return h_new


def attention(slots, present: np.ndarray):
    """Scaled dot-product attention of each sample's reference agent over all
    its agent slots.

    `slots` is the feature-major (d, A, B) stack of final states, slot 0 the
    reference agent, whose state is the query; every slot is a key and a
    value.  `present` is the (B, A) slot mask.  Returns the (d, B) context.
    An absent slot gets exactly zero weight, so padding a batch with empty
    slots leaves every output unchanged.
    """
    if len(slots.shape) != 3 or slots.shape[1] == 0:
        raise ShapeError(f"attention needs (d, A, B) slots with A >= 1, got {slots.shape}")
    scale = 1.0 / math.sqrt(slots.shape[0])
    scores = (slots * slots[:, 0:1]).sum(axis=0) * scale
    weights = ad.softmax(scores + np.where(present.T, 0.0, -1e9), axis=0)
    return (slots * weights).sum(axis=1)


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

    # -- forward -----------------------------------------------------------

    def _param_values(self, train: bool) -> dict:
        """The parameter Tensors when gradients are needed, else their arrays."""
        if train:
            return self.params
        return {name: node.data for name, node in self.params.items()}

    def forward_batch(self, states: np.ndarray, mask: np.ndarray, train: bool = True):
        """Batched forward pass.

        states: (B, A, S, STATE_DIM) with agent slot 0 the reference agent;
        mask: (B, A, S) with 1.0 where a state is valid.  Returns the raw
        head output, (B, output_dim): a Tensor when `train`, else an array.
        The encoder runs once over all A·B agent rows, agent-major, so its
        (units, A·B) last state is a (units, A, B) stack of slots, which
        attention pools into the decoder's initial state; one agent is its
        own context.  Encoder and decoder run through `_unroll`, the one
        stack loop: the encoder is fed one (input, column mask) pair per
        history frame, the decoder its learned input once per step.  The
        GRU inputs and states are feature-major, (features, rows); the head
        and the loss are row-major, so only the decoder's last state and the
        learned (1, units) decoder input are transposed.
        """
        if states.ndim != 4 or states.shape[3] != STATE_DIM:
            raise ShapeError(f"states must be (B, A, S, {STATE_DIM}), got {states.shape}")
        batch, n_agents, steps, _ = states.shape
        if steps < 1:
            raise DataError("empty history: at least one state frame is required")
        cfg = self.config
        params = self._param_values(train)
        rows = n_agents * batch
        all_present = bool(np.all(mask == 1.0))
        frames = ((states[:, :, t].T.reshape(STATE_DIM, rows) * INPUT_SCALE[:, np.newaxis],
                   None if all_present else mask[:, :, t].T.reshape(rows)) for t in range(steps))
        context = _unroll(params, "enc", cfg.encoder_layers, np.zeros((cfg.units, rows)), frames)
        if n_agents > 1:  # else the softmax of a single slot's score is exactly 1
            context = attention(context.reshape(cfg.units, n_agents, batch), mask.any(axis=2))
        x0 = ad.transpose(params["dec.x0"]) + np.zeros((cfg.units, batch))  # the learned constant input
        last = _unroll(params, "dec", cfg.decoder_layers, context, repeat((x0, None), cfg.decoder_steps))
        return ad.transpose(last) @ params["head.w"] + params["head.b"]

    def predict_positions(self, samples: Samples, offsets: Sequence[int]) -> np.ndarray:
        """Predicted (x, y) of every sample at the given frame offsets: (B, T, 2)."""
        states, mask = collate(samples)
        raw = self.forward_batch(states, mask, train=False)
        t = np.tile(np.array([int(o) for o in offsets], dtype=np.int64), (len(samples), 1))
        positions = np.stack([mean for mean, _ in moments(self.config, raw, t)], axis=2)
        finite = np.isfinite(positions).all(axis=(1, 2))
        if not finite.all():
            bad = samples.sample_ids[~finite].tolist()
            raise NumericalError(f"non-finite prediction for sample(s) {bad}")
        return positions


def _unroll(params: dict, prefix: str, layers: int, initial, steps):
    """The last layer's final state of the GRU stack `prefix` ("enc" or
    "dec") of `layers` layers, each starting from the state `initial`.

    `steps` yields one (input, column mask) pair per step, the mask None
    when every column is present.  The stack runs step-major: each step
    goes up through every layer, one `gru_cell` each, before the next step
    starts, so one state per layer is held."""
    stack = [GRUWeights(*[params[f"{prefix}{layer}.{key}"] for key in GRUWeights._fields])
             for layer in range(layers)]
    hidden = [initial] * layers
    for x, present in steps:
        for layer, weights in enumerate(stack):
            hidden[layer] = x = gru_cell(x, hidden[layer], weights, present)
    return hidden[-1]


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


def batch_loss(model: TrajectoryModel, batch: Samples, t_matrix: np.ndarray, train: bool = True):
    """Negative log-likelihood of a batch at the given anchor offsets.

    t_matrix is (B, T) integer frame offsets (one schedule row per sample;
    the coordinate head requires every row to equal its fixed offsets when
    `train`).  Returns (mean loss, per-sample loss vector).
    """
    t_matrix = np.asarray(t_matrix, dtype=np.int64)
    n_anchors = t_matrix.shape[1]
    truth = future_at(batch, t_matrix)
    states, mask = collate(batch)
    out = model.forward_batch(states, mask, train=train)
    (mean_x, var_x), (mean_y, var_y) = moments(model.config, out, t_matrix)
    nll = gaussian_nll(mean_x, var_x, truth[:, :, 0]) + gaussian_nll(mean_y, var_y, truth[:, :, 1])
    per_sample = nll.sum(axis=1) * (1.0 / n_anchors)
    return per_sample.mean(), per_sample


def collate(batch: Samples) -> tuple[np.ndarray, np.ndarray]:
    """The batch's states and mask, cut to its most agents."""
    if not len(batch):
        raise DataError("empty batch")
    agents = batch.counts.max()
    return batch.states[:, :agents], batch.mask[:, :agents]


# -- training ---------------------------------------------------------------------


@dataclass(frozen=True)
class TrainSettings:
    """The training settings; `from_config` reads them from a run config."""

    lr: float
    epochs: int
    steps: int  # 0 = run all epochs; otherwise stop after this many batches
    batch: int
    optimizer: str
    grad_clip: float
    seed: tuple  # (run.seed, train.seed)

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "TrainSettings":
        return _from_config(cls, "train", cfg)


def _stream_rng(seed, stream: int) -> np.random.Generator:
    parts = [int(s) for s in (seed if isinstance(seed, (tuple, list)) else (seed,))]
    return np.random.default_rng(parts + [stream])


def draw_schedules(
    cfg: ModelConfig, batch_size: int, rng: np.random.Generator
) -> np.ndarray:
    """The (batch_size, anchor_count) anchor offsets, one row per sample: the
    fixed offsets over the horizon in fixed mode, which the coordinate head
    always is, else offsets spread under a last offset drawn per sample
    from U{anchor_min, anchor_max}."""
    if cfg.anchor_mode == "fixed":
        lasts = [cfg.horizon] * batch_size
    else:
        lasts = rng.integers(cfg.anchor_min, cfg.anchor_max + 1, size=batch_size).tolist()
    return np.array(spread(lasts, cfg.anchor_count), dtype=np.int64)


def train(model: TrajectoryModel, samples: Samples, settings: TrainSettings) -> list[tuple[int, float]]:
    """Mini-batch NLL training; returns the (step, loss) pair of every step.
    Every epoch reshuffles with its own stream.

    Anchor draws use a stream independent of shuffling, so a degenerate
    random range U{c, c} reproduces fixed-anchor training exactly.
    """
    if not len(samples):
        raise DataError("training needs a non-empty dataset")
    _check_supervision_range(model.config, samples)
    rng_shuffle = _stream_rng(settings.seed, 1)
    rng_anchor = _stream_rng(settings.seed, 2)
    adam = (
        Adam(model.params, lr=settings.lr, grad_clip=settings.grad_clip)
        if settings.optimizer == "adam"
        else None
    )
    loss_curve = []
    step = 0
    for _ in range(settings.epochs):
        order = rng_shuffle.permutation(len(samples))
        for start in range(0, len(order), settings.batch):
            if settings.steps and step >= settings.steps:
                return loss_curve
            batch = samples[order[start : start + settings.batch]]
            t_matrix = draw_schedules(model.config, len(batch), rng_anchor)
            with np.errstate(all="ignore"):  # a non-finite loss raises below, a non-finite gradient in the step
                loss, per_sample = batch_loss(model, batch, t_matrix, train=True)
                loss.backward()
            finite = np.isfinite(per_sample.data)
            if not finite.all():
                bad = batch.sample_ids[~finite].tolist()
                raise NumericalError(f"non-finite loss at step {step} for sample(s) {bad}")
            if adam is not None:
                adam.step()
            else:
                sgd_step(model.params, lr=settings.lr, grad_clip=settings.grad_clip)
            loss_curve.append((step, float(loss.data)))
            step += 1
    return loss_curve


def _check_supervision_range(cfg: ModelConfig, samples: Samples) -> None:
    needed = cfg.horizon if cfg.anchor_mode == "fixed" else cfg.anchor_max
    available = int(samples.horizons.min())
    if needed > available:
        raise DataError(
            f"anchors reach offset {needed} but samples only cover {available} future frames"
        )


# -- persistence ---------------------------------------------------------------------


def save_model(model: TrajectoryModel, path, extra_meta: dict | None = None) -> None:
    meta = model.config.to_meta()
    meta.update(extra_meta or {})
    ad.save_checkpoint(path, model.params, meta)


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
    # the loaded arrays, in `param_shapes` order, are the parameters: skip __init__'s random draw
    model = TrajectoryModel.__new__(TrajectoryModel)
    model.config = config
    model.params = {name: Tensor(arrays[name]) for name in names}
    return model, meta
