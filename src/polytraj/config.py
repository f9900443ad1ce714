"""Flat key=value run configuration with typed defaults and a fingerprint.

A run is fully described by its config: every random draw derives from
`run.seed` (plus `train.seed` as a per-run stream index), so reruns with
an identical config reproduce all outputs byte for byte.  The fingerprint
is a short hash over every key except the output directory; reports carry
it and files are named with it.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .errors import ConfigError

# key -> (default, help); the default's type fixes the key's type
DEFAULTS: dict[str, tuple[object, str]] = {
    "run.seed": (0, "master seed; every random stream derives from it"),
    "out.dir": ("out", "output directory (excluded from the fingerprint)"),
    "data.dir": ("data", "dataset directory produced by the generate command"),
    "data.source": ("synthetic", "dataset source: synthetic | ngsim"),
    "data.ngsim_csv": ("", "NGSim-format CSV path (required when data.source=ngsim)"),
    "data.frame_rate": (10.0, "frames per second of the input data"),
    "data.segment_len": (200, "frames per segment when cutting tracks"),
    "data.split_ratio": ("3:1", "temporal train:test split of each track's segments"),
    "data.history_len": (50, "history frames up to and including t_0; generate fixes it for its data dir"),
    "data.neighbors": (8, "max neighbors kept per scene (nearest at t_0)"),
    "data.straight.fraction": (0.5, "fraction of straight constant-velocity segments kept"),
    "data.straight.lateral_range_m": (0.5, "lateral span below which a segment counts as straight"),
    "data.straight.speed_std": (0.5, "speed std below which a segment counts as constant velocity"),
    "synthetic.kind": ("mixed", "const_vel | const_acc | lane_change | arc | mixed"),
    "synthetic.n": (200, "total synthetic scenes to generate"),
    "synthetic.test_fraction": (0.25, "fraction of synthetic scenes sent to the test set"),
    "synthetic.frames": (200, "frames per synthetic scene"),
    "synthetic.noise": (0.0, "observation noise sigma in metres (0 = noiseless)"),
    "synthetic.speed_min": (8.0, "lower bound of longitudinal speed draws, m/s"),
    "synthetic.speed_max": (16.0, "upper bound of longitudinal speed draws, m/s"),
    "synthetic.accel_max": (2.0, "max |acceleration| for const_acc scenes, m/s^2"),
    "synthetic.lane_offset_m": (3.5, "lateral displacement of lane-change scenes"),
    "synthetic.lane_mid_min": (0.35, "earliest lane-change midpoint, fraction of the scene"),
    "synthetic.lane_mid_max": (0.65, "latest lane-change midpoint, fraction of the scene"),
    "synthetic.lane_steepness": (0.25, "logistic steepness of the lane-change profile, 1/frames"),
    "synthetic.neighbors": (0, "parallel constant-velocity neighbors per synthetic scene"),
    "anchors.count": (25, "anchor points per training sample"),
    "anchors.mode": ("random", "anchor schedule: fixed | random"),
    "anchors.min": (35, "inclusive lower bound of the random final-anchor range"),
    "anchors.max": (55, "inclusive upper bound of the random final-anchor range"),
    "horizon_frames": (50, "prediction horizon for fixed schedules and evaluation"),
    "model.head": ("polynomial", "output head: polynomial | coordinates"),
    "model.units": (32, "hidden units in every recurrent layer"),
    "model.encoder_layers": (2, "stacked GRU layers in the encoder"),
    "model.decoder_layers": (3, "stacked GRU layers in the decoder"),
    "model.decoder_steps": (5, "decoder steps on the learned constant input"),
    "model.d_x": (3, "lateral polynomial degree"),
    "model.d_y": (3, "longitudinal polynomial degree"),
    "train.seed": (0, "per-run stream index mixed with run.seed"),
    "train.lr": (0.005, "learning rate"),
    "train.epochs": (10, "full passes over the training set"),
    "train.steps": (0, "if > 0, stop after this many batches"),
    "train.batch": (32, "mini-batch size"),
    "train.optimizer": ("adam", "adam | sgd"),
    "train.grad_clip": (5.0, "elementwise gradient clip"),
    "eval.offsets": ("10,20,30,40,50", "comma-separated frame offsets for RMSE reporting"),
}

FINGERPRINT_EXCLUDED = ("out.dir",)


class RunConfig:
    """Immutable-ish view over the resolved key=value map."""

    def __init__(self, values: dict[str, object] | None = None):
        self._values = {key: default for key, (default, _) in DEFAULTS.items()}
        for key, value in (values or {}).items():
            self.set(key, value)

    def set(self, key: str, value) -> None:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        default = DEFAULTS[key][0]
        try:
            if isinstance(default, int):
                coerced = int(str(value))
            elif isinstance(default, float):
                coerced = float(str(value))
            else:
                coerced = str(value)
        except ValueError:
            raise ConfigError(f"config key {key!r} expects {type(default).__name__}, got {value!r}") from None
        self._values[key] = coerced

    def __getitem__(self, key: str):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        return self._values[key]

    def items(self):
        return sorted(self._values.items())

    def fingerprint(self) -> str:
        text = "\n".join(
            f"{key}={value}" for key, value in self.items() if key not in FINGERPRINT_EXCLUDED
        )
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def eval_offsets(self) -> tuple[int, ...]:
        try:
            offsets = tuple(int(part) for part in str(self["eval.offsets"]).split(",") if part)
        except ValueError:
            raise ConfigError(f"eval.offsets must be comma-separated integers, got {self['eval.offsets']!r}") from None
        if not offsets:
            raise ConfigError("eval.offsets must name at least one offset")
        if min(offsets) < 1:
            raise ConfigError(f"eval.offsets must be frame offsets of at least 1, got {min(offsets)}")
        return offsets


def load_config(path=None, overrides: list[str] | None = None) -> RunConfig:
    """Build a config from an optional file plus `key=value` overrides."""
    config = RunConfig()
    if path is not None:
        file_path = Path(path)
        if not file_path.exists():
            raise ConfigError(f"no such config file: {file_path}")
        for lineno, raw in enumerate(file_path.read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{file_path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            config.set(key, value)
    for override in overrides or []:
        if "=" not in override:
            raise ConfigError(f"--set expects key=value, got {override!r}")
        key, value = override.split("=", 1)
        config.set(key.strip(), value.strip())
    return config


def defaults_help() -> str:
    """One line per config key with its default, for --help output."""
    width = max(len(key) for key in DEFAULTS)
    lines = ["config keys (defaults in brackets):"]
    for key in sorted(DEFAULTS):
        default, help_text = DEFAULTS[key]
        lines.append(f"  {key.ljust(width)}  {help_text} [{default}]")
    return "\n".join(lines)
