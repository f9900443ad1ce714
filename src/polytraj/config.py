"""Flat key=value run configuration with typed defaults and a fingerprint.

A run is fully described by its config: every random draw derives from
`run.seed` (plus `train.seed` as a per-run stream index), so reruns with
an identical config reproduce all outputs byte for byte.  The fingerprint
is a short hash over every key except the output directory; reports carry
it and files are named with it.

`DEFAULTS` is the one home of each run setting's default and domain: the
model, training and synthetic settings are read from a config, and the
data functions' keyword defaults read `default(key)`.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .errors import ConfigError

# key -> (default, domain, help), the only place a default or a domain is
# written.  The default's type fixes the key's type.  The domain, None for free
# text, is "{a, b}" for a set of choices or an interval over finite numbers such
# as "[0, 1]", "(0, inf)" or "[0, 2**63)"; an end at inf is open, so the
# comparisons alone turn away nan and inf.
DEFAULTS: dict[str, tuple[object, str | None, str]] = {
    "run.seed": (0, "[0, 2**63)", "master seed; every random stream derives from it"),
    "out.dir": ("out", None, "output directory (excluded from the fingerprint)"),
    "data.dir": ("data", None, "dataset directory produced by the generate command"),
    "data.source": ("synthetic", "{synthetic, ngsim}", "dataset source"),
    "data.ngsim_csv": ("", None, "NGSim-format CSV path (required when data.source=ngsim)"),
    "data.frame_rate": (10.0, "[0.1, 1000]", "frames per second of the input data"),
    "data.segment_len": (200, "[1, inf)", "frames per segment when cutting tracks"),
    "data.split_ratio": ("3:1", None, "temporal train:test split of each track's segments"),
    "data.history_len": (50, "[2, inf)",
                         "history frames up to and including t_0; generate fixes it for its data dir"),
    "data.neighbors": (8, "[0, inf)", "max neighbors kept per scene (nearest at t_0)"),
    "data.straight.fraction": (0.5, "[0, 1]", "fraction of straight constant-velocity segments kept"),
    "data.straight.lateral_range_m": (0.5, "[0, inf)", "lateral span below which a segment counts as straight"),
    "data.straight.speed_std": (0.5, "[0, inf)", "speed std below which a segment counts as constant velocity"),
    "synthetic.kind": ("mixed", "{const_vel, const_acc, lane_change, arc, mixed}",
                       "scene kind; mixed cycles through the other four"),
    "synthetic.n": (200, "[1, inf)", "total synthetic scenes to generate"),
    "synthetic.test_fraction": (0.25, "[0, 1]", "fraction of synthetic scenes sent to the test set"),
    "synthetic.frames": (200, "[0, inf)", "frames per synthetic scene; more than data.history_len"),
    "synthetic.noise": (0.0, "[0, 10]", "observation noise sigma in metres (0 = noiseless)"),
    "synthetic.speed_min": (8.0, "[0, 40]", "lower bound of longitudinal speed draws, m/s"),
    "synthetic.speed_max": (16.0, "[0, 40]", "upper bound of longitudinal speed draws, m/s"),
    "synthetic.accel_max": (2.0, "(0, 4]", "max |acceleration| for const_acc scenes, m/s^2"),
    "synthetic.lane_offset_m": (3.5, "(0, 5]", "lateral displacement of lane-change scenes"),
    "synthetic.lane_mid_min": (0.35, "[0, 1]", "earliest lane-change midpoint, fraction of the scene"),
    "synthetic.lane_mid_max": (0.65, "[0, 1]", "latest lane-change midpoint, fraction of the scene"),
    "synthetic.lane_steepness": (0.25, "(0, 10]", "logistic steepness of the lane-change profile, 1/frames"),
    "synthetic.neighbors": (0, "[0, inf)", "parallel constant-velocity neighbors per synthetic scene"),
    "anchors.count": (25, "[1, inf)", "anchor points per training sample"),
    "anchors.mode": ("random", "{fixed, random}", "anchor schedule"),
    "anchors.min": (35, "[1, inf)", "inclusive lower bound of the random final-anchor range"),
    "anchors.max": (55, "[1, inf)", "inclusive upper bound of the random final-anchor range"),
    "horizon_frames": (50, "[1, inf)", "prediction horizon for fixed schedules and evaluation"),
    "model.head": ("polynomial", "{polynomial, coordinates}", "output head"),
    "model.units": (32, "[1, inf)", "hidden units in every recurrent layer"),
    "model.encoder_layers": (2, "[1, 16]", "stacked GRU layers in the encoder"),
    "model.decoder_layers": (3, "[1, 16]", "stacked GRU layers in the decoder"),
    "model.decoder_steps": (5, "[1, 1000]", "decoder steps on the learned constant input"),
    "model.d_x": (3, "[1, inf)", "lateral polynomial degree"),
    "model.d_y": (3, "[1, inf)", "longitudinal polynomial degree"),
    "train.seed": (0, "[0, 2**63)", "per-run stream index mixed with run.seed"),
    "train.lr": (0.005, "(0, 1]", "learning rate"),
    "train.epochs": (10, "[0, inf)", "full passes over the training set"),
    "train.steps": (0, "[0, inf)", "if > 0, stop after this many batches"),
    "train.batch": (32, "[1, inf)", "mini-batch size"),
    "train.optimizer": ("adam", "{adam, sgd}", "optimizer"),
    "train.grad_clip": (5.0, "(0, 1000]", "elementwise gradient clip"),
    "eval.offsets": ("10,20,30,40,50", None, "comma-separated frame offsets for RMSE reporting"),
}

FINGERPRINT_EXCLUDED = ("out.dir",)


class RunConfig:
    """Immutable-ish view over the resolved key=value map."""

    def __init__(self, values: dict[str, object] | None = None):
        self._values = {key: default for key, (default, _, _) in DEFAULTS.items()}
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
        domain = DEFAULTS[key][1]
        if domain is not None and not _in_domain(coerced, domain):
            raise ConfigError(f"config key {key!r} must lie in {domain}, got {value!r}")
        if key in PARSERS:
            PARSERS[key](coerced)
        self._values[key] = coerced

    def __getitem__(self, key: str):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        return self._values[key]

    def items(self):
        return sorted(self._values.items())

    def section(self, prefix: str) -> dict[str, object]:
        """The keys under `prefix.` with the prefix taken off, e.g.
        `section("synthetic")["noise"]` for `synthetic.noise`."""
        return {key[len(prefix) + 1 :]: value for key, value in self.items() if key.startswith(f"{prefix}.")}

    def fingerprint(self) -> str:
        text = "\n".join(
            f"{key}={value}" for key, value in self.items() if key not in FINGERPRINT_EXCLUDED
        )
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def parse_offsets(text: str) -> tuple[int, ...]:
    """The frame offsets of an `eval.offsets` value."""
    try:
        offsets = tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise ConfigError(f"eval.offsets must be comma-separated integers, got {text!r}") from None
    if not offsets:
        raise ConfigError("eval.offsets must name at least one offset")
    if not 1 <= min(offsets) <= max(offsets) < 2**63:  # offset arrays are int64
        raise ConfigError(f"eval.offsets must be frame offsets in [1, 2**63), got {text!r}")
    return offsets


def parse_ratio(ratio: str) -> tuple[int, int]:
    """The (train, test) shares of a `data.split_ratio` value such as '3:1'."""
    parts = ratio.split(":")
    if len(parts) != 2:
        raise ConfigError(f"data.split_ratio must look like '3:1', got {ratio!r}")
    try:
        train, test = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"data.split_ratio parts must be integers, got {ratio!r}") from None
    if train < 1 or test < 1:
        raise ConfigError(f"data.split_ratio parts must be positive, got {ratio!r}")
    return train, test


PARSERS = {"eval.offsets": parse_offsets, "data.split_ratio": parse_ratio}
"""The parser of each free-text key; `RunConfig.set` rejects a value it rejects."""


def default(key: str):
    """A config key's default."""
    return DEFAULTS[key][0]


def _in_domain(value, domain: str) -> bool:
    """Whether `value` lies in a `DEFAULTS` domain: one of the "{a, b}"
    choices, or within the interval's ends, "[" and "]" closed."""
    if domain.startswith("{"):
        return value in domain[1:-1].split(", ")
    low, high = (_bound(end) for end in domain[1:-1].split(", "))
    above = low <= value if domain[0] == "[" else low < value
    below = value <= high if domain[-1] == "]" else value < high
    return above and below


def _bound(text: str) -> float:
    base, _, power = text.partition("**")
    return float(base) ** int(power or 1)


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
    """One line per config key with its default and domain, for --help output."""
    width = max(len(key) for key in DEFAULTS)
    lines = ["config keys (defaults in brackets, then the domain):"]
    for key in sorted(DEFAULTS):
        default, domain, help_text = DEFAULTS[key]
        lines.append(f"  {key.ljust(width)}  {help_text} [{default}]" + (f" in {domain}" if domain else ""))
    return "\n".join(lines)
