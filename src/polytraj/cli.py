"""Command-line entry points: generate | train | eval | study.

Every command is driven by the flat config (file plus --set overrides,
overrides win) and is idempotent: identical config and seed reproduce
identical output bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import data as datamod
from . import studies
from .config import RunConfig, defaults_help, load_config
from .errors import ConfigError, DataError, PolytrajError
from .evaluation import RMSE_OFFSETS, rmse_at_offsets
from .model import (
    ModelConfig,
    TrainSettings,
    TrajectoryModel,
    load_model,
    save_model,
    train,
)
from .report import (
    HEADS,
    Series,
    format_summary_table,
    write_eval_csv,
    write_loss_csv,
    write_study_csv,
    write_svg_chart,
)

STUDIES = {
    "anchoring": studies.anchoring_study,
    "anchor_count": studies.anchor_count_study,
    "extrapolation": studies.extrapolation_study,
    "table1": studies.table1_protocol,
}

BROKEN_PIPE_EXIT = 141  # 128 + SIGPIPE, as a shell reports a process that a closed pipe ended

GENERATED_KEYS = ("data.history_len", "data.frame_rate")
"""Keys the scenes of a data dir are built with, recorded in its manifest:
neighbours are kept over history_len frames, and the frame rate scales the
speed and acceleration features."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="polytraj",
        description="Continuous polynomial trajectory prediction: data, training, evaluation.",
        epilog=defaults_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "generate or ingest a dataset into scene files"),
        ("train", "train a model on a generated dataset"),
        ("eval", "evaluate a checkpoint on the test split"),
        ("study", "reproduce one of the experimental studies"),
    ):
        p = sub.add_parser(name, help=help_text, epilog=defaults_help(),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable; wins over the file)",
        )
        if name == "eval":
            p.add_argument("--checkpoint", required=True, help="checkpoint file to evaluate")
        if name == "study":
            p.add_argument("name", choices=STUDIES, help="which study to run")
    return parser


# -- shared helpers ---------------------------------------------------------------


def _prepare_out_dir(cfg: RunConfig) -> Path:
    out_dir = Path(cfg["out.dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise DataError(f"output dir {out_dir} is not writable: {exc}") from None
    return out_dir


def _load_samples(cfg: RunConfig, split: str) -> list:
    data_dir = Path(cfg["data.dir"])
    split_dir = data_dir / split
    if not split_dir.is_dir():
        raise DataError(f"no {split} split under {data_dir}; run generate first")
    try:
        manifest = json.loads((data_dir / "manifest.json").read_text())
        generated = {key: manifest[key.removeprefix("data.")] for key in GENERATED_KEYS}
        count = manifest["scenes"][split]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{data_dir} has no readable manifest.json with a history_len, frame_rate and "
                        f"{split} scene count ({exc!r}); run generate again") from None
    for key, value in generated.items():
        if cfg[key] != value:
            raise ConfigError(f"{key} is {cfg[key]}, but {data_dir} was generated with "
                              f"{key}={value}; use that or run generate again")
    scene_files = sorted(split_dir.glob("scene_*.csv"))
    if not scene_files:
        raise DataError(f"no scene files in {split_dir}")
    if len(scene_files) != count:
        raise DataError(f"{split_dir} holds {len(scene_files)} scene files, but its manifest lists {count}; "
                        "run generate again")
    scenes = [datamod.read_scene(path, frame_rate=cfg["data.frame_rate"]) for path in scene_files]
    return datamod.build_samples(scenes, history_len=cfg["data.history_len"])


def _write_scene_split(scenes, split_dir: Path) -> list[str]:
    """Write a split's scene files in place of any the directory holds."""
    split_dir.mkdir(parents=True, exist_ok=True)
    for stale in split_dir.glob("scene_*.csv"):
        stale.unlink()
    names = []
    for i, scene in enumerate(scenes):
        name = f"scene_{i:05d}.csv"
        datamod.write_scene(scene, split_dir / name)
        names.append(name)
    return names


# -- commands ---------------------------------------------------------------------


def cmd_generate(cfg: RunConfig) -> int:
    out_dir = _prepare_out_dir(cfg)
    source = cfg["data.source"]
    seed = cfg["run.seed"]
    frame_rate = cfg["data.frame_rate"]
    history_len = cfg["data.history_len"]
    if source == "synthetic":
        params = cfg.section("synthetic")
        n_test = int(params["n"] * params["test_fraction"] + 0.5)
        train_scenes = datamod.gen_synthetic(
            params, params["n"] - n_test, np.random.default_rng([seed, 10]), frame_rate, history_len=history_len
        )
        test_scenes = datamod.gen_synthetic(
            params, n_test, np.random.default_rng([seed, 11]), frame_rate, history_len=history_len
        )
        detail = {"kind": params["kind"]}
    else:
        csv_path = cfg["data.ngsim_csv"]
        if not csv_path:
            raise ConfigError("data.source=ngsim requires data.ngsim_csv")
        tracks = datamod.ingest_ngsim(csv_path, frame_rate=frame_rate)
        train_segments, test_segments = datamod.segment_and_split(
            tracks, segment_len=cfg["data.segment_len"], ratio=cfg["data.split_ratio"]
        )
        neighbors = cfg["data.neighbors"]
        train_scenes = [
            datamod.build_scene(seg, tracks, history_len, neighbors) for seg in train_segments
        ]
        test_scenes = [
            datamod.build_scene(seg, tracks, history_len, neighbors) for seg in test_segments
        ]
        train_scenes = datamod.filter_straight(
            train_scenes,
            fraction=cfg["data.straight.fraction"],
            rng=np.random.default_rng([seed, 12]),
            lateral_range_m=cfg["data.straight.lateral_range_m"],
            speed_std=cfg["data.straight.speed_std"],
        )
        detail = {"ngsim_csv": str(csv_path), "tracks": len(tracks)}
    (out_dir / "manifest.json").unlink(missing_ok=True)  # written last, so a failed write leaves none
    train_names = _write_scene_split(train_scenes, out_dir / "train")
    test_names = _write_scene_split(test_scenes, out_dir / "test")
    manifest = {
        "source": source,
        "seed": seed,
        "fingerprint": cfg.fingerprint(),
        "history_len": history_len,
        "frame_rate": frame_rate,
        "scenes": {"train": len(train_names), "test": len(test_names),
                   "total": len(train_names) + len(test_names)},
        **detail,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote {manifest['scenes']['total']} scenes "
          f"({len(train_names)} train, {len(test_names)} test) to {out_dir}")
    print(f"fingerprint: {manifest['fingerprint']}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    out_dir = _prepare_out_dir(cfg)
    samples = _load_samples(cfg, "train")
    settings = TrainSettings.from_config(cfg)
    model = TrajectoryModel(ModelConfig.from_config(cfg), seed=settings.seed)
    loss_curve = train(model, samples, settings)
    fingerprint = cfg.fingerprint()
    checkpoint = out_dir / "checkpoint.txt"
    save_model(model, checkpoint, extra_meta={"fingerprint": fingerprint})
    write_loss_csv(loss_curve, out_dir / f"loss_{fingerprint}.csv")
    if loss_curve:
        print(f"trained {len(loss_curve)} steps, final loss {loss_curve[-1][1]:.6f}")
    else:
        print("trained 0 steps (checkpoint equals initialization)")
    print(f"checkpoint: {checkpoint}")
    print(f"fingerprint: {fingerprint}")
    return 0


def cmd_eval(cfg: RunConfig, checkpoint_path: str) -> int:
    out_dir = _prepare_out_dir(cfg)
    model, meta = load_model(checkpoint_path)
    if model.config.head != cfg["model.head"]:
        raise ConfigError(
            f"checkpoint head {model.config.head!r} does not match configured "
            f"model.head {cfg['model.head']!r}"
        )
    samples = _load_samples(cfg, "test")
    fingerprint = cfg.fingerprint()
    offsets = cfg.eval_offsets()
    report = rmse_at_offsets(model, samples, offsets)
    write_eval_csv(report, out_dir / f"eval_{fingerprint}.csv")
    label, _ = HEADS[model.config.head]
    series = [Series(label, report.rmse_offsets, tuple(float(v) for v in report.ade_curve))]
    write_svg_chart(series, out_dir / f"eval_{fingerprint}.svg", title=f"ADE, {label}")
    if offsets == RMSE_OFFSETS:
        print(format_summary_table({label: report.rmse}))
    else:
        print("offset_frames  rmse_m  ade_m")
        for offset, rmse, ade in zip(report.rmse_offsets, report.rmse, report.ade_curve):
            print(f"{offset:>13d}  {rmse:.4f}  {ade:.4f}")
    print(f"samples: {report.sample_count}")
    print(f"fingerprint: {fingerprint}")
    return 0


def cmd_study(cfg: RunConfig, name: str) -> int:
    out_dir = _prepare_out_dir(cfg)
    train_samples = _load_samples(cfg, "train")
    test_samples = _load_samples(cfg, "test")
    base = ModelConfig.from_config(cfg)
    settings = TrainSettings.from_config(cfg)
    fingerprint = cfg.fingerprint()
    report = STUDIES[name](train_samples, test_samples, base, settings)
    if name == "table1":
        for head, head_report in report.items():
            write_eval_csv(head_report, out_dir / f"table1_{HEADS[head][1]}_{fingerprint}.csv")
        print(format_summary_table({HEADS[head][0]: r.rmse for head, r in report.items()}))
        print(f"fingerprint: {fingerprint}")
        return 0
    write_study_csv(report, out_dir / f"{name}_{fingerprint}.csv")
    write_svg_chart(report.series, out_dir / f"{name}_{fingerprint}.svg", title=f"{name} study")
    for series in report.series:
        mean_ade = sum(series.values) / len(series.values)
        print(f"{series.label}: mean ADE {mean_ade:.4f} m over {len(series.offsets)} offsets")
    print(f"samples: {report.sample_count} of {len(test_samples)}")
    print(f"fingerprint: {fingerprint}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, args.overrides)
        if args.command == "generate":
            code = cmd_generate(cfg)
        elif args.command == "train":
            code = cmd_train(cfg)
        elif args.command == "eval":
            code = cmd_eval(cfg, args.checkpoint)
        else:
            code = cmd_study(cfg, args.name)
        sys.stdout.flush()  # so that a closed stdout shows here, not at interpreter exit
        return code
    except PolytrajError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:  # the reader of stdout has gone, as in `polytraj ... | head -1`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit flush writes nowhere
        return BROKEN_PIPE_EXIT


if __name__ == "__main__":
    sys.exit(main())
