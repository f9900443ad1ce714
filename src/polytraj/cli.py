"""Command-line entry points: generate | train | eval | study.

Every command is driven by the flat config (file plus --set overrides,
overrides win) and is idempotent: identical config and seed reproduce
identical output bytes.  The format of a data directory is `data`'s own:
generate hands it the splits and the run's details to write, and
train, eval and study ask it for a split's samples at the configured
history length and frame rate.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import data as datamod
from . import studies
from .config import RunConfig, defaults_help, load_config, parse_offsets
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
OUT_OF_MEMORY_EXIT = 4
INTERRUPTED_EXIT = 130  # 128 + SIGINT, as a shell reports a process that Ctrl-C ended

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
    """Make `out.dir` and probe that it takes a file.  A command calls it
    after everything that can refuse the run, so a refused run leaves no
    directory, and before the training or evaluation it would waste."""
    out_dir = Path(cfg["out.dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise DataError(f"output dir {out_dir} is not writable: {exc}") from None
    return out_dir


def _load_samples(cfg: RunConfig, split: str) -> datamod.Samples:
    return datamod.read_split(cfg["data.dir"], split, cfg["data.history_len"], cfg["data.frame_rate"])


# -- commands ---------------------------------------------------------------------


def cmd_generate(cfg: RunConfig) -> int:
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
        # before the filter gathers rows: a split with no segment is data.segment_len wide, maybe past any array
        if not len(train_segments) and not len(test_segments):
            raise DataError(f"no scene from {csv_path} ({len(tracks)} tracks) at "
                            f"data.segment_len={cfg['data.segment_len']}; nothing written")
        train_segments = datamod.filter_straight(
            train_segments,
            tracks,
            fraction=cfg["data.straight.fraction"],
            rng=np.random.default_rng([seed, 12]),
            lateral_range_m=cfg["data.straight.lateral_range_m"],
            speed_std=cfg["data.straight.speed_std"],
        )
        # built a chunk at a time as they are written, their history_len checked now
        neighbors = cfg["data.neighbors"]
        train_scenes = datamod.SceneSplit(train_segments, tracks, history_len, neighbors)
        test_scenes = datamod.SceneSplit(test_segments, tracks, history_len, neighbors)
        detail = {"ngsim_csv": str(csv_path), "tracks": len(tracks)}
    out_dir = _prepare_out_dir(cfg)
    fingerprint = cfg.fingerprint()
    counts = datamod.write_data_dir(out_dir, {"train": train_scenes, "test": test_scenes}, history_len, frame_rate,
                                    source=source, seed=seed, fingerprint=fingerprint, **detail)["scenes"]
    print(f"wrote {counts['total']} scenes ({counts['train']} train, {counts['test']} test) to {out_dir}")
    print(f"fingerprint: {fingerprint}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    settings = TrainSettings.from_config(cfg)
    model = TrajectoryModel(ModelConfig.from_config(cfg), seed=settings.seed)
    samples = _load_samples(cfg, "train")
    out_dir = _prepare_out_dir(cfg)
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
    model, meta = load_model(checkpoint_path)
    if model.config.head != cfg["model.head"]:
        raise ConfigError(
            f"checkpoint head {model.config.head!r} does not match configured "
            f"model.head {cfg['model.head']!r}"
        )
    samples = _load_samples(cfg, "test")
    offsets = parse_offsets(cfg["eval.offsets"])
    out_dir = _prepare_out_dir(cfg)
    fingerprint = cfg.fingerprint()
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
    base = ModelConfig.from_config(cfg)
    settings = TrainSettings.from_config(cfg)
    train_samples = _load_samples(cfg, "train")
    test_samples = _load_samples(cfg, "test")
    out_dir = _prepare_out_dir(cfg)
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
    except MemoryError as exc:  # as from a size key set beyond what the host holds
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return OUT_OF_MEMORY_EXIT
    except OSError as exc:  # as from a full disk while an output is written
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return DataError.exit_code
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return INTERRUPTED_EXIT


if __name__ == "__main__":
    sys.exit(main())
