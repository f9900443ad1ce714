"""End-to-end CLI tests on desk-scale synthetic data."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from polytraj.autodiff import load_checkpoint
from polytraj.cli import main
from polytraj.config import DEFAULTS, RunConfig, load_config
from polytraj.model import ModelConfig, TrajectoryModel

TINY = [
    "synthetic.n=8",
    "synthetic.frames=90",
    "data.history_len=20",
    "model.units=3",
    "model.decoder_steps=2",
    "train.epochs=1",
    "train.batch=4",
    "anchors.count=3",
]


def _sets(*pairs):
    out = []
    for pair in pairs:
        out.extend(["--set", pair])
    return out


def _hash_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _generate(tmp_path, extra=()):
    data_dir = tmp_path / "data"
    code = main(["generate", *_sets(*TINY, f"out.dir={data_dir}", *extra)])
    assert code == 0
    return data_dir


def test_generate_writes_manifest_and_scenes(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["scenes"]["total"] == 8
    assert manifest["scenes"]["train"] == 6
    assert manifest["scenes"]["test"] == 2
    assert len(list((data_dir / "train").glob("scene_*.csv"))) == 6
    out = capsys.readouterr().out
    assert "8 scenes" in out
    assert "fingerprint" in out


def test_generate_same_seed_is_byte_identical(tmp_path):
    data_dir = _generate(tmp_path)
    first = _hash_tree(data_dir)
    _generate(tmp_path)
    assert _hash_tree(data_dir) == first


def test_generate_invalid_kind_exits_1_and_names_kinds(tmp_path, capsys):
    code = main(["generate", *_sets(*TINY, f"out.dir={tmp_path/'d'}", "synthetic.kind=zigzag")])
    assert code == 1
    err = capsys.readouterr().err
    assert "const_vel" in err and "lane_change" in err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    code = main(["generate", "--set", "no.such.key=1"])
    assert code == 1
    assert "no.such.key" in capsys.readouterr().err


def test_train_eval_end_to_end(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    out_dir = tmp_path / "run"
    code = main(
        ["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "train.steps=3")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fingerprint:" in out
    checkpoint = out_dir / "checkpoint.txt"
    assert checkpoint.exists()
    assert list(out_dir.glob("loss_*.csv"))

    code = main(
        ["eval", "--checkpoint", str(checkpoint), *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Offset (sec)" in out  # default offsets produce the benchmark layout
    assert list(out_dir.glob("eval_*.csv")) and list(out_dir.glob("eval_*.svg"))

    code = main(
        [
            "eval",
            "--checkpoint",
            str(checkpoint),
            *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "eval.offsets=10,20,50"),
        ]
    )
    assert code == 0
    assert "offset_frames" in capsys.readouterr().out


@pytest.mark.parametrize("offsets", ["-5,5", "0,10"])
def test_eval_offset_below_one_exits_1(tmp_path, capsys, offsets):
    data_dir = _generate(tmp_path)
    out_dir = tmp_path / "run"
    main(["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "train.steps=1")])
    capsys.readouterr()
    args = ["eval", "--checkpoint", str(out_dir / "checkpoint.txt"),
            *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", f"eval.offsets={offsets}")]
    assert main(args) == 1
    assert "eval.offsets" in capsys.readouterr().err
    assert not list(out_dir.glob("eval_*"))


def test_train_nan_learning_rate_exits_3_without_checkpoint(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    out_dir = tmp_path / "run"
    args = ["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "train.steps=1", "train.lr=nan")]
    assert main(args) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (out_dir / "checkpoint.txt").exists()


def test_train_epochs_zero_equals_initialization(tmp_path):
    data_dir = _generate(tmp_path)
    out_dir = tmp_path / "run"
    code = main(
        ["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "train.epochs=0")]
    )
    assert code == 0
    meta, arrays = load_checkpoint(out_dir / "checkpoint.txt")
    cfg = RunConfig()
    for pair in TINY:
        key, value = pair.split("=")
        cfg.set(key, value)
    fresh = TrajectoryModel(ModelConfig.from_meta(meta), seed=(cfg["run.seed"], cfg["train.seed"]))
    for name, node in fresh.params.items():
        np.testing.assert_array_equal(arrays[name], node.data)


def test_eval_head_mismatch_exits_1(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    out_dir = tmp_path / "run"
    main(["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "train.steps=1")])
    capsys.readouterr()
    code = main(
        [
            "eval",
            "--checkpoint",
            str(out_dir / "checkpoint.txt"),
            *_sets(
                *TINY,
                f"data.dir={data_dir}",
                f"out.dir={out_dir}",
                "model.head=coordinates",
                "anchors.mode=fixed",
            ),
        ]
    )
    assert code == 1
    assert "head" in capsys.readouterr().err


def test_eval_missing_data_exits_2(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    out_dir = tmp_path / "run"
    main(["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "train.steps=1")])
    capsys.readouterr()
    code = main(
        [
            "eval",
            "--checkpoint",
            str(out_dir / "checkpoint.txt"),
            *_sets(*TINY, f"data.dir={tmp_path/'nowhere'}", f"out.dir={out_dir}"),
        ]
    )
    assert code == 2


def test_eval_corrupt_checkpoint_exit_codes(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    out_dir = tmp_path / "run"
    main(["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "train.steps=1")])
    lines = (out_dir / "checkpoint.txt").read_text().splitlines()
    cases = {
        2: [line for line in lines if not line.startswith("meta model.head ")],
        3: lines[:-1] + [" ".join(["nan"] + lines[-1].split()[1:])],
    }
    for code, corrupt in cases.items():
        path = tmp_path / f"corrupt_{code}.txt"
        path.write_text("\n".join(corrupt) + "\n")
        capsys.readouterr()
        args = ["eval", "--checkpoint", str(path), *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}")]
        assert main(args) == code
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "overrides",
    [
        ("anchors.min=60", "anchors.max=50"),
        ("anchors.count=40",),  # above the default anchors.min of 35
        ("anchors.count=25", "anchors.mode=fixed", "horizon_frames=10"),
    ],
)
def test_train_bad_anchor_config_exits_1(tmp_path, capsys, overrides):
    data_dir = _generate(tmp_path)
    capsys.readouterr()
    args = ["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={tmp_path / 'run'}", *overrides)]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda lines: [lines[0], "x" + lines[1]] + lines[2:],  # non-numeric agent id
        lambda lines: lines[:2] + [lines[2].rsplit(",", 3)[0] + ",nan,,"] + lines[3:],  # nan y
        lambda lines: [lines[0], lines[2], lines[1]] + lines[3:],  # unsorted reference frames
    ],
)
def test_train_bad_scene_file_exits_2(tmp_path, capsys, corrupt):
    data_dir = _generate(tmp_path)
    scene = data_dir / "train" / "scene_00000.csv"
    scene.write_text("\n".join(corrupt(scene.read_text().splitlines())) + "\n")
    capsys.readouterr()
    args = ["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={tmp_path / 'run'}")]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_train_rerun_is_byte_identical(tmp_path):
    data_dir = _generate(tmp_path)
    out_dir = tmp_path / "run"
    args = ["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "train.steps=3")]
    assert main(args) == 0
    first = _hash_tree(out_dir)
    assert main(args) == 0
    assert _hash_tree(out_dir) == first


def test_study_anchoring_runs_small(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    out_dir = tmp_path / "study"
    code = main(
        [
            "study",
            "anchoring",
            *_sets(
                *TINY,
                f"data.dir={data_dir}",
                f"out.dir={out_dir}",
                "train.steps=2",
                "horizon_frames=50",
            ),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fixed-2" in out and "random-2" in out
    assert "samples: 2 of 2" in out
    assert list(out_dir.glob("anchoring_*.csv")) and list(out_dir.glob("anchoring_*.svg"))


def _write_ngsim(path, vehicles=3, frames=60):
    rows = ["Vehicle_ID,Frame_ID,Total_Frames,Local_X,Local_Y,v_Vel,v_Acc\n"]
    for vid in range(1, vehicles + 1):
        rows += [f"{vid},{k},{frames},{12.0 * vid},{40.0 * k / 10.0},40.0,0.0\n" for k in range(frames)]
    path.write_text("".join(rows))


@pytest.mark.parametrize(
    "override, message",
    [
        ("data.history_len=40", "history_len"),
        ("data.history_len=55", "history_len"),
        ("data.split_ratio=a:1", "ratio"),
    ],
)
def test_generate_ngsim_bad_setting_exits_1(tmp_path, capsys, override, message):
    csv_path = tmp_path / "ngsim.csv"
    _write_ngsim(csv_path)
    args = ["generate", *_sets("data.source=ngsim", f"data.ngsim_csv={csv_path}", "data.segment_len=40",
                               f"out.dir={tmp_path / 'data'}", override)]
    assert main(args) == 1
    assert message in capsys.readouterr().err
    valid = ["generate", *_sets("data.source=ngsim", f"data.ngsim_csv={csv_path}", "data.segment_len=40",
                                "data.history_len=20", f"out.dir={tmp_path / 'ok'}")]
    assert main(valid) == 0


def test_help_lists_every_config_key(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for key in DEFAULTS:
        assert key in out


def test_config_file_plus_override(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text("run.seed = 5\ntrain.lr = 0.25  # comment\n")
    cfg = load_config(config_file, ["train.lr=0.5"])
    assert cfg["run.seed"] == 5
    assert cfg["train.lr"] == 0.5  # override wins


def test_fingerprint_ignores_out_dir():
    a = RunConfig({"out.dir": "x"})
    b = RunConfig({"out.dir": "y"})
    assert a.fingerprint() == b.fingerprint()
    c = RunConfig({"run.seed": 1})
    assert c.fingerprint() != a.fingerprint()
