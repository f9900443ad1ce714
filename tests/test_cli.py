"""End-to-end CLI tests on desk-scale synthetic data."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytraj import cli, studies
from polytraj.autodiff import load_checkpoint
from polytraj.cli import main
from polytraj.config import DEFAULTS, RunConfig, load_config
from polytraj.model import ModelConfig, TrainSettings, TrajectoryModel, save_model

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


def test_train_nan_learning_rate_exits_1_without_checkpoint(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    out_dir = tmp_path / "run"
    args = ["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "train.steps=1", "train.lr=nan")]
    assert main(args) == 1
    assert "train.lr" in capsys.readouterr().err
    assert not (out_dir / "checkpoint.txt").exists()


def test_train_non_finite_loss_exits_3_without_checkpoint(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    for scene in (data_dir / "train").glob("scene_*.csv"):  # every future y 1e160 m away: the NLL overflows
        lines = scene.read_text().splitlines()
        lines[21:91] = [",".join([*line.split(",")[:3], "1e160", "", ""]) for line in lines[21:91]]
        scene.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "train.steps=1")]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (out_dir / "checkpoint.txt").exists()


@pytest.mark.parametrize("history_len", [19, 21])
def test_train_at_another_history_len_than_generated_exits_1(tmp_path, capsys, history_len):
    data_dir = _generate(tmp_path)
    assert json.loads((data_dir / "manifest.json").read_text())["history_len"] == 20
    capsys.readouterr()
    args = ["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={tmp_path / 'run'}",
                            f"data.history_len={history_len}")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "data.history_len=20" in err and f"is {history_len}," in err
    assert not (tmp_path / "run" / "checkpoint.txt").exists()


def test_eval_at_another_history_len_than_generated_exits_1(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "train.steps=1")]) == 0
    capsys.readouterr()
    args = ["eval", "--checkpoint", str(out_dir / "checkpoint.txt"),
            *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "data.history_len=21")]
    assert main(args) == 1
    assert "data.history_len=20" in capsys.readouterr().err
    assert not list(out_dir.glob("eval_*"))


@pytest.mark.parametrize(
    "spoil",
    [
        lambda manifest: manifest.unlink(),
        lambda manifest: manifest.write_text("{"),
        lambda manifest: manifest.write_text(
            json.dumps({k: v for k, v in json.loads(manifest.read_text()).items() if k != "history_len"})
        ),
        lambda manifest: manifest.write_text(
            json.dumps({k: v for k, v in json.loads(manifest.read_text()).items() if k != "frame_rate"})
        ),
    ],
    ids=["deleted", "unreadable", "without-history-len", "without-frame-rate"],
)
def test_train_without_a_manifest_history_len_exits_2(tmp_path, capsys, spoil):
    data_dir = _generate(tmp_path)
    spoil(data_dir / "manifest.json")
    capsys.readouterr()
    assert main(["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={tmp_path / 'run'}")]) == 2
    assert "run generate again" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        (("synthetic.frames=0",), "history_len"),
        (("synthetic.frames=20", "data.history_len=20"), "history_len"),
        (("data.frame_rate=0",), "data.frame_rate"),
        (("data.frame_rate=nan",), "data.frame_rate"),
    ],
    ids=["frames-0", "frames-equal-history-len", "frame-rate-0", "frame-rate-nan"],
)
def test_generate_bad_window_or_frame_rate_exits_1(tmp_path, capsys, overrides, message):
    data_dir = tmp_path / "data"
    assert main(["generate", *_sets(*TINY, f"out.dir={data_dir}", *overrides)]) == 1
    assert message in capsys.readouterr().err
    assert not (data_dir / "manifest.json").exists()


def test_train_at_frame_rate_zero_exits_1(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    capsys.readouterr()
    args = ["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={tmp_path / 'run'}", "data.frame_rate=0")]
    assert main(args) == 1
    assert "data.frame_rate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval", "study"])
def test_command_at_another_frame_rate_than_generated_exits_1(tmp_path, capsys, command):
    data_dir = _generate(tmp_path)
    assert json.loads((data_dir / "manifest.json").read_text())["frame_rate"] == 10.0
    out_dir = tmp_path / "run"
    sets = _sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "train.steps=1")
    assert main(["train", *sets]) == 0
    before = _hash_tree(out_dir)
    capsys.readouterr()
    args = {"train": ["train"], "eval": ["eval", "--checkpoint", str(out_dir / "checkpoint.txt")],
            "study": ["study", "anchoring"]}[command]
    assert main([*args, *sets, "--set", "data.frame_rate=1"]) == 1
    err = capsys.readouterr().err
    assert "data.frame_rate is 1.0," in err and "data.frame_rate=10.0" in err
    assert _hash_tree(out_dir) == before


def test_regenerating_a_data_dir_leaves_no_stale_scenes(tmp_path, capsys):
    _generate(tmp_path, ["synthetic.n=16"])
    data_dir = _generate(tmp_path, ["synthetic.n=4"])
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["scenes"] == {"train": 3, "test": 1, "total": 4}
    for split in ("train", "test"):
        assert len(list((data_dir / split).glob("scene_*.csv"))) == manifest["scenes"][split]
    capsys.readouterr()
    assert main(["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={tmp_path / 'run'}")]) == 0
    assert "trained 1 steps" in capsys.readouterr().out  # 3 scenes in batches of 4


def test_scene_file_not_in_the_manifest_exits_2(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    shutil.copy(data_dir / "train" / "scene_00000.csv", data_dir / "train" / "scene_00099.csv")
    capsys.readouterr()
    assert main(["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={tmp_path / 'run'}")]) == 2
    err = capsys.readouterr().err
    assert "holds 7 scene files, but its manifest lists 6" in err
    assert not (tmp_path / "run" / "checkpoint.txt").exists()


def test_eval_with_a_directory_for_a_scene_file_exits_2(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "train.steps=1")]) == 0
    scene = data_dir / "test" / "scene_00001.csv"
    scene.unlink()
    scene.mkdir()  # the split keeps the scene count its manifest lists
    capsys.readouterr()
    args = ["eval", "--checkpoint", str(out_dir / "checkpoint.txt"),
            *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}")]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {scene}: ")
    assert not list(out_dir.glob("eval_*"))


def test_generate_from_an_ngsim_csv_that_is_a_directory_exits_2(tmp_path, capsys):
    csv_dir = tmp_path / "ngsim.csv"
    csv_dir.mkdir()
    args = ["generate", *_sets("data.source=ngsim", f"data.ngsim_csv={csv_dir}", f"out.dir={tmp_path / 'data'}")]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {csv_dir}: ")


def test_closed_stdout_exits_141_without_a_traceback(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    try:
        result = subprocess.run(
            [sys.executable, "-m", "polytraj.cli", "generate", *_sets(*TINY, f"out.dir={tmp_path / 'data'}")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120, check=False,
        )
    finally:
        os.close(write_end)
    assert result.returncode == cli.BROKEN_PIPE_EXIT == 141
    assert b"Traceback" not in result.stderr and b"BrokenPipeError" not in result.stderr
    assert (tmp_path / "data" / "manifest.json").exists()


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


@pytest.mark.parametrize("horizon", ["-5", "0"])
def test_eval_checkpoint_horizon_out_of_domain_exits_2(tmp_path, capsys, horizon):
    data_dir = _generate(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "train.steps=1")]) == 0
    checkpoint = out_dir / "checkpoint.txt"
    text = checkpoint.read_text()
    assert "\nmeta model.horizon 50\n" in text
    checkpoint.write_text(text.replace("\nmeta model.horizon 50\n", f"\nmeta model.horizon {horizon}\n"))
    capsys.readouterr()
    args = ["eval", "--checkpoint", str(checkpoint), *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}")]
    assert main(args) == 2
    assert "horizon_frames" in capsys.readouterr().err
    assert not list(out_dir.glob("eval_*"))


def test_eval_non_finite_rmse_exits_3_without_eval_files(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["train", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "train.steps=1")]) == 0
    for scene in (data_dir / "test").glob("scene_*.csv"):  # every future y 1e160 m away: its square overflows
        lines = scene.read_text().splitlines()
        lines[21:91] = [",".join([*line.split(",")[:3], "1e160", "", ""]) for line in lines[21:91]]
        scene.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    args = ["eval", "--checkpoint", str(out_dir / "checkpoint.txt"),
            *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 3
    assert "non-finite RMSE" in capsys.readouterr().err
    assert not list(out_dir.glob("eval_*"))


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


STUDY_FILES = {
    "anchoring": ("anchoring_{}.csv", "anchoring_{}.svg"),
    "anchor_count": ("anchor_count_{}.csv", "anchor_count_{}.svg"),
    "extrapolation": ("extrapolation_{}.csv", "extrapolation_{}.svg"),
    "table1": ("table1_coords_{}.csv", "table1_poly_{}.csv"),
}


@pytest.mark.parametrize("name", sorted(STUDY_FILES))
def test_study_runs_small(tmp_path, capsys, name):
    data_dir = _generate(tmp_path)
    out_dir = tmp_path / "study"
    args = ["study", name, *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "train.steps=2",
                                  "horizon_frames=50")]
    assert main(args) == 0
    out = capsys.readouterr().out
    if name == "anchoring":
        assert "fixed-2" in out and "random-2" in out
        assert "samples: 2 of 2" in out
    fingerprint = out.splitlines()[-1].removeprefix("fingerprint: ")
    first = _hash_tree(out_dir)
    assert sorted(first) == [pattern.format(fingerprint) for pattern in STUDY_FILES[name]]
    assert main(args) == 0
    assert _hash_tree(out_dir) == first


def test_extrapolation_degree_above_the_coordinate_points_exits_1_before_training(tmp_path, capsys, monkeypatch):
    data_dir = _generate(tmp_path)
    calls = []
    monkeypatch.setattr(studies, "train", lambda *args: calls.append(args))
    capsys.readouterr()
    args = ["study", "extrapolation", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={tmp_path / 'study'}",
                                             "model.d_x=4")]
    assert main(args) == 1
    assert "model.d_x=4" in capsys.readouterr().err
    assert calls == []


def test_extrapolation_at_degree_1_writes_one_linear_curve(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    out_dir = tmp_path / "study"
    capsys.readouterr()
    args = ["study", "extrapolation", *_sets(*TINY, f"data.dir={data_dir}", f"out.dir={out_dir}", "train.steps=2",
                                             "model.d_x=1")]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.count("coord-fit-deg1:") == 1
    (path,) = out_dir.glob("extrapolation_*.csv")
    with open(path, newline="") as fh:
        methods = [row["method"] for row in csv.DictReader(fh)]
    assert methods.count("coord-fit-deg1") == 30
    assert sorted(set(methods)) == ["coord-fit-deg1", "poly"]


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
    for key, (_, domain, _) in DEFAULTS.items():
        assert key in out
        assert domain is None or f" in {domain}" in out


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


# -- the config schema -------------------------------------------------------------


def test_every_default_lies_in_its_domain():
    RunConfig({key: default for key, (default, _, _) in DEFAULTS.items()})  # set() checks each domain
    for key, (_, domain, _) in DEFAULTS.items():
        if domain is not None and not domain.startswith("{"):
            assert not domain.startswith("[-inf") and not domain.endswith("inf]"), key


@pytest.mark.parametrize(
    "command, override",
    [
        # each ended in a raw traceback
        ("train", "train.batch=0"),
        ("generate", "run.seed=-1"),
        ("train", "train.seed=-1"),
        ("ngsim", "data.segment_len=0"),
        ("generate", "synthetic.lane_mid_min=2"),
        # each exited 0 doing the wrong thing
        ("train", "train.batch=-3"),
        ("train", "train.steps=-1"),
        ("train", "train.epochs=-1"),
        ("train", "train.grad_clip=-1"),
        ("train", "train.lr=-1"),
        ("ngsim", "data.neighbors=-1"),
        ("ngsim", "data.segment_len=-5"),
        # each was accepted silently
        ("generate", "synthetic.n=0"),
        ("generate", "synthetic.test_fraction=1.5"),
        ("generate", "synthetic.test_fraction=-1"),
        ("generate", "synthetic.noise=-1"),
        ("generate", "synthetic.noise=nan"),
        ("generate", "synthetic.neighbors=-1"),
        ("generate", "synthetic.lane_steepness=nan"),
        # each ended after numpy warnings, in exit 3 or 0
        ("train", "horizon_frames=0"),
        ("train", "train.lr=1e300"),
        ("generate", "data.frame_rate=1e-300"),
    ],
)
def test_out_of_domain_setting_exits_1_naming_key_and_domain(tmp_path, capsys, command, override):
    out_dir = tmp_path / "out"
    if command == "train":
        args = ["train", *_sets(*TINY, f"data.dir={_generate(tmp_path)}", f"out.dir={out_dir}", override)]
    elif command == "ngsim":
        _write_ngsim(tmp_path / "ngsim.csv")
        args = ["generate", *_sets("data.source=ngsim", f"data.ngsim_csv={tmp_path / 'ngsim.csv'}",
                                   "data.history_len=20", f"out.dir={out_dir}", override)]
    else:
        args = ["generate", *_sets(*TINY, f"out.dir={out_dir}", override)]
    capsys.readouterr()
    assert main(args) == 1
    key = override.split("=")[0]
    assert f"{key!r} must lie in {DEFAULTS[key][1]}" in capsys.readouterr().err
    assert not out_dir.exists()


def _domain_edges(key: str) -> list[str]:
    """A key's choices and one value that is not among them, or the values at
    and just outside each finite end of its interval, plus nan and inf."""
    default, domain, _ = DEFAULTS[key]
    if domain.startswith("{"):
        return [*domain[1:-1].split(", "), "zigzag"]
    values = ["nan", "inf", "-inf"] if isinstance(default, float) else []
    low, high = domain[1:-1].split(", ")
    for end, closed, outward in ((low, domain[0] == "[", -1.0), (high, domain[-1] == "]", 1.0)):
        if end == "inf":
            continue
        base, _, power = end.partition("**")
        if isinstance(default, int):
            bound = int(base) ** int(power or 1)
            inside, outside = (bound, bound + int(outward)) if closed else (bound - int(outward), bound)
        else:
            bound = float(end)
            beyond, within = np.nextafter(bound, outward * np.inf), np.nextafter(bound, -outward * np.inf)
            inside, outside = (bound, beyond) if closed else (within, bound)
            inside, outside = repr(float(inside)), repr(float(outside))
        values += [str(inside), str(outside)]
    return values


SCHEMA_EDGES = [f"{key}={value}" for key in sorted(DEFAULTS) if DEFAULTS[key][1] for value in _domain_edges(key)]


@pytest.fixture(scope="module")
def ngsim_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("ngsim") / "ngsim.csv"
    _write_ngsim(path, frames=240)
    return path


def _finite_outputs(root: Path) -> None:
    for path in root.rglob("*.csv"):
        for line in path.read_text().splitlines()[1:]:
            for field in line.split(","):
                try:
                    value = float(field)
                except ValueError:
                    continue
                assert np.isfinite(value), (path, line)
    for path in root.rglob("checkpoint.txt"):
        _, arrays = load_checkpoint(path)
        assert all(np.all(np.isfinite(array)) for array in arrays.values()), path


@settings(max_examples=200, derandomize=True, deadline=None)
@given(ngsim=st.booleans(), overrides=st.lists(st.sampled_from(SCHEMA_EDGES), min_size=1, max_size=2))
def test_pipeline_at_domain_edges_ends_in_an_exit_code(tmp_path_factory, ngsim_csv, ngsim, overrides):
    root = tmp_path_factory.mktemp("edges")
    base = list(TINY)
    if ngsim:
        base += ["data.source=ngsim", f"data.ngsim_csv={ngsim_csv}", "data.segment_len=80"]
    sets = _sets(*base, f"data.dir={root / 'data'}", *overrides)
    commands = [
        ["generate", *sets, "--set", f"out.dir={root / 'data'}"],
        ["train", *sets, "--set", f"out.dir={root / 'run'}"],
        ["eval", "--checkpoint", str(root / "run" / "checkpoint.txt"), *sets, "--set", f"out.dir={root / 'run'}"],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in commands:
            code = main(args)
            assert code in (0, 1, 2, 3)
            if code:
                break
            _finite_outputs(root)


# -- every setting's default lives in DEFAULTS: each key reaches its setting -------------


# a non-default value in the domain of each key that sets a model, training or
# synthetic setting, with the field it sets and that field's expected value
SETTING_KEYS = {
    "horizon_frames": (51, "horizon", 51),
    "anchors.count": (4, "anchor_count", 4),
    "anchors.mode": ("fixed", "anchor_mode", "fixed"),
    "anchors.min": (36, "anchor_min", 36),
    "anchors.max": (54, "anchor_max", 54),
    "model.head": ("coordinates", "head", "coordinates"),
    "model.units": (4, "units", 4),
    "model.encoder_layers": (1, "encoder_layers", 1),
    "model.decoder_layers": (2, "decoder_layers", 2),
    "model.decoder_steps": (3, "decoder_steps", 3),
    "model.d_x": (2, "d_x", 2),
    "model.d_y": (4, "d_y", 4),
    "run.seed": (3, "seed", (3, 0)),
    "train.seed": (7, "seed", (0, 7)),
    "train.lr": (0.01, "lr", 0.01),
    "train.epochs": (2, "epochs", 2),
    "train.steps": (5, "steps", 5),
    "train.batch": (8, "batch", 8),
    "train.optimizer": ("sgd", "optimizer", "sgd"),
    "train.grad_clip": (2.5, "grad_clip", 2.5),
}
SYNTHETIC_KEYS = {
    "synthetic.kind": "arc",
    "synthetic.n": 12,
    "synthetic.test_fraction": 0.4,
    "synthetic.frames": 60,
    "synthetic.noise": 0.1,
    "synthetic.speed_min": 9.0,
    "synthetic.speed_max": 15.0,
    "synthetic.accel_max": 1.5,
    "synthetic.lane_offset_m": 3.0,
    "synthetic.lane_mid_min": 0.4,
    "synthetic.lane_mid_max": 0.6,
    "synthetic.lane_steepness": 0.5,
    "synthetic.neighbors": 1,
}


def test_wiring_tables_cover_every_setting_key_with_a_non_default_in_its_domain():
    sections = ("model.", "anchors.", "train.", "synthetic.")
    expected = {key for key in DEFAULTS if key == "horizon_frames" or key.startswith(sections)}
    assert set(SETTING_KEYS) | set(SYNTHETIC_KEYS) == expected | {"run.seed"}
    values = {**{key: value for key, (value, _, _) in SETTING_KEYS.items()}, **SYNTHETIC_KEYS}
    for key, value in values.items():
        assert value != DEFAULTS[key][0], key
        RunConfig({key: value})  # set() checks the domain


def _settings(cfg: RunConfig) -> dict:
    return {**vars(ModelConfig.from_config(cfg)), **vars(TrainSettings.from_config(cfg))}


@pytest.mark.parametrize("key", sorted(SETTING_KEYS))
def test_each_model_and_train_key_reaches_its_setting_alone(key):
    value, field, expected = SETTING_KEYS[key]
    base = {"anchors.mode": "fixed"} if key == "model.head" else {}  # the coordinate head needs fixed anchors
    before, after = _settings(RunConfig(base)), _settings(RunConfig({**base, key: value}))
    assert {name: v for name, v in after.items() if before[name] != v} == {field: expected}


def test_each_synthetic_key_reaches_gen_synthetic(tmp_path, monkeypatch):
    calls = []

    def gen_synthetic(params, n, rng, frame_rate, *, history_len):
        calls.append((params, n))
        return []

    monkeypatch.setattr(cli.datamod, "gen_synthetic", gen_synthetic)
    overrides = [f"{key}={value}" for key, value in SYNTHETIC_KEYS.items()]
    assert main(["generate", *_sets(*overrides, f"out.dir={tmp_path}")]) == 0
    params = {key.removeprefix("synthetic."): value for key, value in SYNTHETIC_KEYS.items()}
    assert calls == [(params, 7), (params, 5)]  # 12 scenes, int(12 * 0.4 + 0.5) of them for test


def test_model_meta_round_trips_and_pins_the_default_checkpoint_lines(tmp_path):
    default = ModelConfig.from_config(RunConfig())
    changed = ModelConfig.from_config(RunConfig({key: value for key, (value, field, _) in SETTING_KEYS.items()
                                                 if field in vars(default)}))
    assert changed != default
    for config in (default, changed):
        assert ModelConfig.from_meta(config.to_meta()) == config
    save_model(TrajectoryModel(default), tmp_path / "checkpoint.txt")
    lines = [line for line in (tmp_path / "checkpoint.txt").read_text().splitlines() if line.startswith("meta ")]
    assert lines == [
        "meta model.anchor_count 25",
        "meta model.anchor_max 55",
        "meta model.anchor_min 35",
        "meta model.anchor_mode random",
        "meta model.d_x 3",
        "meta model.d_y 3",
        "meta model.decoder_layers 3",
        "meta model.decoder_steps 5",
        "meta model.encoder_layers 2",
        "meta model.head polynomial",
        "meta model.horizon 50",
        "meta model.input_dim 7",
        "meta model.units 32",
    ]
