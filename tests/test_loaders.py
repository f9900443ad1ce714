"""Loaders of outside input: corrupt checkpoints, NGSim files and scene
files end in a typed PolytrajError, never in a raw exception."""

import base64
import hashlib
import json
import re

import numpy as np
import pytest
from conftest import (
    assert_same_scene,
    batch_of,
    each_scene,
    model_config,
    oracle_ingest_ngsim,
    oracle_read_scene,
    oracle_states,
    oracle_write_scene,
    one_scene,
    sample_rows,
    synthetic_params,
    track_rows,
    with_first_value,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polytraj.autodiff import load_checkpoint
from polytraj.cli import main
from polytraj.data import (DEFAULT_FRAME_RATE, SPLIT_CHUNK, Scenes, build_sample, gen_synthetic, ingest_ngsim,
                           read_scene, read_split, write_data_dir)
from polytraj.errors import DataError, NumericalError, PolytrajError
from polytraj.model import TrajectoryModel, load_model, save_model

NGSIM_TEXT = (
    "Vehicle_ID,Frame_ID,Total_Frames,Local_X,Local_Y,v_Vel,v_Acc\n"
    "1,10,3,1.0,2.0,30.0,0.5\n"
    "2,10,3,5.0,9.0,31.0,0.0\n"
    "1,11,3,1.0,5.0,30.0,0.5\n"
    "2,11,3,5.0,12.0,31.0,0.0\n"
    "1,12,3,1.0,8.0,30.0,0.5\n"
)

# reference agent 3 at frames 0..3, neighbour 5 absent at frame 0 with no
# recorded accels
SCENE_TEXT = (
    "agent_id,frame,x_m,y_m,v,a\n"
    "3,0,0.0,0.0,10.0,0.5\n"
    "3,1,0.0,1.0,10.0,0.5\n"
    "3,2,0.0,2.0,10.0,0.5\n"
    "3,3,0.0,3.0,10.0,0.5\n"
    "5,1,3.5,4.0,9.0,\n"
    "5,2,3.5,5.0,9.0,\n"
    "5,3,3.5,6.0,9.0,\n"
)

# tokens that have broken naive parsers: empty, non-numeric, non-finite,
# out of range, negative sizes, separators and keywords out of place
HOSTILE = ["", "x", "nan", "inf", "-inf", "1e400", "1e300", "-1", "0", "9" * 30, ",", '"',
           "param", "meta", "\x00", "3.5", " "]


@pytest.fixture(scope="module")
def checkpoint_text(tmp_path_factory) -> str:
    cfg = model_config(units=2, encoder_layers=1, decoder_layers=1, decoder_steps=1, d_x=1, d_y=1)
    path = tmp_path_factory.mktemp("ckpt") / "model.txt"
    save_model(TrajectoryModel(cfg, seed=0), path)
    return path.read_text()


def _edit(lines: list[str], edits) -> list[str]:
    lines = list(lines)
    for kind, where, token, payload in edits:
        if not lines:
            break
        i = where % len(lines)
        tokens = lines[i].split(" ")
        if kind == "delete":
            del lines[i]
        elif kind == "truncate":
            lines[i] = lines[i][: token % (len(lines[i]) + 1)]
        elif kind == "insert":
            lines.insert(i, payload)
        else:
            tokens[token % len(tokens)] = payload
            lines[i] = " ".join(tokens)
    return lines


EDITS = st.lists(
    st.tuples(
        st.sampled_from(["delete", "truncate", "insert", "replace"]),
        st.integers(0, 1000),
        st.integers(0, 1000),
        st.one_of(st.sampled_from(HOSTILE), st.text(max_size=8)),
    ),
    min_size=1,
    max_size=4,
)


# -- checkpoints --------------------------------------------------------------------


def _corrupt(tmp_path, text: str):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    return path


def test_missing_meta_key_is_data_error(tmp_path, checkpoint_text):
    text = "\n".join(l for l in checkpoint_text.splitlines() if not l.startswith("meta model.units "))
    with pytest.raises(DataError, match="model.units"):
        load_model(_corrupt(tmp_path, text))


def test_truncated_param_line_is_data_error(tmp_path, checkpoint_text):
    lines = checkpoint_text.splitlines()
    with pytest.raises(DataError):
        load_checkpoint(_corrupt(tmp_path, "\n".join(lines[:-1] + ["param head.b"])))
    with pytest.raises(DataError):
        load_checkpoint(_corrupt(tmp_path, "\n".join(lines[:-1])))  # values line missing
    short = base64.b64encode(base64.b64decode(lines[-1])[:-8]).decode("ascii")  # valid base64, one value short
    with pytest.raises(DataError):
        load_checkpoint(_corrupt(tmp_path, "\n".join(lines[:-1] + [short])))


def test_non_numeric_value_is_data_error(tmp_path, checkpoint_text):
    lines = checkpoint_text.splitlines()
    lines[-1] = "*" + lines[-1][1:]  # outside the base64 alphabet
    with pytest.raises(DataError):
        load_checkpoint(_corrupt(tmp_path, "\n".join(lines)))


def test_non_finite_value_is_numerical_error(tmp_path, checkpoint_text):
    lines = checkpoint_text.splitlines()
    lines[-1] = with_first_value(lines[-1], np.nan)
    with pytest.raises(NumericalError, match="head.b"):
        load_model(_corrupt(tmp_path, "\n".join(lines)))


def test_format_1_checkpoint_is_data_error_through_eval(tmp_path, checkpoint_text, capsys):
    # format 1 held each parameter's values as space-separated float text
    lines = ["polytraj-checkpoint 1"]
    for line in checkpoint_text.splitlines()[1:]:
        if line.startswith(("meta ", "param ")):
            lines.append(line)
        else:
            lines.append(" ".join(repr(v) for v in np.frombuffer(base64.b64decode(line), dtype="<f8").tolist()))
    path = _corrupt(tmp_path, "\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path), "--set", f"out.dir={tmp_path / 'out'}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "format 1" in err and "run `train` again" in err


def test_oversized_meta_allocates_nothing(tmp_path, checkpoint_text):
    # within numpy's index range, as `ModelConfig` refuses a size past it before any shape is matched
    text = checkpoint_text.replace("meta model.units 2", "meta model.units 100000000")
    with pytest.raises(DataError, match="enc0.w_x"):
        load_model(_corrupt(tmp_path, text))


@pytest.mark.parametrize("horizon", ["-5", "0"])
def test_meta_outside_its_config_domain_is_data_error(tmp_path, checkpoint_text, horizon):
    assert "meta model.horizon 50\n" in checkpoint_text
    text = checkpoint_text.replace("meta model.horizon 50\n", f"meta model.horizon {horizon}\n")
    with pytest.raises(DataError, match=r"'horizon_frames' must lie in \[1, inf\)"):
        load_model(_corrupt(tmp_path, text))


def _extra_meta_token(lines):
    i = lines.index("meta model.units 2")
    return lines[:i] + ["meta model.units 2 3"] + lines[i + 1 :], i + 1


def _extra_param_size(lines):
    i = lines.index("param head.b 1 4")
    return lines[:i] + ["param head.b 1 4 99"] + lines[i + 1 :], i + 1


def _repeated_param(lines):
    return lines + lines[-2:], len(lines) + 1


def _repeated_meta_key(lines):
    i = lines.index("meta model.units 2")
    return lines[: i + 1] + ["meta model.units 3"] + lines[i + 1 :], i + 2


@pytest.mark.parametrize("edit", [_extra_meta_token, _extra_param_size, _repeated_param, _repeated_meta_key])
def test_checkpoint_off_the_saved_layout_is_data_error_naming_the_line(tmp_path, checkpoint_text, edit):
    lines, bad_line = edit(checkpoint_text.splitlines())
    path = _corrupt(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"malformed checkpoint line {bad_line} of"):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path), "--set", f"out.dir={tmp_path / 'out'}"]) == 2


@settings(max_examples=150, derandomize=True, deadline=None)
@given(edits=EDITS)
def test_fuzzed_checkpoint_raises_only_polytraj_errors(tmp_path_factory, checkpoint_text, edits):
    path = tmp_path_factory.mktemp("fuzz") / "model.txt"
    path.write_bytes("\n".join(_edit(checkpoint_text.splitlines(), edits)).encode("utf-8", "replace"))
    try:
        model, _ = load_model(path)
    except PolytrajError:
        return
    assert all(np.all(np.isfinite(node.data)) for node in model.params.values())


# -- NGSim files -----------------------------------------------------------------------


def test_ngsim_non_numeric_field_is_data_error(tmp_path):
    path = tmp_path / "ngsim.csv"
    path.write_text(NGSIM_TEXT.replace("1,11,3,1.0,5.0", "1,11,3,1.0,five"))
    with pytest.raises(DataError, match="line 4"):
        ingest_ngsim(path)


def test_ngsim_non_finite_speed_is_data_error(tmp_path):
    path = tmp_path / "ngsim.csv"
    path.write_text(NGSIM_TEXT.replace("1,11,3,1.0,5.0,30.0", "1,11,3,1.0,5.0,nan"))
    with pytest.raises(DataError, match="track 1"):
        ingest_ngsim(path)


def test_ngsim_quoted_field_is_data_error(tmp_path):
    # the csv module read a quoted number; the column-wise parse rejects any
    # quote, as a quoted comma would shift the columns it reads
    path = tmp_path / "ngsim.csv"
    path.write_text(NGSIM_TEXT.replace("2,11,3,5.0", '2,"11",3,5.0'))
    assert len(oracle_ingest_ngsim(path)) == 2
    with pytest.raises(DataError, match="line 5: quoted"):
        ingest_ngsim(path)


@pytest.mark.parametrize("old, new, message", [
    ("1,11,3,1.0", "1,9007199254740992,3,1.0", "line 4: frame 9007199254740992 out of range"),
    ("1,11,3,1.0", "1e300,11,3,1.0", "line 4: vehicle id .* out of range"),
    ("1,11,3,1.0", "nan,11,3,1.0", "line 4: vehicle id nan out of range"),
])
def test_ngsim_id_or_frame_out_of_range_is_data_error_with_line(tmp_path, old, new, message):
    path = tmp_path / "ngsim.csv"
    path.write_text(NGSIM_TEXT.replace(old, new))
    with pytest.raises(DataError, match=message):
        ingest_ngsim(path)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(edits=EDITS, raw=st.binary(max_size=4))
# vehicle 1 at frames 10, 11 and 14: a gap, and a 1-row piece to drop
@example(edits=[("replace", 5, 1, "14")], raw=b"")
# vehicle 1 at frames 10-12, 20 and 21: a gap with 2-row pieces either side
@example(edits=[("insert", 5, 0, "1 20 3 1.0 9.0 30.0 0.5"), ("insert", 5, 0, "1 21 3 1.0 9.0 30.0 0.5")], raw=b"")
def test_fuzzed_ngsim_raises_only_polytraj_errors(tmp_path_factory, edits, raw):
    # cells are edited like checkpoint tokens, with commas for spaces
    lines = [line.replace(",", " ") for line in NGSIM_TEXT.splitlines()]
    text = "\n".join(line.replace(" ", ",") for line in _edit(lines, edits))
    path = tmp_path_factory.mktemp("fuzz") / "ngsim.csv"
    path.write_bytes(text.encode("utf-8", "replace") + raw)
    try:
        tracks = ingest_ngsim(path)
    except PolytrajError:
        return
    # what each track of outside input must be, which ingest alone checks
    for track in track_rows(tracks):
        steps = np.diff(track.frames)
        assert track.frames.size >= 2 and steps[0] > 0 and np.all(steps == steps[0])
        for values in (track.positions, track.speeds, track.accels):
            assert np.all(np.isfinite(values))


# -- scene files -----------------------------------------------------------------------


def _scene_file(tmp_path, text: str):
    path = tmp_path / "scene.csv"
    path.write_text(text)
    return path


def test_scene_reads_empty_field_as_not_recorded(tmp_path):
    scene = read_scene(_scene_file(tmp_path, SCENE_TEXT))
    assert scene.agent_ids.tolist() == [[3, 5]]
    np.testing.assert_array_equal(scene.present[0, 1], [False, True, True, True])
    np.testing.assert_array_equal(scene.speeds[0, 1], [0.0, 9.0, 9.0, 9.0])
    assert not scene.recorded[0, 1, 1]
    np.testing.assert_array_equal(scene.accels[0, 0], [0.5] * 4)
    # one empty v field makes the whole agent unrecorded, and its other v values read 0
    path = _scene_file(tmp_path, SCENE_TEXT.replace("5,2,3.5,5.0,9.0,", "5,2,3.5,5.0,,"))
    scene = read_scene(path)
    assert not scene.recorded[0, :, 1].any()
    np.testing.assert_array_equal(scene.speeds[0, 1], [0.0] * 4)
    assert_same_scene(scene, oracle_read_scene(path))


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("5,2,3.5", "x,2,3.5", 7),  # non-numeric agent id
        ("3,2,0.0,2.0", "3,2,0.0,two", 4),  # non-numeric coordinate
        ("5,3,3.5,6.0,9.0,", "5,3,3.5,6.0", 8),  # missing fields
        ("3,2,0.0,2.0,10.0,0.5", "3,2,0.0,2.0,,,", 4),  # one field too many
    ],
)
def test_bad_scene_field_is_data_error_with_line(tmp_path, old, new, line):
    with pytest.raises(DataError, match=f"line {line}"):
        read_scene(_scene_file(tmp_path, SCENE_TEXT.replace(old, new)))


@pytest.mark.parametrize(
    "old, new",
    [
        ("3,1,0.0,1.0,10.0,0.5", "3,1,0.0,1.0,nan,0.5"),  # nan is not "not recorded"
        ("5,1,3.5,4.0", "5,1,inf,4.0"),
        ("3,3,0.0,3.0,10.0,0.5", "3,3,0.0,3.0,10.0,-1e400"),
    ],
)
def test_non_finite_scene_value_is_data_error(tmp_path, old, new):
    with pytest.raises(DataError, match="non-finite"):
        read_scene(_scene_file(tmp_path, SCENE_TEXT.replace(old, new)))


def test_scene_unsorted_reference_frames_is_data_error(tmp_path):
    text = SCENE_TEXT.replace("3,1,0.0,1.0", "3,9,0.0,1.0").replace("3,2,0.0,2.0", "3,1,0.0,2.0")
    with pytest.raises(DataError, match="strictly increasing"):
        read_scene(_scene_file(tmp_path, text))


def test_scene_duplicate_frame_is_data_error(tmp_path):
    with pytest.raises(DataError, match="duplicate"):
        read_scene(_scene_file(tmp_path, SCENE_TEXT.replace("5,3,", "5,2,")))
    with pytest.raises(DataError, match="strictly increasing"):
        read_scene(_scene_file(tmp_path, SCENE_TEXT.replace("3,3,", "3,2,")))


def test_scene_frame_outside_window_is_data_error(tmp_path):
    with pytest.raises(DataError, match="frame 7 outside"):
        read_scene(_scene_file(tmp_path, SCENE_TEXT.replace("5,3,", "5,7,")))


def test_scene_error_names_the_first_faulty_agent(tmp_path):
    # agent 2's non-finite value comes before agent 3's frame outside the window
    text = (
        "agent_id,frame,x_m,y_m,v,a\n"
        "1,0,0.0,0.0,,\n"
        "1,1,0.0,1.0,,\n"
        "1,2,0.0,2.0,,\n"
        "2,0,3.5,0.0,nan,\n"
        "2,1,3.5,1.0,9.0,\n"
        "3,1,-3.5,1.0,,\n"
        "3,9,-3.5,2.0,,\n"
    )
    for read in (read_scene, oracle_read_scene):
        with pytest.raises(DataError, match="scene agent 2 has a non-finite value"):
            read(_scene_file(tmp_path, text))


def test_scene_frame_outside_window_wins_over_duplicate_frame(tmp_path):
    # agent 5 repeats frame 1, then has frames 9 and 7 outside the window:
    # the error names the first of those in file order
    text = SCENE_TEXT.replace("5,2,", "5,1,").replace("5,3,", "5,9,") + "5,7,3.5,7.0,9.0,\n"
    for read in (read_scene, oracle_read_scene):
        with pytest.raises(DataError, match="scene agent 5 has frame 9 outside the window"):
            read(_scene_file(tmp_path, text))


def test_scene_agent_rows_in_two_blocks_read_as_one_agent(tmp_path):
    lines = SCENE_TEXT.splitlines()
    text = "\n".join([*lines[:3], lines[5], *lines[3:5], *lines[6:]]) + "\n"  # agent 5's frame 1 between 3's
    path = _scene_file(tmp_path, text)
    scene = read_scene(path)
    assert scene.agent_ids.tolist() == [[3, 5]]
    np.testing.assert_array_equal(scene.present[0, 1], [False, True, True, True])
    assert_same_scene(scene, oracle_read_scene(path))
    assert_same_scene(scene, read_scene(_scene_file(tmp_path, SCENE_TEXT)))


def test_scene_reads_crlf_line_ends(tmp_path):
    # write_scene ends lines in CRLF; LF and CRLF lines may mix
    path = tmp_path / "scene.csv"
    path.write_bytes(SCENE_TEXT.replace("\n", "\r\n", 4).encode())
    crlf = read_scene(path)
    plain = read_scene(_scene_file(tmp_path, SCENE_TEXT))
    np.testing.assert_array_equal(crlf.positions[0, 1], plain.positions[0, 1])
    assert not crlf.recorded[0, 1, 1]


@pytest.mark.parametrize("text, line", [
    (SCENE_TEXT.replace("\n", "\r"), None),  # old Mac line ends: no line feed at all
    (SCENE_TEXT.replace("3,2,0.0,2.0,10.0,0.5\n", "3,2,0.0,2.0,10.0,0.5\r"), 4),  # one bare CR
])
def test_scene_bare_carriage_return_is_data_error(tmp_path, text, line):
    # the csv module took a lone CR for a line end; the column-wise parse
    # accepts CR only right before LF
    path = tmp_path / "scene.csv"
    path.write_bytes(text.encode())
    assert oracle_read_scene(path).agent_ids.size == 2
    with pytest.raises(DataError, match="bad scene header" if line is None else f"line {line}: carriage return"):
        read_scene(path)


def test_scene_blank_line_in_body_is_data_error(tmp_path):
    text = SCENE_TEXT.replace("3,3,0.0", "\n3,3,0.0")
    assert oracle_read_scene(_scene_file(tmp_path, text)).agent_ids.size == 2  # the csv reader skipped it
    with pytest.raises(DataError, match="line 5: expected 6 fields, got 1"):
        read_scene(_scene_file(tmp_path, text))


def test_scene_header_only_is_data_error(tmp_path):
    for text in ("agent_id,frame,x_m,y_m,v,a\n", "agent_id,frame,x_m,y_m,v,a\r\n", "agent_id,frame,x_m,y_m,v,a"):
        with pytest.raises(DataError, match="has no rows"):
            read_scene(_scene_file(tmp_path, text))


@pytest.mark.parametrize("frame", [str(2**63), str(-(2**63) - 1)])
def test_scene_frame_beyond_int64_is_data_error(tmp_path, frame):
    with pytest.raises(DataError, match=f"line 5: could not convert string '{frame}' to int64"):
        read_scene(_scene_file(tmp_path, SCENE_TEXT.replace("3,3,0.0", f"3,{frame},0.0")))


def _truncating_loadtxt(fname, *, dtype, **kwargs):
    """np.loadtxt as older numpy runs it: int64 fields parsed as floats and truncated."""
    floats = _REAL_LOADTXT(fname, dtype=np.dtype([(name, np.float64) for name in dtype.names]), **kwargs)
    with np.errstate(invalid="ignore"):
        return floats.astype(dtype)


_REAL_LOADTXT = np.loadtxt


# the id and frame checks must not rest on numpy raising, nor on a warnings
# filter turning its DeprecationWarning into an error
@pytest.mark.filterwarnings("default")
@pytest.mark.parametrize("loadtxt", [_REAL_LOADTXT, _truncating_loadtxt], ids=["numpy", "truncating"])
@pytest.mark.parametrize("old, new, field, line", [
    ("3,3,0.0", "3,{},0.0", "2.5", 5),  # fractional frame
    ("5,2,3.5", "{},2,3.5", "3.0", 7),  # agent id written as a float
    ("3,3,0.0", "3,{},0.0", "1e3", 5),  # exponent
    ("3,3,0.0", "3,{},0.0", str(2**63), 5),  # beyond int64
    ("5,3,3.5", "5,{},3.5", str(-(2**63) - 1), 8),
])
def test_scene_non_integer_id_or_frame_is_data_error_with_line(tmp_path, monkeypatch, loadtxt, old, new, field, line):
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    with pytest.raises(DataError, match=rf"line {line}: could not convert string '{re.escape(field)}' to int64"):
        read_scene(_scene_file(tmp_path, SCENE_TEXT.replace(old, new.format(field))))


@pytest.mark.parametrize("loadtxt", [_REAL_LOADTXT, _truncating_loadtxt], ids=["numpy", "truncating"])
def test_scene_int_fields_with_signs_blanks_and_leading_zeros_read(tmp_path, monkeypatch, loadtxt):
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    text = SCENE_TEXT.replace("5,1,", " +5,\t1 ,").replace("3,2,", f"3,{'0' * 20}2,")
    scene = read_scene(_scene_file(tmp_path, text))
    assert scene.agent_ids.tolist() == [[3, 5]]
    assert scene.frames.tolist() == [[0, 1, 2, 3]]
    assert scene.present[0, 1].tolist() == [False, True, True, True]


def test_scene_frames_beyond_2_to_the_53_are_exact(tmp_path):
    base = 2**62 + 1  # every frame here rounds to the same float64
    lines = SCENE_TEXT.splitlines()
    for i in range(1, len(lines)):
        agent, frame, rest = lines[i].split(",", 2)
        lines[i] = f"{agent},{base + int(frame)},{rest}"
    scene = read_scene(_scene_file(tmp_path, "\n".join(lines)))
    assert scene.frames.tolist() == [[base, base + 1, base + 2, base + 3]]
    assert scene.present[0, 1].tolist() == [False, True, True, True]


def test_scene_trailing_invalid_utf8_is_data_error(tmp_path):
    path = tmp_path / "scene.csv"
    path.write_bytes(SCENE_TEXT.encode() + b"\xff")
    with pytest.raises(DataError, match="line 9: non-ASCII byte 0xff"):
        read_scene(path)
    path.write_bytes(SCENE_TEXT.encode()[:-1] + b"\xc3")  # a cut two-byte sequence ends the last row
    with pytest.raises(DataError, match="line 8: non-ASCII byte 0xc3"):
        read_scene(path)


# numpy's loadtxt reads "\U000b4b520" as the int64 7401300 and crashes the
# interpreter on "0\U000b4b52", so no non-ASCII character may reach it
@pytest.mark.parametrize("field", ["\U000b4b520", "0\U000b4b52", "\U000b4b52\x0c0", "\u0663"])
def test_scene_non_ascii_field_is_data_error(tmp_path, field):
    with pytest.raises(DataError, match="line 8: non-ASCII byte"):
        read_scene(_scene_file(tmp_path, SCENE_TEXT.replace("5,3,", f"5,{field},")))


@pytest.mark.parametrize("field", ["\U000b4b520", "0\U000b4b52", "\u0663"])
def test_ngsim_non_ascii_field_is_data_error(tmp_path, field):
    path = tmp_path / "ngsim.csv"
    path.write_text(NGSIM_TEXT.replace("2,11,3,", f"2,{field},3,"), encoding="utf-8")
    with pytest.raises(DataError, match="line 5: .*non-ASCII"):
        ingest_ngsim(path)
    path.write_text(NGSIM_TEXT.replace("Total_Frames", "Gesamt_Länge"), encoding="utf-8")
    assert len(ingest_ngsim(path)) == 2  # a non-ASCII header name is fine


def test_scene_quoted_field_is_data_error(tmp_path):
    # the csv module unquoted fields; the column-wise parse reads plain numbers only
    text = SCENE_TEXT.replace("3,2,0.0,2.0", '3,"2",0.0,2.0')
    assert oracle_read_scene(_scene_file(tmp_path, text)).agent_ids.size == 2
    with pytest.raises(DataError, match="line 4"):
        read_scene(_scene_file(tmp_path, text))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(edits=EDITS, raw=st.binary(max_size=4))
def test_fuzzed_scene_raises_only_polytraj_errors(tmp_path_factory, edits, raw):
    lines = [line.replace(",", " ") for line in SCENE_TEXT.splitlines()]
    text = "\n".join(line.replace(" ", ",") for line in _edit(lines, edits))
    path = tmp_path_factory.mktemp("fuzz") / "scene.csv"
    path.write_bytes(text.encode("utf-8", "replace") + raw)
    try:
        scene = read_scene(path)
    except PolytrajError:
        return
    for values in (scene.positions, scene.speeds, scene.accels):
        assert np.all(np.isfinite(values))


# -- splits ----------------------------------------------------------------------------

SPLIT_HISTORY = 3


def _write_train(data_dir, scenes: list[Scenes]) -> dict[str, str]:
    """Write `scenes` as the train split of a data dir; returns each file's
    name with its sha256, as the manifest lists them."""
    return write_data_dir(data_dir, {"train": batch_of(scenes)}, SPLIT_HISTORY, DEFAULT_FRAME_RATE)["files"]["train"]


def _relist_train(data_dir, digests: dict[str, str]) -> None:
    """List `digests` in the data dir's manifest as its train files, as for
    files that write_data_dir did not write."""
    manifest_path = data_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["files"]["train"] = digests
    manifest_path.write_text(json.dumps(manifest))


def _split_scene(rng) -> Scenes:
    """A small scene of 1-4 agents with ids drawn from 1-4, so that files
    share ids and a file's last agent is often the next file's first, on
    an uneven window, each neighbour absent at random frames and each
    agent's v and a recorded or not at random."""
    width = int(rng.integers(SPLIT_HISTORY + 1, SPLIT_HISTORY + 6))
    agents = int(rng.integers(1, 5))
    frames = int(rng.integers(-5, 5)) + np.cumsum(rng.integers(1, 3, size=width))
    present = rng.uniform(size=(agents, width)) < 0.7
    present[0] = True
    recorded = rng.uniform(size=(2, agents)) < 0.5
    positions = np.where(present[..., None], rng.normal(0.0, 10.0, size=(agents, width, 2)), 0.0)
    speeds, accels = (np.where(present & kept[:, None], rng.normal(0.0, 5.0, size=(agents, width)), 0.0)
                      for kept in recorded)
    return one_scene(frames, rng.permutation(4)[:agents] + 1, present, positions, speeds, accels, recorded)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(files=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       spoil=st.none() | st.tuples(st.integers(0, 39), EDITS))
def test_read_split_equals_the_per_file_oracle(tmp_path_factory, files, seed, spoil):
    # up to 40 files, so that a split spans up to three chunks
    assert SPLIT_CHUNK < 40
    rng = np.random.default_rng(seed)
    data_dir = tmp_path_factory.mktemp("data")
    digests = _write_train(data_dir, [_split_scene(rng) for _ in range(files)])
    paths = [data_dir / "train" / name for name in digests]
    spoiled = None if spoil is None else paths[spoil[0] % files]
    for path in paths:
        lines = path.read_text().splitlines()
        if lines[-1].split(",")[0] != lines[1].split(",")[0] and rng.uniform() < 0.3:
            lines.insert(2, lines.pop())  # a neighbour's last row after the first: the reference in two runs
        if path == spoiled:  # cells are edited like checkpoint tokens, with commas for spaces
            lines = [line.replace(" ", ",") for line in _edit([line.replace(",", " ") for line in lines], spoil[1])]
        path.write_bytes("\r\n".join(lines).encode("utf-8", "replace") + b"\r\n")
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    _relist_train(data_dir, digests)
    try:
        if spoiled is not None:
            read_scene(spoiled)
    except DataError as exc:  # the split's error is that of the spoiled file alone
        with pytest.raises(DataError) as raised:
            read_split(data_dir, "train", SPLIT_HISTORY)
        assert str(raised.value) == str(exc)
        return
    scenes = [oracle_read_scene(path) for path in paths]
    short = [scene.lengths[0] for scene in scenes if scene.lengths[0] <= SPLIT_HISTORY]
    if short:
        with pytest.raises(DataError) as raised:
            read_split(data_dir, "train", SPLIT_HISTORY)
        assert str(raised.value) == f"scene length {short[0]} leaves no future after {SPLIT_HISTORY} history frames"
        return
    samples = read_split(data_dir, "train", SPLIT_HISTORY)
    assert samples.sample_ids.tolist() == list(range(files))
    assert samples.counts.tolist() == [scene.agent_ids.size for scene in scenes]
    assert samples.horizons.tolist() == [scene.lengths[0] - SPLIT_HISTORY for scene in scenes]
    assert samples.states.shape[1] == max(samples.counts) and samples.future.shape[1] == max(samples.horizons) + 1
    for i, scene in enumerate(scenes):
        states, mask = oracle_states(scene, SPLIT_HISTORY)
        future = scene.positions[0, 0, SPLIT_HISTORY - 1 :] - scene.positions[0, 0, SPLIT_HISTORY - 1]
        count, frames = samples.counts[i], samples.horizons[i] + 1
        for got, expected in ((samples.states[i, :count], states), (samples.mask[i, :count], mask),
                              (samples.future[i, :frames], future)):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
    _assert_zero_padding(samples)


def _assert_zero_padding(samples) -> None:
    """Every array of the table is +0.0 past each sample's agents and future."""
    for i, (count, frames) in enumerate(zip(samples.counts.tolist(), (samples.horizons + 1).tolist())):
        for padding in (samples.states[i, count:], samples.mask[i, count:], samples.future[i, frames:]):
            assert padding.tobytes() == bytes(padding.nbytes)


def test_read_split_widens_its_table_for_a_later_chunk(tmp_path, rng):
    # the first chunk's scenes have one agent and 10 frames, the second's three and 14
    scenes = (each_scene(gen_synthetic(synthetic_params(frames=10, neighbors=0), SPLIT_CHUNK, rng,
                                       history_len=SPLIT_HISTORY))
              + each_scene(gen_synthetic(synthetic_params(frames=14, neighbors=2), 3, rng, history_len=SPLIT_HISTORY)))
    _write_train(tmp_path, scenes)
    samples = read_split(tmp_path, "train", SPLIT_HISTORY)
    assert samples.states.shape[:2] == (SPLIT_CHUNK + 3, 3) and samples.future.shape[1] == 14 - SPLIT_HISTORY + 1
    for i, (row, scene) in enumerate(zip(sample_rows(samples), scenes)):
        (expected,) = sample_rows(build_sample(scene, SPLIT_HISTORY, i))
        for got, want in zip(row[:3], expected[:3]):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert row.sample_id == i
    _assert_zero_padding(samples)


# values that repeat within and across scenes: -0.0 beside 0.0, and floats
# whose repr has an exponent or is subnormal
POOLED_VALUES = np.array([0.0, -0.0, 1e16, 1e-05, 5e-324, 0.1, -2.5, 1 / 3, 123.456])


def _pooled_scene(rng, i: int) -> Scenes:
    """A scene of 1-4 agents on a window of 1-6 frames, its values drawn
    from POOLED_VALUES; the reference agent records v and a in an even
    scene and neither in an odd one, the other agents each at random."""
    width, agents = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    frames = int(rng.integers(-5, 5)) + np.cumsum(rng.integers(1, 3, size=width))
    present = rng.uniform(size=(agents, width)) < 0.7
    present[0] = True
    recorded = rng.uniform(size=(2, agents)) < 0.5
    recorded[:, 0] = i % 2 == 0
    positions = np.where(present[..., None], rng.choice(POOLED_VALUES, size=(agents, width, 2)), 0.0)
    speeds, accels = (np.where(present & kept[:, None], rng.choice(POOLED_VALUES, size=(agents, width)), 0.0)
                      for kept in recorded)
    return one_scene(frames, rng.permutation(4)[:agents] + 1, present, positions, speeds, accels, recorded)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(files=st.integers(0, 40), stale=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@example(files=0, stale=2, seed=0)
@example(files=1, stale=2, seed=1)
def test_write_split_bytes_equal_the_per_scene_oracle(tmp_path_factory, files, stale, seed):
    # up to 40 scenes, so that a split spans up to three chunks
    assert SPLIT_CHUNK < 40
    rng = np.random.default_rng(seed)
    scenes = [_pooled_scene(rng, i) for i in range(files)]  # written as one padded batch; no file holds padding
    data_dir, oracle_dir = tmp_path_factory.mktemp("data"), tmp_path_factory.mktemp("oracle")
    split_dir = data_dir / "train"
    split_dir.mkdir()
    for k in range(stale):  # scene files of an earlier, longer split
        (split_dir / f"scene_{files + 2 * k:05d}.csv").write_bytes(b"stale\r\n")
    digests = _write_train(data_dir, scenes)
    assert list(digests) == [f"scene_{i:05d}.csv" for i in range(files)]
    assert sorted(path.name for path in split_dir.glob("scene_*.csv")) == list(digests)
    for (name, digest), scene in zip(digests.items(), scenes):
        oracle_write_scene(scene, oracle_dir / name)
        written = (split_dir / name).read_bytes()
        assert written == (oracle_dir / name).read_bytes(), name
        assert hashlib.sha256(written).hexdigest() == digest
