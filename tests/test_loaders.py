"""Loaders of outside input: corrupt checkpoints, NGSim files and scene
files end in a typed PolytrajError, never in a raw exception."""

import re

import numpy as np
import pytest
from conftest import assert_same_scene, model_config, oracle_ingest_ngsim, oracle_read_scene
from hypothesis import given, settings
from hypothesis import strategies as st

from polytraj.autodiff import load_checkpoint
from polytraj.data import ingest_ngsim, read_scene
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


def test_non_numeric_value_is_data_error(tmp_path, checkpoint_text):
    lines = checkpoint_text.splitlines()
    lines[-1] = " ".join(["zero"] + lines[-1].split()[1:])
    with pytest.raises(DataError):
        load_checkpoint(_corrupt(tmp_path, "\n".join(lines)))


def test_non_finite_value_is_numerical_error(tmp_path, checkpoint_text):
    lines = checkpoint_text.splitlines()
    lines[-1] = " ".join(["nan"] + lines[-1].split()[1:])
    with pytest.raises(NumericalError, match="head.b"):
        load_model(_corrupt(tmp_path, "\n".join(lines)))


def test_oversized_meta_allocates_nothing(tmp_path, checkpoint_text):
    text = checkpoint_text.replace("meta model.units 2", "meta model.units 1000000000")
    with pytest.raises(DataError, match="enc0.w_x"):
        load_model(_corrupt(tmp_path, text))


@pytest.mark.parametrize("horizon", ["-5", "0"])
def test_meta_outside_its_config_domain_is_data_error(tmp_path, checkpoint_text, horizon):
    assert "meta model.horizon 50\n" in checkpoint_text
    text = checkpoint_text.replace("meta model.horizon 50\n", f"meta model.horizon {horizon}\n")
    with pytest.raises(DataError, match=r"'horizon_frames' must lie in \[1, inf\)"):
        load_model(_corrupt(tmp_path, text))


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
    for track in tracks:
        assert np.all(np.isfinite(track.positions)) and np.all(np.isfinite(track.speeds))


# -- scene files -----------------------------------------------------------------------


def _scene_file(tmp_path, text: str):
    path = tmp_path / "scene.csv"
    path.write_text(text)
    return path


def test_scene_reads_empty_field_as_not_recorded(tmp_path):
    scene = read_scene(_scene_file(tmp_path, SCENE_TEXT))
    assert [agent.agent_id for agent in scene.agents] == [3, 5]
    np.testing.assert_array_equal(scene.agents[1].present, [False, True, True, True])
    np.testing.assert_array_equal(scene.agents[1].speeds, [0.0, 9.0, 9.0, 9.0])
    assert scene.agents[1].accels is None
    np.testing.assert_array_equal(scene.ego.accels, [0.5] * 4)


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
    assert [agent.agent_id for agent in scene.agents] == [3, 5]
    np.testing.assert_array_equal(scene.agents[1].present, [False, True, True, True])
    assert_same_scene(scene, oracle_read_scene(path))
    assert_same_scene(scene, read_scene(_scene_file(tmp_path, SCENE_TEXT)))


def test_scene_reads_crlf_line_ends(tmp_path):
    # write_scene ends lines in CRLF; LF and CRLF lines may mix
    path = tmp_path / "scene.csv"
    path.write_bytes(SCENE_TEXT.replace("\n", "\r\n", 4).encode())
    crlf = read_scene(path)
    plain = read_scene(_scene_file(tmp_path, SCENE_TEXT))
    np.testing.assert_array_equal(crlf.agents[1].positions, plain.agents[1].positions)
    assert crlf.agents[1].accels is None


@pytest.mark.parametrize("text, line", [
    (SCENE_TEXT.replace("\n", "\r"), None),  # old Mac line ends: no line feed at all
    (SCENE_TEXT.replace("3,2,0.0,2.0,10.0,0.5\n", "3,2,0.0,2.0,10.0,0.5\r"), 4),  # one bare CR
])
def test_scene_bare_carriage_return_is_data_error(tmp_path, text, line):
    # the csv module took a lone CR for a line end; the column-wise parse
    # accepts CR only right before LF
    path = tmp_path / "scene.csv"
    path.write_bytes(text.encode())
    assert len(oracle_read_scene(path).agents) == 2
    with pytest.raises(DataError, match="bad scene header" if line is None else f"line {line}: carriage return"):
        read_scene(path)


def test_scene_blank_line_in_body_is_data_error(tmp_path):
    text = SCENE_TEXT.replace("3,3,0.0", "\n3,3,0.0")
    assert len(oracle_read_scene(_scene_file(tmp_path, text)).agents) == 2  # the csv reader skipped it
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
    assert [agent.agent_id for agent in scene.agents] == [3, 5]
    assert scene.frames.tolist() == [0, 1, 2, 3]
    assert scene.agents[1].present.tolist() == [False, True, True, True]


def test_scene_frames_beyond_2_to_the_53_are_exact(tmp_path):
    base = 2**62 + 1  # every frame here rounds to the same float64
    lines = SCENE_TEXT.splitlines()
    for i in range(1, len(lines)):
        agent, frame, rest = lines[i].split(",", 2)
        lines[i] = f"{agent},{base + int(frame)},{rest}"
    scene = read_scene(_scene_file(tmp_path, "\n".join(lines)))
    assert scene.frames.tolist() == [base, base + 1, base + 2, base + 3]
    assert scene.agents[1].present.tolist() == [False, True, True, True]


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
    assert len(oracle_read_scene(_scene_file(tmp_path, text)).agents) == 2
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
    for agent in scene.agents:
        for values in (agent.positions, agent.speeds, agent.accels):
            assert values is None or np.all(np.isfinite(values))
