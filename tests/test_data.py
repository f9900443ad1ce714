"""Tests for ingestion, feature computation, segmentation, and synthetics."""

import dataclasses
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_scene,
    batch_of,
    cut_neighbours_at_t0,
    each_scene,
    one_scene,
    oracle_build_scene,
    oracle_ingest_ngsim,
    oracle_read_scene,
    oracle_states,
    oracle_write_scene,
    sample_rows,
    scene_of,
    synthetic_params,
    track_rows,
    tracks_of,
)

from polytraj.config import load_config, parse_ratio
from polytraj.data import (
    FEET_TO_METRES,
    SAMPLE_ARRAYS,
    SCENE_ARRAYS,
    TRACK_ARRAYS,
    Scenes,
    SceneSplit,
    _heading,
    build_sample,
    build_scene,
    filter_straight,
    gen_synthetic,
    ingest_ngsim,
    is_straight_constant_velocity,
    read_scene,
    read_split,
    segment_and_split,
    write_data_dir,
    write_scene,
)
from polytraj.errors import ConfigError, DataError
from polytraj.evaluation import fit_polynomials

NGSIM_HEADER = "Vehicle_ID,Frame_ID,Total_Frames,Local_X,Local_Y,v_Vel,v_Acc\n"
# 12 vehicles with staggered entries, rows interleaved by frame, CRLF line
# ends and unused columns; vehicle 5 has a frame gap and an isolated frame
NGSIM_FIXTURE = Path(__file__).parent / "fixtures" / "ngsim_small.csv"


def _write_csv(path, rows, header=NGSIM_HEADER):
    path.write_text(header + "".join(rows))


# -- ingestion ------------------------------------------------------------------


def test_single_vehicle_three_rows(tmp_path):
    path = tmp_path / "ngsim.csv"
    _write_csv(path, [f"7,{100 + i},3,{i}.0,{2 * i}.0,20.0,0.1\n" for i in range(3)])
    tracks = ingest_ngsim(path)
    assert len(tracks) == 1
    (track,) = track_rows(tracks)
    assert track.agent_id == 7
    assert len(track.frames) == 3


def test_feet_to_metres(tmp_path):
    path = tmp_path / "ngsim.csv"
    _write_csv(path, ["1,10,2,1.0,0.0,10.0,1.0\n", "1,11,2,2.0,0.0,10.0,1.0\n"])
    (track,) = track_rows(ingest_ngsim(path))
    assert track.positions[0, 0] == pytest.approx(FEET_TO_METRES)
    assert track.speeds[0] == pytest.approx(10.0 * FEET_TO_METRES)
    assert track.accels[0] == pytest.approx(1.0 * FEET_TO_METRES)


def test_interleaved_vehicles_grouped_and_sorted(tmp_path):
    path = tmp_path / "ngsim.csv"
    rows = [
        "2,101,2,0.0,10.0,1.0,0.0\n",
        "1,100,2,0.0,0.0,1.0,0.0\n",
        "2,100,2,0.0,9.0,1.0,0.0\n",
        "1,101,2,0.0,1.0,1.0,0.0\n",
    ]
    _write_csv(path, rows)
    tracks = track_rows(ingest_ngsim(path))
    assert [t.agent_id for t in tracks] == [1, 2]
    for track in tracks:
        assert list(track.frames) == [100, 101]


def test_missing_column_named(tmp_path):
    path = tmp_path / "ngsim.csv"
    path.write_text("Vehicle_ID,Frame_ID,Local_X,Local_Y,v_Vel\n1,1,0,0,0\n")
    with pytest.raises(DataError, match="v_Acc"):
        ingest_ngsim(path)


def test_duplicate_frame_reports_vehicle(tmp_path):
    path = tmp_path / "ngsim.csv"
    _write_csv(path, ["9,100,2,0,0,0,0\n", "9,100,2,1,1,0,0\n"])
    with pytest.raises(DataError, match="9"):
        ingest_ngsim(path)


@pytest.mark.parametrize("field, value, message", [
    ("positions", np.zeros((3, 3)), "do not fit 2 tracks of 3 rows"),
    ("speeds", np.zeros(2), "do not fit"),
    ("recorded", np.ones((2, 1), dtype=bool), "do not fit"),
    ("bounds", np.array([0, 3]), "do not fit"),
    ("bounds", np.array([0, 2, 2]), "bounds must run from 0 to 3 without decreasing"),
    ("bounds", np.array([1, 2, 3]), "bounds must run from 0 to 3"),
    ("bounds", np.array([0, 4, 3]), "without decreasing"),
], ids=["positions", "speeds", "recorded", "bounds-shape", "bounds-end", "bounds-start", "bounds-decreasing"])
def test_tracks_reject_misfit_shapes_and_bounds(field, value, message):
    # what one track must be (one frame step, 2 rows or more) is ingest's
    # check; the table checks that its arrays fit together
    tracks = tracks_of([(1, [0, 1], np.zeros((2, 2)), np.zeros(2), np.zeros(2)), (2, [5], np.zeros((1, 2)))])
    assert np.diff(tracks.bounds).tolist() == [2, 1] and tracks.recorded.tolist() == [[True, False], [True, False]]
    with pytest.raises(DataError, match=message):
        dataclasses.replace(tracks, **{field: value})


def test_frame_gap_splits_track(tmp_path, caplog):
    path = tmp_path / "ngsim.csv"
    _write_csv(path, [f"4,{f},4,0.0,{f}.0,30.0,0.0\n" for f in (10, 11, 13, 14)])
    tracks = track_rows(ingest_ngsim(path))
    assert [list(t.frames) for t in tracks] == [[10, 11], [13, 14]]
    assert [t.agent_id for t in tracks] == [4, 4]
    assert "1 frame gap" in caplog.text


def test_frame_gap_drops_single_frame_piece(tmp_path):
    path = tmp_path / "ngsim.csv"
    _write_csv(path, [f"4,{f},3,0.0,{f}.0,30.0,0.0\n" for f in (10, 11, 13)])
    (track,) = track_rows(ingest_ngsim(path))
    assert list(track.frames) == [10, 11]
    np.testing.assert_array_equal(track.positions[:, 1], np.array([10.0, 11.0]) * FEET_TO_METRES)


def test_scene_round_trip_bit_exact(tmp_path, rng):
    # frames, pi-scaled positions, speeds and accels come back bit for bit; a
    # neighbour absent at one frame keeps zeros there, and a value an agent
    # does not record stays unrecorded, and zero; writing the scene read back
    # gives the same bytes
    frames = np.arange(5) + 10
    for records in (
        ((True, False), (False, False), (True, False)),
        ((True, True), (True, False), (True, True)),  # a neighbour records v but not a, beside agents that record both
    ):
        agents = []
        for i, (v, a) in enumerate(records, start=1):
            present = (np.arange(5) != i) | (i == 1)  # agent 1, the reference, is always present
            positions = rng.normal(0, 100, size=(5, 2)) * math.pi * present[:, None]
            speeds = rng.uniform(0, 30, size=5) * present if v else None
            accels = rng.normal(0, 3, size=5) * present if a else None
            agents.append((i, present, positions, speeds, accels))
        scene = scene_of(frames, agents)
        path, again = tmp_path / "scene.csv", tmp_path / "again.csv"
        write_scene(scene, path)
        restored = read_scene(path)
        assert restored.agent_ids.tolist() == [[1, 2, 3]]
        np.testing.assert_array_equal(restored.frames, [frames])
        for name in ("present", "positions", "speeds", "accels"):
            np.testing.assert_array_equal(getattr(restored, name), getattr(scene, name))
        np.testing.assert_array_equal(restored.recorded, [np.array(records).T])
        write_scene(restored, again)
        assert again.read_bytes() == path.read_bytes()
        np.testing.assert_array_equal(read_scene(again).recorded, restored.recorded)


def test_scene_arrays_that_do_not_fit_are_data_error():
    scene = scene_of(np.arange(4), [(0, np.ones(4, dtype=bool), np.zeros((4, 2)))])
    for name, bad in (("speeds", np.zeros((1, 1, 3))), ("accels", np.zeros((1, 4))),
                      ("recorded", np.zeros((1, 1, 2), dtype=bool)), ("positions", np.zeros((1, 1, 4, 3))),
                      ("agent_ids", np.zeros((1, 2), dtype=np.int64)), ("frames", np.zeros((2, 4), dtype=np.int64)),
                      ("present", np.ones((1, 4), dtype=bool))):
        with pytest.raises(DataError, match="do not fit"):
            dataclasses.replace(scene, **{name: bad})


def test_scene_reference_agent_off_a_prefix_of_the_window_is_data_error():
    for reference in ([False, True, True, True], [True, False, True, True], [False] * 4):
        present = np.array([reference, [True] * 4])
        with pytest.raises(DataError, match="reference agent must be present on a prefix of the window"):
            one_scene(np.arange(4), [1, 2], present, np.zeros((2, 4, 2)), np.zeros((2, 4)), np.zeros((2, 4)),
                      np.zeros((2, 2), dtype=bool))
    no_agents = (np.zeros((1, 0, *shape)) for shape in ((), (4,), (4, 2), (4,), (4,)))
    with pytest.raises(DataError, match="reference agent must be present"):  # a scene without agents
        Scenes(np.zeros((1, 4), dtype=np.int64), *no_agents, np.zeros((1, 2, 0), dtype=bool))


def test_scenes_derive_window_lengths_and_agent_counts_and_select_scenes():
    # scene 0: 2 agents on 3 frames; scene 1: 4 agents on 4 frames, the third
    # absent throughout but counted, as the fourth is present; scene 2: 1 agent
    present = np.zeros((3, 4, 4), dtype=bool)
    present[0, 0, :3] = present[0, 1, 1] = True
    present[1, 0] = present[1, 1, :2] = present[1, 3, 0] = True
    present[2, 0, :2] = True
    zeros = np.zeros((3, 4, 4))
    scenes = Scenes(np.zeros((3, 4), dtype=np.int64), np.zeros((3, 4), dtype=np.int64), present,
                    np.zeros((3, 4, 4, 2)), zeros, zeros, np.zeros((3, 2, 4), dtype=bool), 12.5)
    assert scenes.lengths.tolist() == [3, 4, 2] and scenes.counts.tolist() == [2, 4, 1] and len(scenes) == 3
    for rows in (slice(1, 3), np.array([2, 1]), np.array([False, True, True])):
        chosen = scenes[rows]
        assert chosen.frame_rate == 12.5 and sorted(chosen.counts.tolist()) == [1, 4]
        assert sorted(chosen.lengths.tolist()) == [2, 4] and chosen.present.shape == (2, 4, 4)
    empty = scenes[:0]
    assert len(empty) == 0 and empty.lengths.size == empty.counts.size == 0


# -- states -----------------------------------------------------------------------


def _sample(scene, history_len: int):
    """`build_sample`'s one-row table as a `SampleRow`; one scene's table has
    no padding."""
    table = build_sample(scene, history_len)
    assert table.states.shape[:2] == (1, scene.agent_ids.shape[1])
    assert table.horizons.tolist() == [scene.lengths[0] - history_len]
    (row,) = sample_rows(table)
    return row


def _two_agent_scene():
    ego = (0, np.ones(4, dtype=bool), np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    neighbor = (1, np.array([False, True, True, True]), np.array([[0.0, 0.0], [4.0, 3.0], [5.0, 4.0], [6.0, 5.0]]))
    return scene_of(np.arange(4), [ego, neighbor], frame_rate=10.0)


def test_state_increments_speed_heading():
    scene = _two_agent_scene()
    sample = _sample(scene, history_len=3)
    dx, dy, v, _, theta, l, phi = sample.states[0, 0]  # ego at frame 1
    assert (dx, dy) == (1.0, 0.0)
    assert v == pytest.approx(10.0)
    assert theta == 0.0
    assert l == 0.0 and phi == 0.0


def test_heading_is_numpy_arctan2_with_minus_pi_sent_to_pi(rng):
    y, x = rng.normal(size=(2, 200_000))
    assert _heading(y, x).tobytes() == np.arctan2(y, x).tobytes()
    assert _heading(y[::3], x[::3]).tobytes() == np.arctan2(y, x)[::3].tobytes()  # a strided view too
    # no rounding wrap: the correctly rounded atan(0.1), where (angle + pi) % 2pi - pi gave ...186
    assert _heading(np.array(1.0), np.array(10.0)) == 0.09966865249116202
    # arctan2's -pi, at y = -0.0 and x < 0 or x = -0.0, is pi; +0.0 over +0.0 stays 0.0
    signed_zeros = _heading(np.array([-0.0, -0.0, 0.0, 0.0]), np.array([-1.0, -0.0, -0.0, 0.0]))
    assert signed_zeros.tolist() == [np.pi, np.pi, np.pi, 0.0] and not np.signbit(signed_zeros).any()
    # a neighbour on the reference agent at -0.0: phi, pi by _heading, is 0 as l is
    ego = (0, np.ones(3, dtype=bool), np.zeros((3, 2)))
    neighbor = (1, np.ones(3, dtype=bool), np.full((3, 2), -0.0))
    dx, dy, _, _, theta, l, phi = _sample(scene_of(np.arange(3), [ego, neighbor]), history_len=2).states[1, 0]
    assert (l, phi) == (0.0, 0.0) and not np.signbit(phi)
    assert theta == _heading(np.array(dy), np.array(dx)) == 0.0  # (-0.0) - (-0.0) is +0.0


def test_neighbor_polar_coordinates():
    scene = _two_agent_scene()
    state = _sample(scene, history_len=3).states[1, 1]  # neighbor at frame 2
    # neighbor at (5, 4) vs ego at (2, 0): 3 m lateral, 4 m ahead
    assert state[5] == pytest.approx(5.0)
    assert state[6] == pytest.approx(math.atan2(4.0, 3.0))


def test_masked_neighbor_is_none_not_error():
    scene = _two_agent_scene()
    sample = _sample(scene, history_len=3)  # neighbor absent at frame 0
    assert sample.mask[1, 0] == 0.0
    np.testing.assert_array_equal(sample.states[1, 0], np.zeros(7))


def test_states_require_predecessor():
    # increments need a predecessor frame: states start at frame 1, and the
    # config rejects a history with no frame after the first
    sample = _sample(_two_agent_scene(), history_len=3)
    assert sample.states.shape[1] == 2  # frames 1 and 2 of frames 0..2
    with pytest.raises(ConfigError):
        load_config(overrides=["data.history_len=1"])


def test_state_vector_order():
    scene = _two_agent_scene()
    vec = _sample(scene, history_len=3).states[1, 1]
    assert vec.shape == (7,)
    delta = scene.positions[0, 1, 2] - scene.positions[0, 1, 1]
    assert vec[0] == delta[0] and vec[1] == delta[1]
    assert vec[4] == pytest.approx(math.atan2(delta[1], delta[0]))


def test_constant_recorded_speed_gives_zero_alpha(rng):
    # with recorded speeds and no recorded accels, alpha is the change of
    # the recorded speed, so position noise does not enter it
    frames = np.arange(12)
    positions = np.stack([np.zeros(12), frames * 1.0], axis=1) + rng.normal(0.0, 0.05, size=(12, 2))
    ego = (1, np.ones(12, dtype=bool), positions, np.full(12, 10.0))
    sample = _sample(scene_of(frames, [ego], frame_rate=10.0), history_len=8)
    np.testing.assert_array_equal(sample.states[0, :, 2], 10.0)
    np.testing.assert_array_equal(sample.states[0, :, 3], 0.0)


# -- segmentation and splitting ------------------------------------------------------


def _track_of_length(n, agent_id=1):
    """The row of one track of `n` frames, for `tracks_of`."""
    return agent_id, np.arange(n), np.stack([np.zeros(n), np.arange(n, dtype=float)], axis=1)


def _rows(tracks, track, start, length):
    """One segment's row array: `length` rows of track `track` of `tracks`
    from row offset `start`, as `segment_and_split` cuts them."""
    return tracks.bounds[track] + start + np.arange(length)[None]


def test_800_frames_gives_3_train_1_test():
    train, test = segment_and_split(tracks_of([_track_of_length(800)]), segment_len=200)
    assert len(train) == 3 and len(test) == 1
    assert test[0, 0] == 600
    assert train.dtype == test.dtype == np.int64 and train.shape == (3, 200)
    np.testing.assert_array_equal(np.concatenate([train, test]), np.arange(800).reshape(4, 200))


def test_short_track_is_skipped():
    train, test = segment_and_split(tracks_of([_track_of_length(199)]), segment_len=200)
    assert train.shape == test.shape == (0, 200)


def test_1000_frames_rounding_rule():
    # documented rule: test count = ceil(total / 4)
    train, test = segment_and_split(tracks_of([_track_of_length(1000)]), segment_len=200)
    assert len(train) + len(test) == 5
    assert len(test) == 2
    assert set(test[:, 0].tolist()) == {600, 800}
    # shares past int64 count exactly: ceil(5 * 10**30 / (10**30 + 1)) is 5
    train, test = segment_and_split(tracks_of([_track_of_length(1000)]), segment_len=200, ratio=f"1:{10**30}")
    assert len(train) == 0 and len(test) == 5


def test_split_is_temporally_disjoint():
    train, test = segment_and_split(tracks_of([_track_of_length(1600)]), segment_len=200)
    train_frames, test_frames = set(train.ravel().tolist()), set(test.ravel().tolist())
    assert not train_frames & test_frames
    assert max(train_frames) < min(test_frames)


def test_parse_ratio_rejects_garbage():
    assert parse_ratio("3:1") == (3, 1)
    with pytest.raises(ConfigError):
        parse_ratio("3")
    with pytest.raises(ConfigError):
        parse_ratio("0:1")


# -- straight filtering ----------------------------------------------------------------


def _straight(n=50):
    return np.stack([np.zeros(n), np.arange(n) * 1.0], axis=1)


def _curved(n=50):
    t = np.arange(n, dtype=float)
    return np.stack([0.002 * t**2, t], axis=1)


def _segments_of(paths, speeds=None, frame_rate=10.0):
    """One whole-track segment per path of positions, all of one length,
    as a row array, and their Tracks table."""
    tracks = tracks_of([(k, np.arange(len(path)), path, speeds) for k, path in enumerate(paths)], frame_rate)
    return np.concatenate([_rows(tracks, k, 0, len(path)) for k, path in enumerate(paths)]), tracks


def test_straightness_classifier():
    for path, straight in ((_straight(), True), (_curved(), False)):
        segments, tracks = _segments_of([path])
        assert is_straight_constant_velocity(segments, tracks).tolist() == [straight]
    # recorded speeds, where the reference agent has them, stand in for the derived ones
    segments, speeding_up = _segments_of([_straight()], speeds=np.linspace(0.0, 30.0, 50))
    assert is_straight_constant_velocity(segments, speeding_up).tolist() == [False]
    # only the segment's own rows of its track are read
    _, tracks = _segments_of([np.concatenate([_curved(), _straight() + [0.0, 50.0]])])
    assert is_straight_constant_velocity(_rows(tracks, 0, 50, 50), tracks).tolist() == [True]
    assert is_straight_constant_velocity(_rows(tracks, 0, 0, 50), tracks).tolist() == [False]
    # one call classifies a batch, each segment by its own reference agent's source of speeds
    segments, tracks = _segments_of([_straight(), _curved(), _straight()])
    mixed = tracks_of([(0, np.arange(50), _straight(), np.linspace(0.0, 30.0, 50)), (1, np.arange(50), _curved()),
                       (2, np.arange(50), _straight())], frame_rate=10.0)
    assert is_straight_constant_velocity(segments, tracks).tolist() == [True, False, True]
    assert is_straight_constant_velocity(segments, mixed).tolist() == [False, False, True]


def test_straightness_of_a_segment_is_that_of_its_scene_reference_agent():
    tracks = ingest_ngsim(NGSIM_FIXTURE)
    segments = np.concatenate(segment_and_split(tracks, segment_len=40))
    scenes = build_scene(segments, tracks, history_len=20, max_neighbors=8)
    for lateral_range_m, speed_std in ((0.5, 0.5), (2.0, 1.0), (0.3, 2.0)):  # 2, 14 and 17 of 23 straight
        verdicts = is_straight_constant_velocity(segments, tracks, lateral_range_m, speed_std).tolist()
        assert 0 < sum(verdicts) < len(verdicts)
        positions, speeds = scenes.positions[:, 0], scenes.speeds[:, 0]  # the reference agents, recording v
        assert verdicts == [bool(np.ptp(x[:, 0]) < lateral_range_m and np.std(v) < speed_std)
                            for x, v in zip(positions, speeds)]
    assert scenes.recorded[:, 0, 0].all()


def test_all_curved_input_unchanged(rng):
    segments, tracks = _segments_of([_curved() for _ in range(10)])
    assert filter_straight(segments, tracks, 0.5, rng).tolist() == segments.tolist()


def test_straight_downsampled_to_exact_count(rng):
    segments, tracks = _segments_of([_straight() for _ in range(100)])
    kept = filter_straight(segments, tracks, 0.5, rng)
    assert len(kept) == 50


def test_curved_count_preserved_in_mixed_set(rng):
    segments, tracks = _segments_of([_straight() if i % 2 else _curved() for i in range(40)])
    kept = filter_straight(segments, tracks, 0.5, rng)
    curved_before = np.count_nonzero(~is_straight_constant_velocity(segments, tracks))
    curved_after = np.count_nonzero(~is_straight_constant_velocity(kept, tracks))
    assert curved_after == curved_before
    assert len(kept) == curved_before + 10


# -- synthetic scenes ---------------------------------------------------------------


def test_const_vel_span():
    params = synthetic_params(kind="const_vel", frames=51, speed_min=10.0, speed_max=10.0)
    scenes = gen_synthetic(params, 1, np.random.default_rng(0), history_len=20)
    assert len(scenes) == 1
    assert scenes.positions[0, 0, 0, 1] == 0.0
    assert scenes.positions[0, 0, -1, 1] == pytest.approx(50.0)


def test_const_acc_exact_quadratic(rng):
    scenes = gen_synthetic(synthetic_params(kind="const_acc", frames=120), 3, rng, history_len=20)
    t = np.arange(120, dtype=float)
    vandermonde = t[:, np.newaxis] ** np.arange(3, dtype=float)
    for positions in scenes.positions[:, 0]:
        for axis in (0, 1):
            values = positions[:, axis]
            coefficients = fit_polynomials(t, values[:, np.newaxis], 2)[:, 0]
            assert np.linalg.norm(vandermonde @ coefficients - values) < 1e-9


def test_lane_change_profile(rng):
    scenes = gen_synthetic(synthetic_params(kind="lane_change", frames=200), 4, rng, history_len=50)
    for positions in scenes.positions[:, 0]:
        lateral = positions[:, 0]
        assert lateral[0] == 0.0
        assert abs(abs(lateral[-1]) - 3.5) < 0.05
        steps = np.diff(lateral)
        assert np.all(steps >= 0) or np.all(steps <= 0)


def test_arc_constant_curvature(rng):
    scenes = gen_synthetic(synthetic_params(kind="arc", frames=100), 1, rng, history_len=20)
    positions = scenes.positions[0, 0]
    x, y = positions[:, 0], positions[:, 1]
    sign = 1.0 if x[-1] >= 0 else -1.0
    # the center is at (sign * R, 0), so x^2 + y^2 = 2 R sign x on the circle
    chord = x**2 + y**2
    with np.errstate(invalid="ignore"):
        r_est = chord[1:] / (2.0 * sign * x[1:])
    r_est = r_est[np.isfinite(r_est)]
    assert np.allclose(r_est, r_est[0], rtol=1e-6)


@pytest.mark.parametrize("n_frames, history_len", [(200, 1), (200, 200), (20, 50), (0, 50)])
def test_gen_synthetic_rejects_history_len_outside_the_frames(rng, n_frames, history_len):
    params = synthetic_params(kind="const_vel", frames=n_frames, neighbors=1)
    with pytest.raises(ConfigError, match=f"history_len must be >= 2 and below the frame count {n_frames}"):
        gen_synthetic(params, 1, rng, history_len=history_len)


def test_invalid_kind_names_valid_kinds():
    with pytest.raises(ConfigError, match="const_vel"):
        load_config(overrides=["synthetic.kind=spiral"])


def test_out_of_range_params_rejected():
    with pytest.raises(ConfigError):
        load_config(overrides=["synthetic.speed_min=10.0", "synthetic.speed_max=50.0"])
    with pytest.raises(ConfigError):
        load_config(overrides=["synthetic.accel_max=9.0"])


@pytest.mark.parametrize("params", [{"speed_min": 12.0, "speed_max": 10.0}, {"lane_mid_min": 0.7, "lane_mid_max": 0.6}])
def test_range_minimum_above_its_maximum_rejected(rng, params):
    with pytest.raises(ConfigError, match="exceeds"):
        gen_synthetic(synthetic_params(kind="lane_change", **params), 1, rng, history_len=50)


def test_const_acc_below_half_a_metre_per_second_never_brakes(rng):
    params = synthetic_params(kind="const_acc", frames=100, speed_min=0.0, speed_max=0.4, accel_max=1e-3)
    scenes = gen_synthetic(params, 20, rng, history_len=20)
    assert np.all(np.diff(scenes.positions[:, 0, :, 1], axis=1) > 0.0)


def test_mixed_cycles_through_kinds(rng):
    scenes = gen_synthetic(synthetic_params(frames=100), 8, rng, history_len=20)
    assert len(scenes) == 8


def test_gen_synthetic_keeps_the_draw_order_of_one_scene_at_a_time():
    # scene i's draws follow scene i - 1's, so the first k scenes of a batch
    # do not depend on how many come after
    params = synthetic_params(frames=60, neighbors=3, noise=0.05)
    many, few = (gen_synthetic(params, n, np.random.default_rng(7), history_len=20) for n in (9, 4))
    assert many.positions[:4].tobytes() == few.positions.tobytes()
    assert many.present.shape == (9, 4, 60) and not many.recorded.any() and not many.speeds.any()


# -- samples ---------------------------------------------------------------------------


def test_sample_future_origin_is_zero(rng):
    scenes = gen_synthetic(synthetic_params(frames=80, neighbors=2), 4, rng, history_len=20)
    for sample in (_sample(scene, history_len=20) for scene in each_scene(scenes)):
        np.testing.assert_array_equal(sample.future[0], [0.0, 0.0])
        assert sample.states.shape == (3, 19, 7)
        assert sample.future.shape == (61, 2)


def test_sample_rejects_scene_without_future(rng):
    scene = gen_synthetic(synthetic_params(kind="const_vel", frames=20), 1, rng, history_len=19)
    with pytest.raises(DataError):
        build_sample(scene, history_len=20)


def test_scene_round_trip_with_masked_neighbor(tmp_path):
    scene = _two_agent_scene()
    path = tmp_path / "scene.csv"
    write_scene(scene, path)
    restored = read_scene(path)
    assert restored.agent_ids.tolist() == [[0, 1]]
    np.testing.assert_array_equal(restored.present[0, 1], scene.present[0, 1])
    np.testing.assert_array_equal(restored.positions[0, 1, 1:], scene.positions[0, 1, 1:])
    np.testing.assert_array_equal(restored.positions[0, 0], scene.positions[0, 0])


def _nearest_neighbour_tracks():
    ego = _track_of_length(400, agent_id=1)
    near = (2, np.arange(400), np.stack([np.full(400, 3.0), np.arange(400, dtype=float)], axis=1))
    far = (3, np.arange(400), np.stack([np.full(400, 80.0), np.arange(400, dtype=float)], axis=1))
    elsewhere = (4, np.arange(1000, 1400), np.stack([np.zeros(400), np.arange(400, dtype=float)], axis=1))
    return tracks_of([ego, near, far, elsewhere])


def test_build_scene_selects_nearest_neighbors():
    tracks = _nearest_neighbour_tracks()
    scene = build_scene(_rows(tracks, 0, 0, 200), tracks, history_len=50, max_neighbors=1)
    assert scene.agent_ids.tolist() == [[1, 2]]
    assert bool(np.all(scene.present[0, 1, :50]))
    assert not scene.present[0, 1, 50:].any()


def test_build_scene_pads_to_the_agents_found_not_to_max_neighbors():
    # no neighbour count is preallocated: the agent axis ends at the most
    # agents a scene has, here the reference agent and the 2 tracks at t_0
    tracks = _nearest_neighbour_tracks()
    segments = np.concatenate([_rows(tracks, 0, 0, 200), _rows(tracks, 3, 0, 200)])
    scenes = build_scene(segments, tracks, history_len=50, max_neighbors=10**9)
    assert scenes.present.shape == (2, 3, 200) and scenes.counts.tolist() == [3, 1]
    assert scenes.lengths.tolist() == [200, 200]
    assert scenes.agent_ids.tolist() == [[1, 2, 3], [4, 0, 0]]
    # a split's segments have one length, so a shorter one is a batch of its own
    scenes = build_scene(_rows(tracks, 1, 200, 100), tracks, history_len=50, max_neighbors=10**9)
    assert scenes.present.shape == (1, 3, 100) and scenes.counts.tolist() == [3]
    assert scenes.lengths.tolist() == [100]
    assert scenes.agent_ids.tolist() == [[2, 1, 3]]


def test_empty_splits_build_write_and_generate_nothing(tmp_path, rng):
    tracks = _nearest_neighbour_tracks()
    for k, scenes in enumerate((build_scene(np.zeros((0, 200), np.int64), tracks, history_len=50, max_neighbors=8),
                                gen_synthetic(synthetic_params(neighbors=2), 0, rng, history_len=20))):
        assert len(scenes) == 0 and scenes.counts.size == scenes.lengths.size == 0
        data_dir = tmp_path / f"data_{k}"
        written = write_data_dir(data_dir, {"train": scenes}, 20, scenes.frame_rate)
        assert written["files"] == {"train": {}} and written["scenes"] == {"train": 0, "total": 0}
        assert (data_dir / "train").is_dir() and not any((data_dir / "train").iterdir())


# -- whole-array states against the per-frame oracle -----------------------------------


def _ngsim_scenes(tmp_path, rng, n_vehicles=40, frames=160):
    """A batch of scenes of up to 9 agents from a staggered NGSim-format
    file, so many neighbours are present in only part of the window."""
    rows = []
    for vid in range(1, n_vehicles + 1):
        lane, speed, y0 = vid % 5, rng.uniform(30.0, 60.0), rng.uniform(0.0, 100.0)
        for k in range(frames):
            x = 12.0 * lane + rng.normal(0.0, 0.3)
            y = y0 + speed * k / 10.0 + rng.normal(0.0, 0.3)
            v, acc = speed + rng.normal(0.0, 1.0), rng.normal(0.0, 2.0)
            rows.append(f"{vid},{3 * vid + k},{frames},{x!r},{y!r},{v!r},{acc!r}\n")
    path = tmp_path / "ngsim.csv"
    _write_csv(path, rows)
    tracks = ingest_ngsim(path)
    return build_scene(np.concatenate(segment_and_split(tracks, segment_len=40)), tracks, history_len=20,
                       max_neighbors=8)


def _with_holes(scenes, rng, t0, share=0.2):
    """`scenes` with each neighbour absent at a random `share` of its frames
    but t_0, where `build_scene` found it, so that none is absent throughout."""
    present = scenes.present.copy()
    holes = rng.uniform(size=present[:, 1:].shape) < share
    holes[:, :, t0] = False
    present[:, 1:] &= ~holes
    return dataclasses.replace(scenes, present=present, positions=np.where(present[..., None], scenes.positions, 0.0),
                               speeds=np.where(present, scenes.speeds, 0.0),
                               accels=np.where(present, scenes.accels, 0.0))


def _without_accels(scenes):
    recorded = scenes.recorded.copy()
    recorded[:, 1] = False
    return dataclasses.replace(scenes, accels=np.zeros_like(scenes.accels), recorded=recorded)


def _has_absent_cells(scenes):
    """Whether an agent of some scene is absent on a frame of its window."""
    in_use = (np.arange(scenes.present.shape[1]) < scenes.counts[:, None])[..., None]
    return bool(np.any(in_use & (np.arange(scenes.present.shape[2]) < scenes.lengths[:, None, None]) & ~scenes.present))


def test_build_sample_equals_per_frame_oracle_bitwise(tmp_path, rng):
    noisy = synthetic_params(frames=30, noise=0.05)
    families = {
        "5-agent": gen_synthetic({**noisy, "neighbors": 4}, 200, rng, history_len=20),
        "1-agent": gen_synthetic(noisy, 100, rng, history_len=20),
    }
    ngsim = _ngsim_scenes(tmp_path, rng)
    families["ngsim"] = ngsim
    families["ngsim-holes"] = _with_holes(ngsim, rng, t0=19)
    families["ngsim-no-accels"] = _without_accels(families["ngsim-holes"])
    assert len(ngsim) == 160
    assert max(ngsim.counts) == 9 and min(ngsim.counts) < 9  # a batch padded with absent agents
    assert _has_absent_cells(ngsim)
    for name, scenes in families.items():
        table = build_sample(scenes, history_len=20)  # every scene of the batch at once
        for i, scene in enumerate(each_scene(scenes)):
            states, mask = oracle_states(scene, history_len=20)
            assert table.states[i].tobytes() == states.tobytes(), name
            assert table.mask[i].tobytes() == mask.tobytes(), name
            sample = _sample(scene, history_len=20)  # and each scene alone
            count = table.counts[i]
            assert sample.states.tobytes() == states[:count].tobytes(), name
            assert sample.mask.tobytes() == mask[:count].tobytes(), name


# -- column-wise data path against the row-wise oracles ---------------------------------


def _assert_same_tracks(tracks, expected):
    assert len(tracks) == len(expected) and tracks.frame_rate == expected.frame_rate
    for name in TRACK_ARRAYS:
        a, b = getattr(tracks, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _fixture_scenes(history_len=20, neighbors=8):
    tracks = ingest_ngsim(NGSIM_FIXTURE)
    return build_scene(np.concatenate(segment_and_split(tracks, segment_len=40)), tracks, history_len, neighbors)


def test_ngsim_fixture_has_gaps_staggered_entries_and_masked_neighbours():
    scenes = _fixture_scenes()
    assert len(ingest_ngsim(NGSIM_FIXTURE)) == 13  # vehicle 5 splits in two; its isolated frame is dropped
    assert len(scenes) == 23 and max(scenes.counts) == 9
    assert _has_absent_cells(scenes)


def test_ingest_ngsim_matches_row_wise_oracle(tmp_path):
    _assert_same_tracks(ingest_ngsim(NGSIM_FIXTURE), oracle_ingest_ngsim(NGSIM_FIXTURE))
    # float ids and frames truncate as int(float(...)) does; equal (vehicle,
    # frame) keys after truncation are a repeated frame
    path = tmp_path / "ngsim.csv"
    _write_csv(path, ["3.7,10.2,2,1,2,3,4\n", "-2.5,10,2,1,2,3,4\n", "3.2,11.9,2,5,6,7,8\n", "-2,11,2,1,2,3,4\n"])
    _assert_same_tracks(ingest_ngsim(path), oracle_ingest_ngsim(path))
    _write_csv(path, ["3.7,10.2,2,1,2,3,4\n", "3.2,10.9,2,5,6,7,8\n"])
    with pytest.raises(DataError, match="track 3: non-monotone"):
        ingest_ngsim(path)


@pytest.mark.parametrize("rows, message", [
    (["2,1,2,0,0,0,0\n", "2,1,2,1,1,0,0\n", "1,1,2,nan,0,0,0\n", "1,2,2,0,0,0,0\n"], "track 1: non-finite"),
    (["2,1,2,0,0,0,0\n", "1,1,2,nan,0,0,0\n", "2,1,2,1,1,0,0\n", "1,1,2,0,0,0,0\n"], "track 1: non-monotone"),
    (["2,1,2,0,0,0,0\n", "2,2,2,1,inf,0,0\n", "3,1,2,0,0,0,0\n", "3,1,2,0,0,0,0\n"], "track 2: non-finite"),
])
def test_ingest_ngsim_reports_the_fault_a_per_vehicle_pass_finds_first(tmp_path, rows, message):
    path = tmp_path / "ngsim.csv"
    _write_csv(path, rows)
    for ingest in (ingest_ngsim, oracle_ingest_ngsim):
        with pytest.raises(DataError, match=message):
            ingest(path)


@pytest.mark.parametrize("history_len, neighbors", [(20, 8), (10, 2), (39, 0)])
def test_build_scene_matches_row_wise_oracle(history_len, neighbors):
    tracks = ingest_ngsim(NGSIM_FIXTURE)
    segments = np.concatenate(segment_and_split(tracks, segment_len=40))
    scenes = build_scene(segments, tracks, history_len, neighbors)
    assert len(scenes) == len(segments) and scenes.present.shape[1] == max(scenes.counts)
    for scene, segment in zip(each_scene(scenes), segments):
        expected = cut_neighbours_at_t0(oracle_build_scene(segment, tracks, history_len, neighbors), history_len)
        assert_same_scene(scene, expected)


# a random track: agent id (several tracks share one), first frame, rows, frame step
RANDOM_TRACK = st.tuples(st.integers(0, 3), st.integers(0, 12), st.integers(2, 14), st.sampled_from([1, 2]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(shapes=st.lists(RANDOM_TRACK, min_size=1, max_size=7), seed=st.integers(0, 2**32 - 1),
       history_len=st.integers(2, 6), future=st.integers(1, 4), max_neighbors=st.integers(0, 9))
def test_build_scene_matches_row_wise_oracle_on_random_tracks(shapes, seed, history_len, future, max_neighbors):
    # positions on a coarse grid, so that neighbours tie on distance; staggered
    # frames and steps of 1 and 2, so that neighbours are absent at t_0 or
    # present on part of the history only
    rng = np.random.default_rng(seed)
    tracks = tracks_of([(agent_id, first + step * np.arange(n), rng.integers(-2, 3, size=(n, 2)).astype(float),
                         *(rng.normal(size=n) if rng.uniform() < 0.5 else None for _ in "va"))
                        for agent_id, first, n, step in shapes])
    segments = np.concatenate(segment_and_split(tracks, segment_len=history_len + future))
    scenes = build_scene(segments, tracks, history_len, max_neighbors)
    assert len(scenes) == len(segments) and scenes.present.shape[1] == max(scenes.counts, default=1)
    for scene, segment in zip(each_scene(scenes), segments):
        expected = oracle_build_scene(segment, tracks, history_len, max_neighbors)
        assert_same_scene(scene, cut_neighbours_at_t0(expected, history_len))


def _bench_ngsim_train_split(tmp_path):
    """The tracks and the seed-1 train split of the benchmark's `ngsim_prep` workload."""
    spec = importlib.util.spec_from_file_location("ngsim_gen", Path(__file__).parents[1] / "bench" / "ngsim_gen.py")
    ngsim_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ngsim_gen)
    ngsim_gen.write_csv(tmp_path / "ngsim.csv", seed=1, n_vehicles=80, frames=600)
    tracks = ingest_ngsim(tmp_path / "ngsim.csv")
    train = filter_straight(segment_and_split(tracks)[0], tracks, 0.5, np.random.default_rng([1, 12]))
    return tracks, train


def test_build_scene_memory_stays_near_its_output(tmp_path):
    # beside its output, build_scene holds arrays over the kept neighbours'
    # history frames and over each scene's tracks at t_0, not over every
    # (scene, agent, frame) cell; the input is the seed-1 train split of the
    # benchmark's `ngsim_prep` workload
    tracks, train = _bench_ngsim_train_split(tmp_path)
    build_scene(train[:1], tracks, history_len=50, max_neighbors=8)
    tracemalloc.start()
    try:
        scenes = build_scene(train, tracks, history_len=50, max_neighbors=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scenes.present.shape == (128, 9, 200)
    assert peak <= 1.5 * sum(getattr(scenes, name).nbytes for name in SCENE_ARRAYS)


def test_build_scene_breaks_distance_ties_by_agent_id_then_list_order():
    def track(agent_id, x):
        return agent_id, np.arange(10), np.stack([np.full(10, x), np.zeros(10)], axis=1)

    tracks = tracks_of([track(5, 0.0), track(9, 3.0), track(2, -3.0), track(7, 3.0), track(2, 3.0)])
    scene = build_scene(_rows(tracks, 0, 0, 10), tracks, history_len=4, max_neighbors=3)
    expected = oracle_build_scene(np.arange(10), tracks, history_len=4, max_neighbors=3)
    expected = cut_neighbours_at_t0(expected, history_len=4)
    assert_same_scene(scene, expected)
    assert scene.agent_ids.tolist() == [[5, 2, 2, 7]]
    assert scene.positions[0, 1, 0, 0] == -3.0


def test_tracks_derive_each_rows_track_and_the_frame_order_once():
    tracks = tracks_of([(4, [3, 5, 7], np.zeros((3, 2))), (2, [], np.zeros((0, 2))), (4, [5, 6], np.ones((2, 2)))])
    assert tracks.owner.tolist() == [0, 0, 0, 2, 2]
    assert tracks.by_frame.tolist() == [0, 1, 3, 4, 2]  # frame 5 of track 0 before frame 5 of track 2
    assert tracks.frame_rank.tolist() == [0, 1, 3, 1, 2]
    owner, by_frame, frame_rank = tracks.owner, tracks.by_frame, tracks.frame_rank
    build_scene(_rows(tracks, 0, 0, 3), tracks, history_len=2, max_neighbors=8)
    assert tracks.owner is owner and tracks.by_frame is by_frame and tracks.frame_rank is frame_rank


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-(2**62), 2**62), max_size=40))
def test_tracks_frame_rank_is_each_frames_rank_among_the_distinct_frames(frames):
    tracks = tracks_of([(1, frames, np.zeros((len(frames), 2)))])
    assert tracks.frame_rank.tolist() == np.unique(np.array(frames, dtype=np.int64), return_inverse=True)[1].tolist()


HISTORY_LEN = 20  # of the scene families


def _full_window(scenes):
    """`scenes` with each neighbour present over the whole window, carried
    on past its history at its first step's velocity, as the generator's
    constant-velocity neighbours drive."""
    steps = np.arange(scenes.present.shape[2])[:, None]
    carried = scenes.positions[:, :, :1] + (scenes.positions[:, :, 1:2] - scenes.positions[:, :, :1]) * steps
    return dataclasses.replace(scenes, present=np.ones_like(scenes.present),
                               positions=np.where(scenes.present[..., None], scenes.positions, carried))


def _scene_pairs(rng):
    """Each family's scenes as a pair of batches, (scenes, the same scenes
    over the full window): neighbours are cut at t_0 in the first and not
    in the second.  Holes fall on the same frames of both."""
    tiny = synthetic_params(frames=90, noise=0.05)
    synthetic = {
        "tiny": gen_synthetic(tiny, 8, rng, history_len=HISTORY_LEN),
        "tiny-neighbours": gen_synthetic({**tiny, "neighbors": 2}, 8, rng, history_len=HISTORY_LEN),
        "mixed-4": gen_synthetic(synthetic_params(frames=60, neighbors=4), 12, rng, history_len=HISTORY_LEN),
    }
    pairs = {name: (scenes, _full_window(scenes)) for name, scenes in synthetic.items()}
    tracks = ingest_ngsim(NGSIM_FIXTURE)
    segments = np.concatenate(segment_and_split(tracks, segment_len=40))
    pairs["ngsim"] = (build_scene(segments, tracks, HISTORY_LEN, 8),
                      batch_of([oracle_build_scene(segment, tracks, HISTORY_LEN, 8) for segment in segments]))
    pairs["ngsim-holes"] = tuple(_with_holes(scenes, np.random.default_rng(0), HISTORY_LEN - 1)
                                 for scenes in pairs["ngsim"])
    pairs["ngsim-no-accels"] = tuple(map(_without_accels, pairs["ngsim-holes"]))
    return pairs


def _scene_families(rng):
    return {name: scenes for name, (scenes, _) in _scene_pairs(rng).items()}


def test_scene_cut_at_t0_gives_the_full_window_sample(tmp_path, rng):
    for name, (scenes, full) in _scene_pairs(rng).items():
        assert scenes.present.shape == full.present.shape, name
        assert not scenes.present[:, 1:, HISTORY_LEN:].any(), name
        expected = sample_rows(build_sample(full, HISTORY_LEN))
        batched = sample_rows(build_sample(scenes, HISTORY_LEN))
        for i, scene in enumerate(each_scene(scenes)):
            path = tmp_path / f"{name}_{i}.csv"
            write_scene(scene, path)
            for sample in (batched[i], _sample(scene, HISTORY_LEN),
                           _sample(read_scene(path, frame_rate=scenes.frame_rate), HISTORY_LEN)):
                for field in ("states", "mask", "future"):
                    got, want = getattr(sample, field), getattr(expected[i], field)
                    assert got.tobytes() == want.tobytes(), (name, i, field)
        if name != "tiny":  # the full window holds neighbour rows past t_0 that the cut scene drops
            assert full.present[:, 1:, HISTORY_LEN:].any()


def test_write_scene_bytes_match_csv_writer(tmp_path, rng):
    for name, scenes in _scene_families(rng).items():
        for i, scene in enumerate(each_scene(scenes)):
            path, expected = tmp_path / f"{name}_{i}.csv", tmp_path / f"{name}_{i}_oracle.csv"
            write_scene(scene, path)
            oracle_write_scene(scene, expected)
            assert path.read_bytes() == expected.read_bytes(), (name, i)


def test_write_split_memory_does_not_grow_with_the_split(tmp_path, rng):
    # write_data_dir holds one chunk's rows and strings at a time, not the split's
    scenes = gen_synthetic(synthetic_params(neighbors=4), 64, rng, history_len=HISTORY_LEN)
    write_data_dir(tmp_path / "warm-up", {"train": scenes[:1]}, HISTORY_LEN, scenes.frame_rate)

    def peak_bytes(n):
        tracemalloc.start()
        try:
            write_data_dir(tmp_path / str(n), {"train": scenes[:n]}, HISTORY_LEN, scenes.frame_rate)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(64) <= 1.5 * peak_bytes(16)


def test_scene_split_memory_does_not_grow_with_the_split(tmp_path):
    # a SceneSplit is built one chunk at a time as write_data_dir writes it,
    # so no batch of the whole split is held; the input is the seed-1 train
    # split of the benchmark's `ngsim_prep` workload
    tracks, train = _bench_ngsim_train_split(tmp_path)
    write_data_dir(tmp_path / "warm-up", {"train": SceneSplit(train[:1], tracks, 50, 8)}, 50, tracks.frame_rate)

    def peak_bytes(n):
        tracemalloc.start()
        try:
            write_data_dir(tmp_path / str(n), {"train": SceneSplit(train[:n], tracks, 50, 8)}, 50, tracks.frame_rate)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert len(train) == 128
    assert peak_bytes(128) <= 1.5 * peak_bytes(32)


@pytest.mark.parametrize("make", [build_scene, SceneSplit])
@pytest.mark.parametrize("history_len", [1, 5])
def test_a_history_len_that_leaves_no_history_or_future_is_refused(make, history_len):
    # a SceneSplit refuses when it is made, before any chunk is built
    tracks = tracks_of([(1, np.arange(10), np.zeros((10, 2)))])
    with pytest.raises(ConfigError, match=f"must be >= 2 and below the segment length 5, got {history_len}"):
        make(np.zeros((0, 5), dtype=np.int64), tracks, history_len, 8)


def test_read_split_memory_does_not_grow_with_the_split(tmp_path, rng, monkeypatch):
    # read_split copies each chunk's samples into the split's one table and
    # drops them: beside the table it holds one chunk's arrays, not a second
    # copy of the split.  Chunks of 4 files make both splits several chunks
    # long, so that in each the table is held while a chunk is read
    scenes = gen_synthetic(synthetic_params(neighbors=4), 64, rng, history_len=HISTORY_LEN)
    for n in (1, 16, 64):
        write_data_dir(tmp_path / str(n), {"train": scenes[:n]}, HISTORY_LEN, scenes.frame_rate)
    monkeypatch.setattr("polytraj.data.SPLIT_CHUNK", 4)
    read_split(tmp_path / "1", "train", HISTORY_LEN)

    def extra_bytes(n):
        tracemalloc.start()
        try:
            samples = read_split(tmp_path / str(n), "train", HISTORY_LEN)
            return tracemalloc.get_traced_memory()[1] - sum(getattr(samples, name).nbytes for name in SAMPLE_ARRAYS)
        finally:
            tracemalloc.stop()

    assert extra_bytes(64) <= 1.5 * extra_bytes(16)


def _random_scene(rng, n_agents):
    """A scene of `n_agents` on an uneven window: each neighbour absent at
    random frames (present at one at least), and each agent's v and a
    recorded or not at random."""
    n = int(rng.integers(2, 30))
    frames = int(rng.integers(-1000, 1000)) + np.cumsum(rng.integers(1, 4, size=n))
    agents = []
    for a in range(n_agents):
        present = np.ones(n, dtype=bool) if a == 0 else rng.uniform(size=n) < rng.uniform(0.1, 1.0)
        present[rng.integers(n)] = True

        def column(*shape):
            return np.where(np.reshape(present, (n,) + (1,) * len(shape)), rng.normal(size=(n, *shape)), 0.0)

        recorded = rng.uniform(size=2) < 0.5
        agents.append((10 * a + int(rng.integers(10)), present, column(2),
                       column() if recorded[0] else None, column() if recorded[1] else None))
    return scene_of(frames, agents)


def _interleaved_rows(text, rng):
    """A scene file's rows shuffled, the reference agent's first row first
    and its rows in their order."""
    header, first, *rest = text.split("\r\n")[:-1]
    reference = first.split(",")[0]
    shuffled = [rest[i] for i in rng.permutation(len(rest))]
    slots = [k for k, line in enumerate(shuffled) if line.split(",")[0] == reference]
    for k, line in zip(slots, [line for line in rest if line.split(",")[0] == reference]):
        shuffled[k] = line
    return "\n".join([header, first, *shuffled]) + "\n"


def test_read_scene_matches_row_wise_oracle(tmp_path, rng):
    for name, scenes in _scene_families(rng).items():
        for i, scene in enumerate(each_scene(scenes)):
            path = tmp_path / f"{name}_{i}.csv"
            write_scene(scene, path)
            assert_same_scene(read_scene(path, frame_rate=12.5), oracle_read_scene(path, frame_rate=12.5))
            assert_same_scene(dataclasses.replace(scene, frame_rate=12.5), read_scene(path, frame_rate=12.5))
    # 1 to 9 agents with absent frames and v and a recorded for some agents
    # only, in agent blocks as written and with the rows interleaved
    for n_agents in range(1, 10):
        for i in range(4):
            scene = _random_scene(rng, n_agents)
            path = tmp_path / f"random_{n_agents}_{i}.csv"
            write_scene(scene, path)
            assert_same_scene(read_scene(path), scene)
            assert_same_scene(read_scene(path), oracle_read_scene(path))
            path.write_text(_interleaved_rows(path.read_bytes().decode(), rng))
            assert_same_scene(read_scene(path), oracle_read_scene(path))
    # LF line ends, interleaved agents, padded fields and a last row without
    # a line break are read alike too
    path = tmp_path / "interleaved.csv"
    path.write_text("agent_id,frame,x_m,y_m,v,a\n4,0,1.5,2,,\n8,1,0.25,-1e-300,3,\n4,1,1,1,,\n4,2, 7 ,-0.0,,")
    assert_same_scene(read_scene(path), oracle_read_scene(path))
