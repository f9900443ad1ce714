"""Tests for ingestion, feature computation, segmentation, and synthetics."""

import math

import numpy as np
import pytest

from polytraj.data import (
    FEET_TO_METRES,
    Scene,
    SceneAgent,
    Segment,
    Track,
    build_sample,
    build_samples,
    build_scene,
    filter_straight,
    gen_synthetic,
    ingest_ngsim,
    is_straight_constant_velocity,
    parse_ratio,
    read_scene,
    read_tracks,
    segment_and_split,
    write_scene,
    write_tracks,
)
from polytraj.errors import ConfigError, DataError
from polytraj.evaluation import least_squares_fit

NGSIM_HEADER = "Vehicle_ID,Frame_ID,Total_Frames,Local_X,Local_Y,v_Vel,v_Acc\n"


def _write_csv(path, rows, header=NGSIM_HEADER):
    path.write_text(header + "".join(rows))


# -- ingestion ------------------------------------------------------------------


def test_single_vehicle_three_rows(tmp_path):
    path = tmp_path / "ngsim.csv"
    _write_csv(path, [f"7,{100 + i},3,{i}.0,{2 * i}.0,20.0,0.1\n" for i in range(3)])
    tracks = ingest_ngsim(path)
    assert len(tracks) == 1
    assert tracks[0].agent_id == 7
    assert len(tracks[0]) == 3


def test_feet_to_metres(tmp_path):
    path = tmp_path / "ngsim.csv"
    _write_csv(path, ["1,10,2,1.0,0.0,10.0,1.0\n", "1,11,2,2.0,0.0,10.0,1.0\n"])
    track = ingest_ngsim(path)[0]
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
    tracks = ingest_ngsim(path)
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


def test_track_rejects_non_uniform_spacing():
    with pytest.raises(DataError, match="spacing"):
        Track(agent_id=1, frames=[0, 1, 3], positions=np.zeros((3, 2)))


def test_tracks_round_trip_bit_exact(tmp_path, rng):
    tracks = [
        Track(
            agent_id=i,
            frames=np.arange(5) + 10 * i,
            positions=rng.normal(0, 100, size=(5, 2)) * math.pi,
            speeds=rng.uniform(0, 30, size=5) if i % 2 else None,
            accels=None,
        )
        for i in range(1, 4)
    ]
    path = tmp_path / "cache.csv"
    write_tracks(tracks, path)
    restored = read_tracks(path)
    assert len(restored) == len(tracks)
    for before, after in zip(tracks, restored):
        assert after.agent_id == before.agent_id
        np.testing.assert_array_equal(after.positions, before.positions)
        np.testing.assert_array_equal(after.frames, before.frames)
        if before.speeds is None:
            assert after.speeds is None
        else:
            np.testing.assert_array_equal(after.speeds, before.speeds)


# -- states -----------------------------------------------------------------------


def _two_agent_scene():
    frames = np.arange(4)
    ego = SceneAgent(
        agent_id=0,
        present=np.ones(4, dtype=bool),
        positions=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),
    )
    neighbor_positions = np.array([[0.0, 0.0], [4.0, 3.0], [5.0, 4.0], [6.0, 5.0]])
    neighbor = SceneAgent(
        agent_id=1,
        present=np.array([False, True, True, True]),
        positions=neighbor_positions,
    )
    return Scene(frames=frames, agents=[ego, neighbor], frame_rate=10.0)


def test_state_increments_speed_heading():
    scene = _two_agent_scene()
    sample = build_sample(scene, history_len=3)
    dx, dy, v, _, theta, l, phi = sample.states[0, 0]  # ego at frame 1
    assert (dx, dy) == (1.0, 0.0)
    assert v == pytest.approx(10.0)
    assert theta == 0.0
    assert l == 0.0 and phi == 0.0


def test_neighbor_polar_coordinates():
    scene = _two_agent_scene()
    state = build_sample(scene, history_len=3).states[1, 1]  # neighbor at frame 2
    # neighbor at (5, 4) vs ego at (2, 0): 3 m lateral, 4 m ahead
    assert state[5] == pytest.approx(5.0)
    assert state[6] == pytest.approx(math.atan2(4.0, 3.0))


def test_masked_neighbor_is_none_not_error():
    scene = _two_agent_scene()
    sample = build_sample(scene, history_len=3)  # neighbor absent at frame 0
    assert sample.mask[1, 0] == 0.0
    np.testing.assert_array_equal(sample.states[1, 0], np.zeros(7))


def test_states_require_predecessor():
    # increments need a predecessor frame: states start at frame 1, and a
    # history with no frame after the first is rejected
    sample = build_sample(_two_agent_scene(), history_len=3)
    assert sample.states.shape[1] == 2  # frames 1 and 2 of frames 0..2
    with pytest.raises(ConfigError):
        build_sample(_two_agent_scene(), history_len=1)


def test_state_vector_order():
    scene = _two_agent_scene()
    vec = build_sample(scene, history_len=3).states[1, 1]
    assert vec.shape == (7,)
    delta = scene.agents[1].positions[2] - scene.agents[1].positions[1]
    assert vec[0] == delta[0] and vec[1] == delta[1]
    assert vec[4] == pytest.approx(math.atan2(delta[1], delta[0]))


# -- segmentation and splitting ------------------------------------------------------


def _track_of_length(n, agent_id=1):
    return Track(
        agent_id=agent_id,
        frames=np.arange(n),
        positions=np.stack([np.zeros(n), np.arange(n, dtype=float)], axis=1),
    )


def test_800_frames_gives_3_train_1_test():
    train, test = segment_and_split([_track_of_length(800)], segment_len=200)
    assert len(train) == 3 and len(test) == 1
    assert test[0].start == 600


def test_short_track_is_skipped():
    train, test = segment_and_split([_track_of_length(199)], segment_len=200)
    assert train == [] and test == []


def test_1000_frames_rounding_rule():
    # documented rule: test count = ceil(total / 4)
    train, test = segment_and_split([_track_of_length(1000)], segment_len=200)
    assert len(train) + len(test) == 5
    assert len(test) == 2
    assert {seg.start for seg in test} == {600, 800}


def test_split_is_temporally_disjoint():
    train, test = segment_and_split([_track_of_length(1600)], segment_len=200)
    train_frames = {f for seg in train for f in range(seg.start, seg.start + seg.length)}
    test_frames = {f for seg in test for f in range(seg.start, seg.start + seg.length)}
    assert not train_frames & test_frames
    assert max(train_frames) < min(test_frames)


def test_parse_ratio_rejects_garbage():
    assert parse_ratio("3:1") == (3, 1)
    with pytest.raises(ConfigError):
        parse_ratio("3")
    with pytest.raises(ConfigError):
        parse_ratio("0:1")


# -- straight filtering ----------------------------------------------------------------


def _scene_from_positions(positions, frame_rate=10.0):
    positions = np.asarray(positions, dtype=float)
    return Scene(
        frames=np.arange(len(positions)),
        agents=[
            SceneAgent(
                agent_id=0,
                present=np.ones(len(positions), dtype=bool),
                positions=positions,
            )
        ],
        frame_rate=frame_rate,
    )


def _straight_scene(n=50):
    return _scene_from_positions(np.stack([np.zeros(n), np.arange(n) * 1.0], axis=1))


def _curved_scene(n=50):
    t = np.arange(n, dtype=float)
    return _scene_from_positions(np.stack([0.002 * t**2, t], axis=1))


def test_straightness_classifier():
    assert is_straight_constant_velocity(_straight_scene())
    assert not is_straight_constant_velocity(_curved_scene())


def test_all_curved_input_unchanged(rng):
    scenes = [_curved_scene() for _ in range(10)]
    assert filter_straight(scenes, 0.5, rng) == scenes


def test_straight_downsampled_to_exact_count(rng):
    scenes = [_straight_scene() for _ in range(100)]
    kept = filter_straight(scenes, 0.5, rng)
    assert len(kept) == 50


def test_curved_count_preserved_in_mixed_set(rng):
    scenes = [_straight_scene() if i % 2 else _curved_scene() for i in range(40)]
    kept = filter_straight(scenes, 0.5, rng)
    curved_before = sum(1 for s in scenes if not is_straight_constant_velocity(s))
    curved_after = sum(1 for s in kept if not is_straight_constant_velocity(s))
    assert curved_after == curved_before
    assert len(kept) == curved_before + 10


# -- synthetic scenes ---------------------------------------------------------------


def test_const_vel_span():
    params = {"speed_min": 10.0, "speed_max": 10.0}
    (scene,) = gen_synthetic("const_vel", params, 1, np.random.default_rng(0), n_frames=51)
    assert scene.ego.positions[0, 1] == 0.0
    assert scene.ego.positions[-1, 1] == pytest.approx(50.0)


def test_const_acc_exact_quadratic(rng):
    scenes = gen_synthetic("const_acc", {}, 3, rng, n_frames=120)
    for scene in scenes:
        t = np.arange(120, dtype=float)
        for axis in (0, 1):
            fit = least_squares_fit(np.stack([t, scene.ego.positions[:, axis]], axis=1), 2)
            assert fit.residual < 1e-9


def test_lane_change_profile(rng):
    scenes = gen_synthetic("lane_change", {}, 4, rng, n_frames=200)
    for scene in scenes:
        lateral = scene.ego.positions[:, 0]
        assert lateral[0] == 0.0
        assert abs(abs(lateral[-1]) - 3.5) < 0.05
        steps = np.diff(lateral)
        assert np.all(steps >= 0) or np.all(steps <= 0)


def test_arc_constant_curvature(rng):
    (scene,) = gen_synthetic("arc", {}, 1, rng, n_frames=100)
    positions = scene.ego.positions
    x, y = positions[:, 0], positions[:, 1]
    sign = 1.0 if x[-1] >= 0 else -1.0
    # the center is at (sign * R, 0), so x^2 + y^2 = 2 R sign x on the circle
    chord = x**2 + y**2
    with np.errstate(invalid="ignore"):
        r_est = chord[1:] / (2.0 * sign * x[1:])
    r_est = r_est[np.isfinite(r_est)]
    assert np.allclose(r_est, r_est[0], rtol=1e-6)


def test_invalid_kind_names_valid_kinds(rng):
    with pytest.raises(ConfigError, match="const_vel"):
        gen_synthetic("spiral", {}, 1, rng)


def test_out_of_range_params_rejected(rng):
    with pytest.raises(ConfigError):
        gen_synthetic("const_vel", {"speed_min": 10.0, "speed_max": 50.0}, 1, rng)
    with pytest.raises(ConfigError):
        gen_synthetic("const_acc", {"accel_max": 9.0}, 1, rng)


def test_mixed_cycles_through_kinds(rng):
    scenes = gen_synthetic("mixed", {}, 8, rng, n_frames=100)
    assert len(scenes) == 8


# -- samples ---------------------------------------------------------------------------


def test_sample_future_origin_is_zero(rng):
    scenes = gen_synthetic("mixed", {"neighbors": 2}, 4, rng, n_frames=80)
    for sample in build_samples(scenes, history_len=20):
        np.testing.assert_array_equal(sample.future[0], [0.0, 0.0])
        assert sample.states.shape == (3, 19, 7)
        assert sample.future.shape == (61, 2)


def test_sample_rejects_scene_without_future(rng):
    (scene,) = gen_synthetic("const_vel", {}, 1, rng, n_frames=20)
    with pytest.raises(DataError):
        build_sample(scene, history_len=20)


def test_scene_round_trip_with_masked_neighbor(tmp_path):
    scene = _two_agent_scene()
    path = tmp_path / "scene.csv"
    write_scene(scene, path)
    restored = read_scene(path)
    assert [a.agent_id for a in restored.agents] == [0, 1]
    np.testing.assert_array_equal(restored.agents[1].present, scene.agents[1].present)
    np.testing.assert_array_equal(
        restored.agents[1].positions[1:], scene.agents[1].positions[1:]
    )
    np.testing.assert_array_equal(restored.ego.positions, scene.ego.positions)


def test_build_scene_selects_nearest_neighbors():
    ego = _track_of_length(400, agent_id=1)
    near = Track(
        agent_id=2,
        frames=np.arange(400),
        positions=np.stack([np.full(400, 3.0), np.arange(400, dtype=float)], axis=1),
    )
    far = Track(
        agent_id=3,
        frames=np.arange(400),
        positions=np.stack([np.full(400, 80.0), np.arange(400, dtype=float)], axis=1),
    )
    elsewhere = Track(
        agent_id=4,
        frames=np.arange(1000, 1400),
        positions=np.stack([np.zeros(400), np.arange(400, dtype=float)], axis=1),
    )
    scene = build_scene(Segment(ego, 0, 200), [ego, near, far, elsewhere], history_len=50, max_neighbors=1)
    assert [a.agent_id for a in scene.agents] == [1, 2]
    assert bool(np.all(scene.agents[1].present))
