"""Tests for ingestion, feature computation, segmentation, and synthetics."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    oracle_build_scene,
    oracle_ingest_ngsim,
    oracle_read_scene,
    oracle_states,
    oracle_write_scene,
)

from polytraj.data import (
    FEET_TO_METRES,
    Scene,
    SceneAgent,
    Segment,
    Track,
    TrackList,
    build_sample,
    build_samples,
    build_scene,
    filter_straight,
    gen_synthetic,
    ingest_ngsim,
    is_straight_constant_velocity,
    parse_ratio,
    read_scene,
    segment_and_split,
    write_scene,
)
from polytraj.errors import ConfigError, DataError
from polytraj.evaluation import least_squares_fit

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


def test_frame_gap_splits_track(tmp_path, caplog):
    path = tmp_path / "ngsim.csv"
    _write_csv(path, [f"4,{f},4,0.0,{f}.0,30.0,0.0\n" for f in (10, 11, 13, 14)])
    tracks = ingest_ngsim(path)
    assert [list(t.frames) for t in tracks] == [[10, 11], [13, 14]]
    assert [t.agent_id for t in tracks] == [4, 4]
    assert "1 frame gap" in caplog.text


def test_frame_gap_drops_single_frame_piece(tmp_path):
    path = tmp_path / "ngsim.csv"
    _write_csv(path, [f"4,{f},3,0.0,{f}.0,30.0,0.0\n" for f in (10, 11, 13)])
    (track,) = ingest_ngsim(path)
    assert list(track.frames) == [10, 11]
    np.testing.assert_array_equal(track.positions[:, 1], np.array([10.0, 11.0]) * FEET_TO_METRES)


def test_scene_round_trip_bit_exact(tmp_path, rng):
    # frames, pi-scaled positions and speeds come back bit for bit; a
    # neighbour absent at one frame keeps zeros there, and agents without
    # speeds keep speeds None
    frames = np.arange(5) + 10
    agents = []
    for i in range(1, 4):
        present = (np.arange(5) != i) | (i == 1)  # agent 1, the reference, is always present
        positions = rng.normal(0, 100, size=(5, 2)) * math.pi * present[:, None]
        speeds = rng.uniform(0, 30, size=5) * present if i % 2 else None
        agents.append(SceneAgent(agent_id=i, present=present, positions=positions, speeds=speeds))
    scene = Scene(frames=frames, agents=agents)
    path = tmp_path / "scene.csv"
    write_scene(scene, path)
    restored = read_scene(path)
    assert len(restored.agents) == len(agents)
    np.testing.assert_array_equal(restored.frames, frames)
    for before, after in zip(agents, restored.agents):
        assert after.agent_id == before.agent_id
        np.testing.assert_array_equal(after.present, before.present)
        np.testing.assert_array_equal(after.positions, before.positions)
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


def test_constant_recorded_speed_gives_zero_alpha(rng):
    # with recorded speeds and no recorded accels, alpha is the change of
    # the recorded speed, so position noise does not enter it
    frames = np.arange(12)
    positions = np.stack([np.zeros(12), frames * 1.0], axis=1) + rng.normal(0.0, 0.05, size=(12, 2))
    ego = SceneAgent(agent_id=1, present=np.ones(12, dtype=bool), positions=positions, speeds=np.full(12, 10.0))
    sample = build_sample(Scene(frames=frames, agents=[ego], frame_rate=10.0), history_len=8)
    np.testing.assert_array_equal(sample.states[0, :, 2], 10.0)
    np.testing.assert_array_equal(sample.states[0, :, 3], 0.0)


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


# -- whole-array states against the per-frame oracle -----------------------------------


def _ngsim_scenes(tmp_path, rng, n_vehicles=40, frames=160):
    """Scenes of up to 9 agents from a staggered NGSim-format file, so many
    neighbours are present in only part of the window."""
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
    train, test = segment_and_split(tracks, segment_len=40)
    return [build_scene(seg, tracks, history_len=20, max_neighbors=8) for seg in train + test]


def _with_holes(scene, rng, share=0.2):
    agents = [scene.ego]
    for agent in scene.agents[1:]:
        present = agent.present & (rng.uniform(size=agent.present.size) >= share)
        agents.append(
            dataclasses.replace(
                agent,
                present=present,
                positions=agent.positions * present[:, None],
                speeds=None if agent.speeds is None else agent.speeds * present,
                accels=None if agent.accels is None else agent.accels * present,
            )
        )
    return dataclasses.replace(scene, agents=agents)


def _without_accels(scene):
    return dataclasses.replace(
        scene, agents=[dataclasses.replace(agent, accels=None) for agent in scene.agents]
    )


def test_build_sample_equals_per_frame_oracle_bitwise(tmp_path, rng):
    noisy = {"noise": 0.05}
    families = {
        "5-agent": gen_synthetic("mixed", {**noisy, "neighbors": 4}, 200, rng, n_frames=30),
        "1-agent": gen_synthetic("mixed", noisy, 100, rng, n_frames=30),
    }
    ngsim = _ngsim_scenes(tmp_path, rng)
    families["ngsim"] = ngsim
    families["ngsim-holes"] = [_with_holes(scene, rng) for scene in ngsim]
    families["ngsim-no-accels"] = [_without_accels(scene) for scene in families["ngsim-holes"]]
    assert len(ngsim) == 160
    assert max(len(scene.agents) for scene in ngsim) == 9
    assert any(not agent.present.all() for scene in ngsim for agent in scene.agents)
    for name, scenes in families.items():
        for scene in scenes:
            sample = build_sample(scene, history_len=20)
            states, mask = oracle_states(scene, history_len=20)
            assert sample.states.tobytes() == states.tobytes(), name
            assert sample.mask.tobytes() == mask.tobytes(), name


# -- column-wise data path against the row-wise oracles ---------------------------------


def _assert_same_tracks(tracks, expected):
    assert len(tracks) == len(expected)
    for track, oracle in zip(tracks, expected):
        assert track.agent_id == oracle.agent_id and type(track.agent_id) is type(oracle.agent_id)
        for name in ("frames", "positions", "speeds", "accels"):
            a, b = getattr(track, name), getattr(oracle, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _assert_same_scene(scene, expected):
    assert scene.frames.dtype == expected.frames.dtype
    assert scene.frames.tobytes() == expected.frames.tobytes()
    assert scene.frame_rate == expected.frame_rate
    assert [a.agent_id for a in scene.agents] == [a.agent_id for a in expected.agents]
    for agent, oracle in zip(scene.agents, expected.agents):
        assert type(agent.agent_id) is type(oracle.agent_id)
        for name in ("present", "positions", "speeds", "accels"):
            a, b = getattr(agent, name), getattr(oracle, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _fixture_scenes(history_len=20, neighbors=8):
    tracks = ingest_ngsim(NGSIM_FIXTURE)
    train, test = segment_and_split(tracks, segment_len=40)
    return [build_scene(seg, tracks, history_len, neighbors) for seg in train + test]


def test_ngsim_fixture_has_gaps_staggered_entries_and_masked_neighbours():
    scenes = _fixture_scenes()
    assert len(ingest_ngsim(NGSIM_FIXTURE)) == 13  # vehicle 5 splits in two; its isolated frame is dropped
    assert len(scenes) == 23 and max(len(scene.agents) for scene in scenes) == 9
    assert any(not agent.present.all() for scene in scenes for agent in scene.agents)


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
    assert isinstance(tracks, TrackList)
    train, test = segment_and_split(tracks, segment_len=40)
    for segment in train + test:
        expected = oracle_build_scene(segment, tracks, history_len, neighbors)
        _assert_same_scene(build_scene(segment, tracks, history_len, neighbors), expected)
        _assert_same_scene(build_scene(segment, list(tracks), history_len, neighbors), expected)


def test_build_scene_breaks_distance_ties_by_agent_id_then_list_order():
    def track(agent_id, x):
        return Track(agent_id, np.arange(10), np.stack([np.full(10, x), np.zeros(10)], axis=1))

    ego = track(5, 0.0)
    tracks = [ego, track(9, 3.0), track(2, -3.0), track(7, 3.0), track(2, 3.0)]
    scene = build_scene(Segment(ego, 0, 10), tracks, history_len=4, max_neighbors=3)
    expected = oracle_build_scene(Segment(ego, 0, 10), tracks, history_len=4, max_neighbors=3)
    _assert_same_scene(scene, expected)
    assert [a.agent_id for a in scene.agents] == [5, 2, 2, 7]
    assert scene.agents[1].positions[0, 0] == -3.0


def test_track_list_is_immutable_and_builds_its_frame_index_once():
    tracks = ingest_ngsim(NGSIM_FIXTURE)
    assert tracks.frame_index is tracks.frame_index
    assert not hasattr(tracks, "append")
    segment = segment_and_split(tracks, segment_len=40)[0][0]
    build_scene(segment, tracks, history_len=20, max_neighbors=8)
    assert tracks.frame_index.tracks is tracks


def _scene_families(rng):
    tiny = {"noise": 0.05}
    ngsim = _fixture_scenes()
    holes = [_with_holes(scene, rng) for scene in ngsim]
    return {
        "tiny": gen_synthetic("mixed", tiny, 8, rng, n_frames=90),
        "tiny-neighbours": gen_synthetic("mixed", {**tiny, "neighbors": 2}, 8, rng, n_frames=90),
        "mixed-4": gen_synthetic("mixed", {"neighbors": 4}, 12, rng, n_frames=60),
        "ngsim": ngsim,
        "ngsim-holes": holes,
        "ngsim-no-accels": [_without_accels(scene) for scene in holes],
    }


def test_write_scene_bytes_match_csv_writer(tmp_path, rng):
    for name, scenes in _scene_families(rng).items():
        for i, scene in enumerate(scenes):
            path, expected = tmp_path / f"{name}_{i}.csv", tmp_path / f"{name}_{i}_oracle.csv"
            write_scene(scene, path)
            oracle_write_scene(scene, expected)
            assert path.read_bytes() == expected.read_bytes(), (name, i)


def test_read_scene_matches_row_wise_oracle(tmp_path, rng):
    for name, scenes in _scene_families(rng).items():
        for i, scene in enumerate(scenes):
            path = tmp_path / f"{name}_{i}.csv"
            write_scene(scene, path)
            _assert_same_scene(read_scene(path, frame_rate=12.5), oracle_read_scene(path, frame_rate=12.5))
    # LF line ends, interleaved agents, padded fields and a last row without
    # a line break are read alike too
    path = tmp_path / "interleaved.csv"
    path.write_text("agent_id,frame,x_m,y_m,v,a\n4,0,1.5,2,,\n8,1,0.25,-1e-300,3,\n4,1,1,1,,\n4,2, 7 ,-0.0,,")
    _assert_same_scene(read_scene(path), oracle_read_scene(path))
