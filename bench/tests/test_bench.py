"""Tests of the benchmark's own code: input generator, spans, speed probe, metric names.

Run with: python3 -m pytest -q bench/tests
"""

import gc
import json
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import ngsim_gen
import probe
import run
import spans
from polytraj import cli, data, model

ROOT = Path(__file__).resolve().parents[2]


def test_generator_is_deterministic(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert ngsim_gen.write_csv(a, seed=7, n_vehicles=12, frames=600) == 12 * 600
    ngsim_gen.write_csv(b, seed=7, n_vehicles=12, frames=600)
    ngsim_gen.write_csv(c, seed=8, n_vehicles=12, frames=600)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_ingest_accepts_generated_csv_and_filter_keeps_and_drops(tmp_path):
    path = tmp_path / "ngsim.csv"
    ngsim_gen.write_csv(path, seed=3, n_vehicles=20, frames=600)
    tracks = data.ingest_ngsim(path)
    assert [t.agent_id for t in tracks] == list(range(1, 21))
    assert all(len(t) == 600 and np.all(np.diff(t.frames) == 1) for t in tracks)
    train, _ = data.segment_and_split(tracks)
    scenes = [data.build_scene(seg, tracks, history_len=50, max_neighbors=8) for seg in train]
    straight = sum(data.is_straight_constant_velocity(s) for s in scenes)
    assert 0 < straight < len(scenes)
    kept = data.filter_straight(scenes, fraction=0.5, rng=np.random.default_rng(0))
    assert len(scenes) - straight < len(kept) < len(scenes)
    partly_masked = [a for s in scenes for a in s.agents[1:] if not a.present.all()]
    assert partly_masked, "tracks should overlap only in part"


def test_self_time_of_hand_built_nest():
    nest = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b.child1", 5.0, 6.0, 3],
        ["b.child2", 7.5, 8.0, 3],
    ]
    assert spans.self_times(nest) == [3.0, 2.0, 1.0, 2.5, 1.0, 0.5]


def test_overlapping_children_are_counted_once():
    nest = [["root", 0.0, 10.0, -1], ["x", 1.0, 5.0, 0], ["y", 3.0, 12.0, 0]]
    assert spans.self_times(nest)[0] == 1.0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()}
    layer_names = set(spans.layer_metrics(spans.Tracer(), steps=0, test_samples=1, wall_s=1.0))
    assert layer_names | {"trace.overhead_frac"} == {name for name, _ in run.PER_LAYER}
    seconds = {"generate": 1.0, "train": 2.0, "eval": 0.5}
    record = {"checks": [], "import_s": 0.1, "import_cpu_s": 0.1, "peak_rss_mb": 50.0,
              "test_samples": 4, "eval_rmse_5s_m": 1.0, "train_loss_final": 0.5,
              "seconds": seconds, "cpu_seconds": seconds,
              "probe_s": {name: [probe.NOMINAL_S] for name in seconds}}
    for workload in run.WORKLOADS.values():
        summary = run.summarise([record], workload)
        assert {name for name, _ in run.END_TO_END + run.PRINTED} == set(summary)


def test_rescale_takes_out_the_probes_and_scales_to_nominal_speed():
    nominal = probe.NOMINAL_S
    # half as fast as nominal; the median ignores the one slow probe
    samples = [2 * nominal, 2 * nominal, 20 * nominal]
    assert probe.speed(samples) == pytest.approx(0.5)
    assert probe.rescale(1.0 + sum(samples), samples) == pytest.approx(0.5)


def test_probe_kernel_allocates_nothing_the_gc_tracks():
    probe.kernel(probe.ROUNDS)
    gc.disable()
    try:
        before = gc.get_count()[0]
        probe.kernel(probe.ROUNDS)
        assert gc.get_count()[0] == before
    finally:
        gc.enable()


def test_speed_probe_samples_while_active_and_restores_the_signal():
    speed = probe.SpeedProbe()
    with speed:
        end = time.process_time() + 10 * probe.INTERVAL_S
        while time.process_time() < end:
            pass
    assert len(speed.samples) >= 5 and all(s > 0 for s in speed.samples)
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL


def test_command_times_rescale_import_with_the_generate_probes():
    nominal = probe.NOMINAL_S
    record = {"import_s": 0.2, "import_cpu_s": 0.2,
              "seconds": {"generate": 1.0 + 2 * nominal}, "cpu_seconds": {"generate": 1.0 + 2 * nominal},
              "probe_s": {"generate": [2 * nominal]}}
    times = run.command_times(record)
    assert times["generate"] == pytest.approx((0.5, 1.0))
    assert times["setup"] == pytest.approx((0.6, 1.2))


def test_tracer_counts_a_tiny_pipeline_and_restores_patches(tmp_path):
    originals = (cli.train, model.gru_cell, model.TrajectoryModel.forward_batch, data.read_scene)
    sets = ["synthetic.n=8", "synthetic.frames=90", "data.history_len=20", "model.units=3",
            "model.decoder_steps=2", "train.steps=3", "train.batch=4", "anchors.count=3",
            "synthetic.neighbors=1"]
    argv = [arg for pair in sets for arg in ("--set", pair)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["generate", *argv, "--set", f"out.dir={tmp_path}"]) == 0
        assert cli.main(["train", *argv, "--set", f"data.dir={tmp_path}",
                         "--set", f"out.dir={tmp_path / 'tr'}"]) == 0
    finally:
        tracer.uninstall()
    assert (cli.train, model.gru_cell, model.TrajectoryModel.forward_batch, data.read_scene) == originals
    metrics = spans.layer_metrics(tracer, steps=3, test_samples=1, wall_s=1.0)
    # 2 agents x 19 history steps x 2 encoder layers + 2 decoder steps x 3 layers
    assert metrics["model.gru_cell_calls_per_step"] == 2 * 19 * 2 + 2 * 3
    assert metrics["autodiff.graph_nodes_per_step"] > 0
    assert metrics["data.build_scene_calls"] == 0
    assert metrics["model.train_step_ms.p50"] > 0
    names = [name for name, *_ in tracer.spans]
    assert names.count("cli.generate") == 1 and names.count("autodiff.backward") == 3
