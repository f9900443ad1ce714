"""polytraj benchmark: one workload, repeated in fresh processes for a set time.

    python3 bench/run.py --workload crowd_train --seed 1 --seconds 40 --trace 0

Each repetition is a fresh single-threaded interpreter (`bench/rep.py`)
that runs commands of the pipeline `generate` -> `train` -> `eval` through
`polytraj.cli.main`, as a user runs each command in a process of its own.
The first repetition runs the whole pipeline; later ones run one command
each on its outputs, the command with the least measured time so far,
until `--seconds` have passed.  The end-to-end metrics are medians per
command; their times are CPU seconds rescaled to a fixed host speed by the
speed probe (`bench/probe.py`), and the wall-clock figures are printed
beside them.  With `--trace 1` whole plain and traced pipelines alternate;
the per-layer metrics are medians over the traced ones, and
`trace.overhead_frac` compares the two kinds.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it are a
readable table, the environment, and the sha256 of the loss and eval CSVs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ngsim_gen
import probe
from workloads import NGSIM_FRAMES, NGSIM_VEHICLES, TRAIN_BATCH, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ".bench_work"
COMMANDS = ("generate", "train", "eval")
MIN_SETUPS = 2
# shares of a run's time for single commands: `generate` has half, as its
# figure is only one part of `pipeline_ref_s` and `setup_s`'s spread is not
# gated, while `train` and `eval` each set a gated metric of their own
SHARE = {"generate": 0.5, "train": 1.0, "eval": 1.0}
HARD_LIMIT_S = 150.0  # start no repetition expected to end later than this
DEADLINE_S = 165.0  # stop a repetition still running this long after the start

# Gated.  Times are the CPU seconds of a command, without the speed probes,
# rescaled to the probe's nominal speed (`probe.py`); the host's speed
# drifts by tens of percent, in CPU time as in wall time, and the probe
# drifts with it.  `peak_rss_mb` is the maximum RSS of one process that
# runs the whole pipeline.
END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_ref_s", "s"),
    ("train_ref_s", "s"),
    ("eval_samples_per_ref_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# printed, not gated: wall-clock figures (probes taken out), the probe's own
# time, and figures that are exact per seed but spread by the seed's data
PRINTED = (
    ("setup_wall_s", "s"),
    ("pipeline_s", "s"),
    ("train_s", "s"),
    ("eval_samples_per_s", "1/s"),
    ("train_samples_per_s", "1/s"),
    ("probe_ms", "ms"),
    ("train_loss_final", "nll"),
    ("eval_rmse_5s_m", "m"),
)
PER_LAYER = (
    ("runtime.gc_pause_ms_per_step", "ms"),
    ("runtime.gc_collections_per_step", "count"),
    ("runtime.gc_pause_share", "fraction"),
    ("autodiff.graph_nodes_per_step", "count"),
    ("autodiff.backward_ms", "ms"),
    ("model.gru_cell_calls_per_step", "count"),
    ("model.forward_batch_ms", "ms"),
    ("model.collate_ms", "ms"),
    ("model.draw_schedules_ms", "ms"),
    ("model.batch_loss.self_ms", "ms"),
    ("model.train_step_ms.p50", "ms"),
    ("model.train_step_ms.p90", "ms"),
    ("autodiff.adam_step_ms", "ms"),
    ("autodiff.save_checkpoint_ms", "ms"),
    ("autodiff.load_checkpoint_ms", "ms"),
    ("evaluation.rmse_at_offsets_s", "s"),
    ("evaluation.per_sample_ms", "ms"),
    ("model.predict_positions_ms", "ms"),
    ("data.ingest_ngsim_s", "s"),
    ("data.build_scene_ms", "ms"),
    ("data.build_scene_calls", "count"),
    ("data.filter_straight_s", "s"),
    ("data.write_scene_ms", "ms"),
    ("data.gen_synthetic_s", "s"),
    ("data.read_scene_ms", "ms"),
    ("data.build_sample_ms", "ms"),
    ("cli.generate.self_s", "s"),
    ("cli.train.self_s", "s"),
    ("cli.eval.self_s", "s"),
    ("trace.overhead_frac", "fraction"),
)


def _child_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH", "")]))
    return env


def run_rep(workload: str, seed: int, work: Path, inputs: Path, ngsim_csv: str, trace: bool,
            commands: tuple[str, ...], timeout: float) -> dict:
    """One repetition in a fresh process; its record, or a failed stub."""
    shutil.rmtree(ROOT / work, ignore_errors=True)
    (ROOT / work).mkdir(parents=True)
    argv = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
            "--work", str(work), "--inputs", str(inputs), "--commands", ",".join(commands),
            "--ngsim-csv", ngsim_csv, "--trace", str(int(trace))]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"checks": [["repetition finishes in time", False, f"stopped after {timeout:.0f} s"]]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"checks": [["repetition exits 0", False, f"exit code {proc.returncode}"]]}
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def command_times(record: dict) -> dict[str, tuple[float, float]]:
    """Per command that ran: (rescaled CPU seconds, wall seconds), both without
    the probes.  The key "setup" is import plus `generate`, rescaled by the
    probes taken during `generate`."""
    out = {}
    for name, cpu in record["cpu_seconds"].items():
        samples = record["probe_s"][name]
        out[name] = (probe.rescale(cpu, samples), record["seconds"][name] - sum(samples))
    if "generate" in out:
        ref, wall = out["generate"]
        speed = probe.speed(record["probe_s"]["generate"])
        out["setup"] = (ref + record["import_cpu_s"] * speed, wall + record["import_s"])
    return out


def summarise(records: list[dict], workload) -> dict[str, float | None]:
    """End-to-end figures over the untraced repetitions: medians per command."""
    times: dict[str, list[tuple[float, float]]] = {}
    for record in records:
        for name, pair in command_times(record).items():
            times.setdefault(name, []).append(pair)

    def med(name: str, which: int) -> float:
        return statistics.median(pair[which] for pair in times[name])

    full = records[0]  # the first repetition runs the whole pipeline
    samples = full["test_samples"]
    out = {
        "setup_s": med("setup", 0),
        "pipeline_ref_s": sum(med(name, 0) for name in COMMANDS),
        "train_ref_s": med("train", 0),
        "eval_samples_per_ref_s": samples / med("eval", 0),
        "peak_rss_mb": full["peak_rss_mb"],
        "setup_wall_s": med("setup", 1),
        "pipeline_s": sum(med(name, 1) for name in COMMANDS),
        "train_s": med("train", 1),
        "eval_samples_per_s": samples / med("eval", 1),
        "train_samples_per_s": None,
        "probe_ms": 1000 * statistics.median(
            x for r in records for v in r["probe_s"].values() for x in v),
        "train_loss_final": full.get("train_loss_final"),
        "eval_rmse_5s_m": full["eval_rmse_5s_m"],
    }
    if workload.train_steps:
        out["train_samples_per_s"] = workload.train_steps * TRAIN_BATCH / out["train_s"]
    return out


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills the running repetition, finally cleans up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "polytraj" / "cli.py").is_file():
        print(f"error: no polytraj source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    work = Path(WORK) / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(ROOT / work, ignore_errors=True)
    (ROOT / work).mkdir(parents=True)
    try:
        return _measure(args, workload, trace, work)
    finally:
        shutil.rmtree(ROOT / work, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while another run uses it
            (ROOT / WORK).rmdir()


def _measure(args, workload, trace: bool, work: Path) -> int:
    ngsim_csv = ""
    if workload.ngsim:
        ngsim_csv = str(work / "ngsim.csv")
        ngsim_gen.write_csv(ROOT / ngsim_csv, args.seed, NGSIM_VEHICLES, NGSIM_FRAMES)
    # warm-up: byte-compile and page in the package before anything is timed
    subprocess.run([sys.executable, "-c", "import polytraj.cli"], cwd=ROOT, env=_child_env(),
                   capture_output=True, timeout=HARD_LIMIT_S)

    begin = time.perf_counter()
    first, rest = work / "first", work / "rep"
    records: list[tuple[bool, dict]] = []  # (traced, record)
    durations: dict[tuple, list[float]] = {}  # wall time of each kind of repetition

    def fits(commands: tuple) -> bool:
        if commands in durations:
            expected = statistics.median(durations[commands])
        else:  # a command not yet run alone: its time in the first repetition
            expected = sum(records[0][1]["seconds"][name] for name in commands)
        ends = time.perf_counter() - begin + expected
        return ends <= min(args.seconds, HARD_LIMIT_S)

    def rep(commands: tuple, traced: bool = False) -> dict:
        t = time.perf_counter()
        out = work / "traced" if traced else (first if not records else rest)
        record = run_rep(args.workload, args.seed, out, first, ngsim_csv, traced, commands,
                         max(1.0, begin + DEADLINE_S - t))
        durations.setdefault(commands, []).append(time.perf_counter() - t)
        records.append((traced, record))
        return record

    # The first repetition runs the whole pipeline, and later ones read its
    # outputs.  Traced runs alternate whole plain and traced pipelines.  Plain
    # runs then start single commands, each time the one with the least
    # measured time so far relative to its SHARE.
    if all(ok for _, ok, _ in rep(COMMANDS)["checks"]):
        if trace:
            while len(records) < 2 or fits(COMMANDS):  # at least one traced
                rep(COMMANDS, traced=len(records) % 2 == 1)
        else:
            spent = {name: 0.0 for name in COMMANDS}
            while True:
                for _, record in records[-1:]:
                    for name, seconds in record.get("seconds", {}).items():
                        spent[name] += seconds
                setups = sum(1 for _, r in records if "generate" in r.get("seconds", {}))
                candidates = [(name,) for name in COMMANDS if fits((name,))]
                if setups < MIN_SETUPS and (time.perf_counter() - begin) < HARD_LIMIT_S / 2:
                    candidates = [("generate",)]
                if not candidates:
                    break
                rep(min(candidates, key=lambda c: spent[c[0]] / SHARE[c[0]]))

    attempted = failed = 0
    for _, record in records:
        attempted += len(record["checks"])
        failed += sum(1 for _, ok, _ in record["checks"] if not ok)
        for name, ok, detail in record["checks"]:
            if not ok:
                print(f"FAILED: {name}: {detail}", file=sys.stderr)
    for key in ("loss_sha256", "eval_sha256"):
        digests = [r[key] for _, r in records if key in r]
        attempted += len(digests) - 1
        failed += sum(d != digests[0] for d in digests[1:])
        if len(set(digests)) > 1:
            print(f"FAILED: reruns gave different {key}: {digests}", file=sys.stderr)

    ok = [(t, r) for t, r in records if all(good for _, good, _ in r["checks"])]
    plain = [r for t, r in ok if not t]
    traced = [r for t, r in ok if t and "layers" in r]
    if not ok or ok[0][1] is not records[0][1] or (trace and not traced):
        print("error: no repetition completed", file=sys.stderr)
        return 1
    summary = summarise(plain, workload)
    summary["ops_attempted"] = attempted
    summary["ops_failed_frac"] = failed / attempted

    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name, _ in PER_LAYER if name != "trace.overhead_frac"}
        traced_pipeline = statistics.median(sum(r["seconds"].values()) for r in traced)
        layers["trace.overhead_frac"] = traced_pipeline / summary["pipeline_s"] - 1.0
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}

    units = dict(END_TO_END + PRINTED, ops_attempted="count", ops_failed_frac="fraction")
    counts = {name: sum(1 for r in plain if name in r["seconds"]) for name in COMMANDS}
    print(f"workload {args.workload}  seed {args.seed}  medians over untraced repetitions; samples "
          + " ".join(f"{name} {n}" for name, n in counts.items())
          + (f"; {len(traced)} traced pipelines" if trace else ""))
    for name, value in summary.items():
        if value is not None:
            print(f"  {name:<34} {value:>14.6g} {units[name]}")
    if trace:
        for name, unit in PER_LAYER:
            note = ""
            if name == "runtime.gc_pause_share" and summary["train_samples_per_s"] is not None:
                note = f"   (untraced train_samples_per_s {summary['train_samples_per_s']:.6g})"
            print(f"  {name:<34} {layers[name]:>14.6g} {unit}{note}")
    first_record = records[0][1]
    print("environment: " + json.dumps({**first_record["env"], "git_commit": git_commit(),
                                         "workload": args.workload, "seed": args.seed,
                                         "why": workload.why}, sort_keys=True))
    print("digests: " + json.dumps({"loss_csv_sha256": first_record["loss_sha256"],
                                    "eval_csv_sha256": first_record["eval_sha256"]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
