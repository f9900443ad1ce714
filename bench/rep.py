"""One repetition of a workload, in this process: some or all of the
commands generate -> train -> eval.

`run.py` starts this script in a fresh interpreter with BLAS pinned to one
thread.  It drives `polytraj.cli.main` in-process with the speed probe
running (not in traced repetitions), checks the outputs, and prints one
JSON record as the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def _sets(pairs) -> list[str]:
    return [arg for pair in pairs for arg in ("--set", pair)]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _only(directory: Path, pattern: str) -> Path:
    matches = sorted(directory.glob(pattern))
    if len(matches) != 1:
        raise FileNotFoundError(f"expected one {pattern} in {directory}, found {len(matches)}")
    return matches[0]


def _csv_values(path: Path, column: int) -> tuple[list[list[str]], list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return rows, [float(row[column]) for row in rows]


def environment() -> dict:
    """numpy and BLAS build, BLAS threads, Python, gc state and cores."""
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(np),
        "python": platform.python_version(),
        "gc_enabled": gc.isenabled(),
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", ""),
    }


def _blas_threads(np) -> int | None:
    """Threads of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


COMMANDS = ("generate", "train", "eval")


def run(workload_name: str, seed: int, work: Path, inputs: Path, ngsim_csv: str, trace: bool,
        commands: list[str]) -> dict:
    """Run some of the pipeline's commands, in order, and check their outputs.

    A command writes under `work`; `train` and `eval` read what an earlier
    command wrote, under `work` if it ran here, else under `inputs`.
    """
    workload = WORKLOADS[workload_name]
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> bool:
        checks.append((name, bool(ok), detail))
        return bool(ok)

    start, start_cpu = time.perf_counter(), time.process_time()
    from polytraj import cli

    import_s, import_cpu_s = time.perf_counter() - start, time.process_time() - start_cpu
    import probe  # after the timed import, which its own set-up would inflate

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    base = [*workload.overrides, f"run.seed={seed}"]
    if workload.ngsim:
        base.append(f"data.ngsim_csv={ngsim_csv}")
    data_dir = (work if "generate" in commands else inputs) / "data"
    train_dir = (work if "train" in commands else inputs) / "train"
    eval_dir = work / "eval"
    argvs = {
        "generate": ["generate", *_sets(base + [f"out.dir={data_dir}"])],
        "train": ["train", *_sets(base + [f"data.dir={data_dir}", f"out.dir={train_dir}"])],
        "eval": ["eval", "--checkpoint", str(train_dir / "checkpoint.txt"),
                 *_sets(base + [f"data.dir={data_dir}", f"out.dir={eval_dir}"])],
    }
    seconds: dict[str, float] = {}
    cpu_seconds: dict[str, float] = {}
    probes: dict[str, list[float]] = {}
    printed: dict[str, str] = {}
    # no probe in traced runs: its time would land in the spans
    speed = contextlib.nullcontext() if trace else probe.SpeedProbe()
    for name in commands:
        buffer = io.StringIO()
        t, t_cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(buffer), speed:
            code = cli.main(argvs[name])
        seconds[name] = time.perf_counter() - t
        cpu_seconds[name] = time.process_time() - t_cpu
        probes[name] = [] if trace else speed.samples
        printed[name] = buffer.getvalue()
        if not check(f"{name} exits 0", code == 0, f"exit code {code}"):
            break
    if tracer is not None:
        tracer.uninstall()
    record = {
        "import_s": import_s,
        "import_cpu_s": import_cpu_s,
        "seconds": seconds,
        "cpu_seconds": cpu_seconds,
        "probe_s": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if all(ok for _, ok, _ in checks):
        try:
            if "generate" in commands:
                _check_manifest(data_dir, check)
            if "train" in commands:
                record.update(_check_loss(workload, train_dir, check))
            if "eval" in commands:
                record.update(_check_eval(_split(data_dir)["test"], eval_dir, printed["eval"], check))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            check("outputs are readable", False, repr(exc))
        if tracer is not None and "test_samples" in record:
            record["layers"] = spans.layer_metrics(
                tracer, workload.train_steps, record["test_samples"], sum(seconds.values())
            )
    record["checks"] = checks
    return record


def _split(data_dir: Path) -> dict[str, int]:
    return {name: len(list((data_dir / name).glob("scene_*.csv"))) for name in ("train", "test")}


def _check_manifest(data_dir: Path, check) -> None:
    manifest = json.loads((data_dir / "manifest.json").read_text())["scenes"]
    split = _split(data_dir)
    check("manifest scene counts match the split",
          manifest == {**split, "total": split["train"] + split["test"]}, f"{manifest} vs {split}")


def _check_loss(workload, train_dir: Path, check) -> dict:
    """Checks on the loss CSV; returns its final loss and digest."""
    out: dict = {}
    loss_path = _only(train_dir, "loss_*.csv")
    _, losses = _csv_values(loss_path, 1)
    finite = all(math.isfinite(v) for v in losses)
    check("loss CSV has train.steps finite rows", len(losses) == workload.train_steps and finite,
          f"{len(losses)} rows, finite={finite}")
    if workload.train_steps:
        first, last = losses[:10], losses[-10:]
        out["train_loss_final"] = sum(last) / len(last)
        check("loss falls: mean of last 10 rows < mean of first 10",
              out["train_loss_final"] < sum(first) / len(first),
              f"{out['train_loss_final']} vs {sum(first) / len(first)}")
    out["loss_sha256"] = _digest(loss_path)
    return out


def _check_eval(test_scenes: int, eval_dir: Path, eval_out: str, check) -> dict:
    """Checks on the eval CSV; returns its sample count, RMSE at 5 s and digest."""
    out: dict = {}
    eval_path = _only(eval_dir, "eval_*.csv")
    rows, values = _csv_values(eval_path, 2)
    check("eval CSV is finite", values and all(math.isfinite(v) for v in values))
    rmse_5s = [float(r[2]) for r in rows if r[0] == "rmse" and r[1] == "50"]
    if rmse_5s:
        out["eval_rmse_5s_m"] = rmse_5s[0]
    found = re.search(r"^samples: (\d+)$", eval_out, re.MULTILINE)
    samples = int(found.group(1)) if found else -1
    if check("eval samples equal the test split", samples == test_scenes,
             f"{samples} vs {test_scenes}"):
        out["test_samples"] = samples
    out["eval_sha256"] = _digest(eval_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="empty directory for this repetition's outputs")
    parser.add_argument("--inputs", default="", help="outputs of an earlier full repetition")
    parser.add_argument("--commands", default=",".join(COMMANDS),
                        help="comma-separated, in pipeline order")
    parser.add_argument("--ngsim-csv", default="", help="input CSV of the ngsim workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    commands = args.commands.split(",")
    if commands != [c for c in COMMANDS if c in commands]:
        parser.error(f"--commands must be a subset of {','.join(COMMANDS)}, in that order")
    record = run(args.workload, args.seed, Path(args.work), Path(args.inputs), args.ngsim_csv,
                 bool(args.trace), commands)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
