"""The benchmark's workloads: CLI overrides and the reason each exists.

Every workload runs the same pipeline, `generate` -> `train` -> `eval`,
through `polytraj.cli.main`; only the config overrides differ.  The
workload seed becomes `run.seed`, and for `ngsim_prep` it also seeds the
generated NGSim-format CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

TRAIN_STEPS = 20  # two disjoint 10-row windows for the loss-decrease check
TRAIN_BATCH = 32
NGSIM_VEHICLES = 80
NGSIM_FRAMES = 600


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple[str, ...]
    train_steps: int  # rows the loss CSV must hold
    why: str
    ngsim: bool = False


# 128 train scenes make every batch a full one; 128 test scenes give eval a
# longer window to measure than the default 50
_SYNTHETIC = ("data.source=synthetic", "synthetic.kind=mixed", "synthetic.n=256",
              "synthetic.test_fraction=0.5", f"train.batch={TRAIN_BATCH}", f"train.steps={TRAIN_STEPS}")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solo_train",
            _SYNTHETIC + ("synthetic.neighbors=0",),
            TRAIN_STEPS,
            "1 agent: small 32-unit GRU ops in the autodiff graph dominate; no agent loop "
            "or attention, so agent-level optimisations should not move it",
        ),
        Workload(
            "crowd_train",
            _SYNTHETIC + ("synthetic.neighbors=4",),
            TRAIN_STEPS,
            "5 agents: the encoder runs 5 times, attention is on and cyclic gc takes a "
            "large share of each step; graph freeing and agent folding must show here",
        ),
        Workload(
            "ngsim_prep",
            ("data.source=ngsim", "train.epochs=0"),
            0,
            "NGSim-format ingest, build_scene, scene writes and reads, per-sample eval of "
            "9-agent scenes, no autodiff; tracks are gap-free as ingest_ngsim rejects any "
            "frame gap (known defect)",
            ngsim=True,
        ),
    )
}
