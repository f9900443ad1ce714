"""The experimental studies: anchoring schemes, anchor counts, extrapolation,
and the five-second benchmark protocol.

Each study trains the models it needs from scratch (deterministically,
given the seed), evaluates ADE against frame offset on the test set, and
returns labelled curves ready for CSV/SVG emission.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .data import Sample
from .errors import DataError
from .evaluation import (
    RMSE_OFFSETS,
    EvalReport,
    displacement_errors,
    least_squares_fit,
    rmse_at_offsets,
)
from .model import (
    COORDINATES,
    POLYNOMIAL,
    ModelConfig,
    TrainSettings,
    TrajectoryModel,
    train,
)
from .report import Series, StudyReport

EXTRAPOLATION_TRAIN_HORIZON = 40
EXTRAPOLATION_EVAL_OFFSETS = tuple(range(2, 61, 2))  # 6 s at five points per second


def _fit_model(config: ModelConfig, train_samples: Sequence[Sample], settings: TrainSettings) -> TrajectoryModel:
    model = TrajectoryModel(config, seed=settings.seed)
    train(model, train_samples, settings)
    return model


def even_offsets(horizon: int) -> tuple[int, ...]:
    return tuple(range(2, horizon + 1, 2))


def anchoring_study(
    train_samples: Sequence[Sample],
    test_samples: Sequence[Sample],
    base: ModelConfig,
    settings: TrainSettings,
    fingerprint: str = "",
) -> StudyReport:
    """Fixed-2 vs fixed-25 vs random-2 anchoring, polynomial head.

    With horizon 50 the fixed-2 schedule lands on offsets 25 and 50; the
    evaluation grid is every even offset plus 25 so the trained offsets
    can be compared against the untrained ones.
    """
    configs = {
        "fixed-2": replace(base, head=POLYNOMIAL, anchor_mode="fixed", anchor_count=2),
        "fixed-25": replace(base, head=POLYNOMIAL, anchor_mode="fixed", anchor_count=25),
        "random-2": replace(
            base, head=POLYNOMIAL, anchor_mode="random", anchor_count=2, anchor_min=35, anchor_max=55
        ),
    }
    offsets = tuple(sorted(set(even_offsets(base.horizon)) | {25, 50}))
    report = StudyReport(name="anchoring", fingerprint=fingerprint, sample_count=len(test_samples))
    for label, config in configs.items():
        model = _fit_model(config, train_samples, settings)
        curve = displacement_errors(model, test_samples, offsets).mean(axis=0)
        report.series.append(Series(label, offsets, tuple(float(v) for v in curve)))
    return report


def anchor_count_study(
    train_samples: Sequence[Sample],
    test_samples: Sequence[Sample],
    base: ModelConfig,
    settings: TrainSettings,
    fingerprint: str = "",
) -> StudyReport:
    """Both heads trained with 5 and with 25 evenly spread anchors.

    Coordinate models are evaluated on their own offsets; polynomial
    models on the dense even grid (a superset of both anchor grids).
    """
    report = StudyReport(name="anchor_count", fingerprint=fingerprint, sample_count=len(test_samples))
    for head in (POLYNOMIAL, COORDINATES):
        for count in (25, 5):
            label = f"{'poly' if head == POLYNOMIAL else 'coord'}-{count}"
            config = replace(base, head=head, anchor_mode="fixed", anchor_count=count)
            model = _fit_model(config, train_samples, settings)
            offsets = config.head_offsets if head == COORDINATES else even_offsets(base.horizon)
            curve = displacement_errors(model, test_samples, offsets).mean(axis=0)
            report.series.append(Series(label, tuple(offsets), tuple(float(v) for v in curve)))
    return report


def extrapolation_study(
    train_samples: Sequence[Sample],
    test_samples: Sequence[Sample],
    base: ModelConfig,
    settings: TrainSettings,
    fingerprint: str = "",
) -> StudyReport:
    """Train on four seconds with four anchors, evaluate out to six seconds.

    The polynomial model is evaluated directly at the extended offsets;
    the coordinate model's four predicted points are extended by least
    squares, once linear and once at the polynomial head's degree.  All
    three curves average over the same test samples: those whose future
    covers the six seconds, counted in the report's `sample_count`.
    """
    horizon = EXTRAPOLATION_TRAIN_HORIZON
    poly_cfg = replace(
        base,
        head=POLYNOMIAL,
        horizon=horizon,
        anchor_count=4,
        anchor_mode="random",
        # production range proportions (0.7 .. 1.1 of the horizon) scaled to 40
        anchor_min=28,
        anchor_max=44,
    )
    coord_cfg = replace(
        base, head=COORDINATES, horizon=horizon, anchor_count=4, anchor_mode="fixed"
    )
    poly_model = _fit_model(poly_cfg, train_samples, settings)
    coord_model = _fit_model(coord_cfg, train_samples, settings)

    offsets = np.asarray(EXTRAPOLATION_EVAL_OFFSETS, dtype=np.int64)
    kept = [s for s in test_samples if s.future.shape[0] - 1 >= int(offsets.max())]
    if not kept:
        raise DataError("no test sample covers the six-second evaluation span")
    poly_curve = displacement_errors(poly_model, kept, offsets).mean(axis=0)

    anchor_offsets = np.asarray(coord_cfg.head_offsets, dtype=np.float64)
    degrees = (1, base.d_x)
    fit_errors = {d: np.zeros((len(kept), offsets.size)) for d in degrees}
    points = coord_model.predict_positions(kept, coord_cfg.head_offsets)
    for i, sample in enumerate(kept):
        truth = sample.future[offsets]
        for degree in degrees:
            fit_x = least_squares_fit(np.stack([anchor_offsets, points[i, :, 0]], axis=1), degree)
            fit_y = least_squares_fit(np.stack([anchor_offsets, points[i, :, 1]], axis=1), degree)
            pred = np.stack([fit_x(offsets.astype(np.float64)), fit_y(offsets.astype(np.float64))], axis=1)
            fit_errors[degree][i] = np.hypot(pred[:, 0] - truth[:, 0], pred[:, 1] - truth[:, 1])

    report = StudyReport(name="extrapolation", fingerprint=fingerprint, sample_count=len(kept))
    report.series.append(Series("poly", tuple(int(t) for t in offsets), tuple(float(v) for v in poly_curve)))
    for degree in degrees:
        curve = fit_errors[degree].mean(axis=0)
        report.series.append(
            Series(
                f"coord-fit-deg{degree}",
                tuple(int(t) for t in offsets),
                tuple(float(v) for v in curve),
            )
        )
    return report


def table1_protocol(
    train_samples: Sequence[Sample],
    test_samples: Sequence[Sample],
    base: ModelConfig,
    settings: TrainSettings,
    fingerprint: str = "",
) -> dict[str, EvalReport]:
    """The five-second benchmark: production polynomial model (25 random
    anchors over U{35, 55}) against the 25-fixed-anchor coordinate baseline,
    both reported as per-offset RMSE at 1..5 s."""
    poly_cfg = replace(
        base,
        head=POLYNOMIAL,
        horizon=50,
        anchor_count=25,
        anchor_mode="random",
        anchor_min=35,
        anchor_max=55,
    )
    coord_cfg = replace(base, head=COORDINATES, horizon=50, anchor_count=25, anchor_mode="fixed")
    reports = {}
    for label, config in (("Poly (ours)", poly_cfg), ("Coords baseline", coord_cfg)):
        model = _fit_model(config, train_samples, settings)
        reports[label] = rmse_at_offsets(model, test_samples, RMSE_OFFSETS, fingerprint=fingerprint)
    return reports
