"""The experimental studies: anchoring schemes, anchor counts, extrapolation,
and the five-second benchmark protocol.

Each study trains the models it needs from scratch (deterministically,
given the seed) and evaluates them on the test set: the first three
return ADE-against-offset curves as a `StudyReport`, `table1_protocol`
returns one RMSE `EvalReport` per head.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import Samples, future_at
from .errors import ConfigError, DataError
from .evaluation import (
    RMSE_OFFSETS,
    EvalReport,
    displacement,
    displacement_errors,
    fit_polynomials,
    predict_chunked,
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
EXTRAPOLATION_ANCHORS = 4  # also the coordinate head's points that the fits go through
EXTRAPOLATION_EVAL_OFFSETS = tuple(range(2, 61, 2))  # 6 s at five points per second


def _fit_model(config: ModelConfig, train_samples: Samples, settings: TrainSettings) -> TrajectoryModel:
    model = TrajectoryModel(config, seed=settings.seed)
    train(model, train_samples, settings)
    return model


def _series(label: str, offsets, errors: np.ndarray) -> Series:
    """The curve of mean displacement per offset over the samples (rows) of `errors`."""
    return Series(label, tuple(int(t) for t in offsets), tuple(float(v) for v in errors.mean(axis=0)))


def even_offsets(horizon: int) -> tuple[int, ...]:
    return tuple(range(2, horizon + 1, 2))


def anchoring_study(
    train_samples: Samples,
    test_samples: Samples,
    base: ModelConfig,
    settings: TrainSettings,
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
    series = []
    for label, config in configs.items():
        model = _fit_model(config, train_samples, settings)
        series.append(_series(label, offsets, displacement_errors(model, test_samples, offsets)))
    return StudyReport(series, len(test_samples))


def anchor_count_study(
    train_samples: Samples,
    test_samples: Samples,
    base: ModelConfig,
    settings: TrainSettings,
) -> StudyReport:
    """Both heads trained with 5 and with 25 evenly spread anchors.

    Coordinate models are evaluated on their own offsets; polynomial
    models on the dense even grid (a superset of both anchor grids).
    """
    series = []
    for head in (POLYNOMIAL, COORDINATES):
        for count in (25, 5):
            label = f"{'poly' if head == POLYNOMIAL else 'coord'}-{count}"
            config = replace(base, head=head, anchor_mode="fixed", anchor_count=count)
            model = _fit_model(config, train_samples, settings)
            offsets = config.head_offsets if head == COORDINATES else even_offsets(base.horizon)
            series.append(_series(label, offsets, displacement_errors(model, test_samples, offsets)))
    return StudyReport(series, len(test_samples))


def extrapolation_study(
    train_samples: Samples,
    test_samples: Samples,
    base: ModelConfig,
    settings: TrainSettings,
) -> StudyReport:
    """Train on four seconds with four anchors, evaluate out to six seconds.

    The polynomial model is evaluated directly at the extended offsets;
    the coordinate model's four predicted points are extended by least
    squares, once linear and once at the polynomial head's degree (one
    curve when that degree is 1), with one batched fit of every sample's x
    and y per degree.  All curves average over the same test samples:
    those whose future covers the six seconds, counted in the report's
    `sample_count`.
    """
    if base.d_x >= EXTRAPOLATION_ANCHORS:
        raise ConfigError(
            f"model.d_x={base.d_x} needs {base.d_x + 1} points, but the extrapolation study fits the "
            f"coordinate head's {EXTRAPOLATION_ANCHORS}; use model.d_x <= {EXTRAPOLATION_ANCHORS - 1}"
        )
    offsets = np.asarray(EXTRAPOLATION_EVAL_OFFSETS, dtype=np.int64)
    kept = test_samples[test_samples.horizons >= offsets.max()]
    if not len(kept):
        raise DataError("no test sample covers the six-second evaluation span")
    horizon = EXTRAPOLATION_TRAIN_HORIZON
    poly_cfg = replace(
        base,
        head=POLYNOMIAL,
        horizon=horizon,
        anchor_count=EXTRAPOLATION_ANCHORS,
        anchor_mode="random",
        # production range proportions (0.7 .. 1.1 of the horizon) scaled to 40
        anchor_min=28,
        anchor_max=44,
    )
    coord_cfg = replace(
        base, head=COORDINATES, horizon=horizon, anchor_count=EXTRAPOLATION_ANCHORS, anchor_mode="fixed"
    )
    poly_model = _fit_model(poly_cfg, train_samples, settings)
    coord_model = _fit_model(coord_cfg, train_samples, settings)

    truth = future_at(kept, offsets)
    series = [_series("poly", offsets, displacement(predict_chunked(poly_model, kept, offsets), truth))]
    points = predict_chunked(coord_model, kept, coord_cfg.head_offsets)
    columns = np.moveaxis(points, 1, 0).reshape(EXTRAPOLATION_ANCHORS, -1)  # one per sample and axis
    for degree in dict.fromkeys((1, base.d_x)):  # one linear curve when the head's degree is 1
        coeffs = fit_polynomials(coord_cfg.head_offsets, columns, degree)
        fitted = np.polynomial.polynomial.polyval(offsets.astype(np.float64), coeffs)
        pred = np.moveaxis(fitted.reshape(len(kept), 2, -1), 1, 2)
        series.append(_series(f"coord-fit-deg{degree}", offsets, displacement(pred, truth)))
    return StudyReport(series, len(kept))


def table1_protocol(
    train_samples: Samples,
    test_samples: Samples,
    base: ModelConfig,
    settings: TrainSettings,
) -> dict[str, EvalReport]:
    """The five-second benchmark: production polynomial model (25 random
    anchors over U{35, 55}) against the 25-fixed-anchor coordinate baseline,
    both reported as per-offset RMSE at 1..5 s, keyed by `model.head`."""
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
    for config in (poly_cfg, coord_cfg):
        model = _fit_model(config, train_samples, settings)
        reports[config.head] = rmse_at_offsets(model, test_samples, RMSE_OFFSETS)
    return reports
