"""Displacement metrics and least-squares polynomial fitting.

RMSE and ADE are over the joint 2-D Euclidean displacement at each frame
offset.  The least-squares fit solves the Vandermonde system directly
(with a constant term, unlike the prediction head, because fitted
coordinate outputs need not pass through the origin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Sample, future_at
from .errors import DataError, NumericalError

RMSE_OFFSETS = (10, 20, 30, 40, 50)  # 1..5 s at 10 Hz

EVAL_CHUNK = 64
"""Samples per batched prediction: one forward pass each, bounded memory."""


@dataclass(frozen=True)
class EvalReport:
    """Per-offset error aggregates for one model on one test set."""

    rmse_offsets: tuple[int, ...]
    rmse: np.ndarray
    ade_curve: np.ndarray  # mean displacement at each offset
    sample_count: int
    fingerprint: str = ""


@dataclass(frozen=True)
class FitResult:
    """Least-squares polynomial: coefficients [c_0 .. c_D], residual norm."""

    coefficients: np.ndarray
    residual: float

    def __call__(self, t):
        return np.polynomial.polynomial.polyval(t, self.coefficients)


def displacement_errors(model, samples: Sequence[Sample], offsets: Sequence[int]) -> np.ndarray:
    """Euclidean displacement per sample per offset, shape (n_samples, n_offsets).

    `model.predict_positions` runs on chunks of EVAL_CHUNK samples.
    """
    if not samples:
        raise DataError("empty test set")
    offsets = np.asarray([int(t) for t in offsets], dtype=np.int64)
    truth = future_at(samples, offsets)
    pred = np.concatenate([
        model.predict_positions(samples[start : start + EVAL_CHUNK], offsets)
        for start in range(0, len(samples), EVAL_CHUNK)
    ])
    return np.hypot(pred[:, :, 0] - truth[:, :, 0], pred[:, :, 1] - truth[:, :, 1])


def rmse_at_offsets(
    model,
    samples: Sequence[Sample],
    offsets: Sequence[int] = RMSE_OFFSETS,
    fingerprint: str = "",
) -> EvalReport:
    """Per-offset root-mean-square Euclidean displacement over the test set;
    a non-finite RMSE or ADE, as an error too large to square, is a
    NumericalError."""
    errors = displacement_errors(model, samples, offsets)
    with np.errstate(all="ignore"):  # a non-finite result raises below
        rmse, ade_curve = np.sqrt(np.mean(errors**2, axis=0)), errors.mean(axis=0)
    bad = ~(np.isfinite(rmse) & np.isfinite(ade_curve))
    if bad.any():
        raise NumericalError(f"non-finite RMSE or ADE at offset(s) {np.asarray(offsets)[bad].tolist()}")
    return EvalReport(
        rmse_offsets=tuple(int(t) for t in offsets),
        rmse=rmse,
        ade_curve=ade_curve,
        sample_count=len(samples),
        fingerprint=fingerprint,
    )


def least_squares_fit(points, degree: int) -> FitResult:
    """Ordinary least squares on the Vandermonde system.

    `points` is a sequence of (t, value) pairs; needs at least degree + 1
    points with distinct t values, otherwise the system is rank deficient.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DataError(f"points must be (n, 2) pairs of (t, value), got {pts.shape}")
    degree = int(degree)
    if degree < 0:
        raise DataError(f"degree must be >= 0, got {degree}")
    if pts.shape[0] < degree + 1:
        raise DataError(f"need at least {degree + 1} points for degree {degree}, got {pts.shape[0]}")
    t = pts[:, 0]
    vandermonde = t[:, np.newaxis] ** np.arange(degree + 1, dtype=np.float64)
    coeffs, _, rank, _ = np.linalg.lstsq(vandermonde, pts[:, 1], rcond=None)
    if rank < degree + 1:
        raise DataError(
            f"rank-deficient fit: rank {rank} < {degree + 1} unknowns (duplicate t values?)"
        )
    residual = float(np.linalg.norm(vandermonde @ coeffs - pts[:, 1]))
    return FitResult(coefficients=coeffs, residual=residual)
