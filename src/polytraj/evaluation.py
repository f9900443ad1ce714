"""Displacement metrics and batched least-squares polynomial fitting.

RMSE and ADE are over the joint 2-D Euclidean displacement at each frame
offset.  `fit_polynomials` fits many series through the same time points
with one solve of their shared Vandermonde system (with a constant term,
unlike the prediction head, because fitted coordinate outputs need not
pass through the origin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Samples, future_at
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


def predict_chunked(model, samples: Samples, offsets) -> np.ndarray:
    """`model.predict_positions` on chunks of EVAL_CHUNK samples, shape
    (n_samples, n_offsets, 2)."""
    return np.concatenate([
        model.predict_positions(samples[start : start + EVAL_CHUNK], offsets)
        for start in range(0, len(samples), EVAL_CHUNK)
    ])


def displacement(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Euclidean distance between (..., 2) predicted and true positions."""
    return np.hypot(pred[..., 0] - truth[..., 0], pred[..., 1] - truth[..., 1])


def displacement_errors(model, samples: Samples, offsets: Sequence[int]) -> np.ndarray:
    """Euclidean displacement per sample per offset, shape (n_samples, n_offsets)."""
    if not samples:
        raise DataError("empty test set")
    offsets = np.asarray([int(t) for t in offsets], dtype=np.int64)
    truth = future_at(samples, offsets)
    return displacement(predict_chunked(model, samples, offsets), truth)


def rmse_at_offsets(model, samples: Samples, offsets: Sequence[int] = RMSE_OFFSETS) -> EvalReport:
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
    )


def fit_polynomials(t, series, degree: int) -> np.ndarray:
    """Ordinary least squares of each column of `series` (points, K) on the
    times `t` (points,): coefficients [c_0 .. c_D] as a (degree + 1, K)
    matrix, for `np.polynomial.polynomial.polyval`.

    Needs at least degree + 1 points with distinct t values, otherwise the
    system is rank deficient.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.size < degree + 1:
        raise DataError(f"need at least {degree + 1} points for degree {degree}, got {t.size}")
    vandermonde = t[:, np.newaxis] ** np.arange(degree + 1, dtype=np.float64)
    coeffs, _, rank, _ = np.linalg.lstsq(vandermonde, np.asarray(series, dtype=np.float64), rcond=None)
    if rank < degree + 1:
        raise DataError(
            f"rank-deficient fit: rank {rank} < {degree + 1} unknowns (duplicate t values?)"
        )
    return coeffs
