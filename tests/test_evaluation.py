"""Tests for metrics, least-squares fitting, and report emission."""

import numpy as np
import pytest
from conftest import sample_rows, samples_of

from polytraj.errors import DataError
from polytraj.evaluation import (
    EvalReport,
    displacement_errors,
    fit_polynomials,
    rmse_at_offsets,
)
from polytraj.report import (
    Series,
    StudyReport,
    format_summary_table,
    write_study_csv,
    write_svg_chart,
)

# -- stub predictors -----------------------------------------------------------------


class _OffsetPredictor:
    """Predicts the truth shifted by a per-sample deterministic offset."""

    def __init__(self, shifts):
        self.shifts = shifts

    def predict_positions(self, samples, offsets):
        offsets = np.asarray(offsets, dtype=int)
        return samples.future[:, offsets] + self.shifts[samples.sample_ids, np.newaxis]


def _rows_with_futures(rng, n, horizon=55):
    rows = []
    for i in range(n):
        future = np.cumsum(rng.normal(0, 0.5, size=(horizon + 1, 2)), axis=0)
        future[0] = 0.0
        rows.append((np.zeros((1, 3, 7)), np.ones((1, 3)), future, i))
    return rows


def _samples_with_futures(rng, n, horizon=55):
    return samples_of(_rows_with_futures(rng, n, horizon))


# -- ade: the mean over samples of `displacement_errors` --------------------------


def _ade(shifts, samples, offsets=(10, 20, 30)):
    return displacement_errors(_OffsetPredictor(np.asarray(shifts, dtype=float)), samples, offsets).mean(axis=0)


def test_ade_identical_sequences_is_zero(rng):
    samples = _samples_with_futures(rng, 2)
    assert _ade(np.zeros((2, 2)), samples).tolist() == [0.0, 0.0, 0.0]


def test_ade_constant_offset(rng):
    samples = _samples_with_futures(rng, 3)
    np.testing.assert_allclose(_ade([[1.0, 0.0]] * 3, samples), 1.0)


def test_ade_three_four_five(rng):
    samples = _samples_with_futures(rng, 1)
    np.testing.assert_allclose(_ade([[3.0, 4.0]], samples, (10,)), [5.0])


def test_ade_rejects_length_mismatch(rng):
    rows = _rows_with_futures(rng, 2)
    rows[1] = (*rows[1][:2], rows[1][2][:21], rows[1][3])  # shorter than the offsets
    samples = samples_of(rows)
    with pytest.raises(DataError, match="sample 1: offset 30 beyond available future of 20 frames"):
        _ade(np.zeros((2, 2)), samples)


def test_perfect_predictor_gives_zero_rmse(rng):
    samples = _samples_with_futures(rng, 5)
    model = _OffsetPredictor(np.zeros((5, 2)))
    report = rmse_at_offsets(model, samples, (10, 20, 30))
    np.testing.assert_array_equal(report.rmse, np.zeros(3))
    assert report.sample_count == 5


def test_single_sample_single_offset_equals_displacement(rng):
    samples = _samples_with_futures(rng, 1)
    model = _OffsetPredictor(np.array([[3.0, 4.0]]))
    report = rmse_at_offsets(model, samples, (20,))
    assert report.rmse[0] == pytest.approx(5.0)
    assert report.ade_curve[0] == pytest.approx(5.0)


def test_rmse_matches_brute_force_oracle(rng):
    samples = _samples_with_futures(rng, 7)
    shifts = rng.normal(0, 1, size=(7, 2))
    model = _OffsetPredictor(shifts)
    offsets = (5, 17, 40)
    report = rmse_at_offsets(model, samples, offsets)
    # oracle: explicit per-sample loop
    for j, offset in enumerate(offsets):
        squares = []
        displacements = []
        for sample in sample_rows(samples):
            pred = sample.future[offset] + shifts[sample.sample_id]
            dx = pred[0] - sample.future[offset][0]
            dy = pred[1] - sample.future[offset][1]
            squares.append(dx * dx + dy * dy)
            displacements.append((dx * dx + dy * dy) ** 0.5)
        assert report.rmse[j] == pytest.approx(float(np.sqrt(np.mean(squares))), abs=1e-12)
        assert report.ade_curve[j] == pytest.approx(float(np.mean(displacements)), abs=1e-12)


def test_empty_test_set_rejected():
    with pytest.raises(DataError):
        rmse_at_offsets(_OffsetPredictor(np.zeros((1, 2))), samples_of([]), (10,))


def test_offsets_beyond_future_rejected(rng):
    samples = _samples_with_futures(rng, 1, horizon=30)
    with pytest.raises(DataError):
        displacement_errors(_OffsetPredictor(np.zeros((1, 2))), samples, (40,))


# -- least squares ---------------------------------------------------------------------


def _fit(points, degree):
    """`fit_polynomials` of one series given as (t, value) pairs: its
    coefficients and the norm of its residual on the Vandermonde system."""
    t, y = np.asarray(points, dtype=np.float64).T
    coefficients = fit_polynomials(t, y[:, np.newaxis], degree)[:, 0]
    vandermonde = t[:, np.newaxis] ** np.arange(degree + 1, dtype=np.float64)
    return coefficients, float(np.linalg.norm(vandermonde @ coefficients - y))


def test_fit_exact_line():
    points = [(t, 2.0 * t) for t in range(5)]
    coefficients, residual = _fit(points, 1)
    np.testing.assert_allclose(coefficients, [0.0, 2.0], atol=1e-12)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_fit_exact_parabola_interpolation():
    points = [(t, float(t) ** 2) for t in (1, 2, 3)]
    coefficients, _ = _fit(points, 2)
    np.testing.assert_allclose(coefficients, [0.0, 0.0, 1.0], atol=1e-10)


def test_fit_matches_normal_equations_oracle(rng):
    t = rng.uniform(0, 10, size=12)
    y = 1.5 - 0.3 * t + rng.normal(0, 0.2, size=12)
    coefficients, _ = _fit(np.stack([t, y], axis=1), 1)
    # oracle: explicit normal equations solve
    vandermonde = np.stack([np.ones_like(t), t], axis=1)
    oracle = np.linalg.solve(vandermonde.T @ vandermonde, vandermonde.T @ y)
    np.testing.assert_allclose(coefficients, oracle, atol=1e-9)


def test_fit_rejects_duplicate_t():
    with pytest.raises(DataError, match="rank"):
        _fit([(1.0, 0.0), (1.0, 1.0), (1.0, 2.0)], 2)


def test_fit_rejects_too_few_points():
    with pytest.raises(DataError):
        _fit([(0.0, 0.0), (1.0, 1.0)], 2)


def test_fit_residual_monotone_in_degree(rng):
    t = np.arange(8, dtype=float)
    y = np.sin(t)
    points = np.stack([t, y], axis=1)
    residuals = [_fit(points, d)[1] for d in range(5)]
    for lower, higher in zip(residuals, residuals[1:]):
        assert higher <= lower + 1e-12


def test_fit_self_consistency_at_training_offsets(rng):
    t = np.array([10.0, 20.0, 30.0, 40.0])
    y = rng.normal(0, 5, size=4)
    coefficients, residual = _fit(np.stack([t, y], axis=1), 1)
    restricted = float(np.linalg.norm(np.polynomial.polynomial.polyval(t, coefficients) - y))
    assert restricted == pytest.approx(residual, abs=1e-12)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_batched_fit_equals_per_column_fits_bitwise(rng, degree):
    t = np.array([10.0, 20.0, 30.0, 40.0])  # the extrapolation study's coordinate offsets
    series = rng.normal(0, 20, size=(4, 400))
    batched = fit_polynomials(t, series, degree)
    assert batched.shape == (degree + 1, 400)
    for k in range(series.shape[1]):
        np.testing.assert_array_equal(batched[:, k], fit_polynomials(t, series[:, k : k + 1], degree)[:, 0])


# -- reports ----------------------------------------------------------------------------


def _report():
    return StudyReport(
        series=[
            Series("fixed-2", (2, 4, 25), (0.5, 0.4, 0.1)),
            Series("random-2", (2, 4, 25), (0.2, 0.25, 0.3)),
        ],
        sample_count=2,
    )


def test_study_csv_layout_and_determinism(tmp_path):
    report = _report()
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_study_csv(report, path_a)
    write_study_csv(report, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    lines = path_a.read_text().splitlines()
    assert lines[0] == "method,offset_frames,ade_m"
    assert lines[1] == "fixed-2,2,0.5"
    assert len(lines) == 7


def test_svg_chart_written_deterministically(tmp_path):
    report = _report()
    path_a = tmp_path / "a.svg"
    path_b = tmp_path / "b.svg"
    write_svg_chart(report.series, path_a, title="anchoring study")
    write_svg_chart(report.series, path_b, title="anchoring study")
    assert path_a.read_bytes() == path_b.read_bytes()
    text = path_a.read_text()
    assert text.startswith("<svg") or text.startswith("<?xml") or "<svg" in text
    assert "fixed-2" in text and "random-2" in text
    assert text.count("<polyline") == 2


def test_summary_table_layout():
    table = format_summary_table({"Poly (ours)": np.array([0.5, 0.9, 1.6, 2.6, 3.8])})
    lines = table.splitlines()
    assert lines[0].startswith("Offset (sec)")
    assert "Poly (ours)" in lines[0]
    assert "CS-LSTM (M) [ref]" in lines[0]
    assert "MFP-1 [ref]" in lines[0]
    assert lines[2].startswith("1")
    assert len(lines) == 7  # header, rule, five offsets
