"""Tests for metrics, least-squares fitting, and report emission."""

import numpy as np
import pytest

from polytraj.data import Sample
from polytraj.errors import DataError
from polytraj.evaluation import (
    EvalReport,
    ade,
    displacement_errors,
    least_squares_fit,
    rmse_at_offsets,
)
from polytraj.report import (
    Series,
    StudyReport,
    format_summary_table,
    write_study_csv,
    write_svg_chart,
)

# -- ade -----------------------------------------------------------------------


def test_ade_identical_sequences_is_zero():
    points = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert ade(points, points) == 0.0


def test_ade_constant_offset():
    truth = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    pred = truth + np.array([1.0, 0.0])
    assert ade(pred, truth) == pytest.approx(1.0)


def test_ade_three_four_five():
    assert ade(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]])) == pytest.approx(5.0)


def test_ade_rejects_length_mismatch():
    with pytest.raises(DataError):
        ade(np.zeros((2, 2)), np.zeros((3, 2)))


# -- stub predictors -----------------------------------------------------------------


class _OffsetPredictor:
    """Predicts the truth shifted by a per-sample deterministic offset."""

    def __init__(self, shifts):
        self.shifts = shifts

    def predict_positions(self, samples, offsets):
        offsets = np.asarray(offsets, dtype=int)
        return np.stack([s.future[offsets] + self.shifts[s.sample_id] for s in samples])


def _samples_with_futures(rng, n, horizon=55):
    samples = []
    for i in range(n):
        future = np.cumsum(rng.normal(0, 0.5, size=(horizon + 1, 2)), axis=0)
        future[0] = 0.0
        samples.append(
            Sample(states=np.zeros((1, 3, 7)), mask=np.ones((1, 3)), future=future, sample_id=i)
        )
    return samples


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
        for sample in samples:
            pred = sample.future[offset] + shifts[sample.sample_id]
            dx = pred[0] - sample.future[offset][0]
            dy = pred[1] - sample.future[offset][1]
            squares.append(dx * dx + dy * dy)
            displacements.append((dx * dx + dy * dy) ** 0.5)
        assert report.rmse[j] == pytest.approx(float(np.sqrt(np.mean(squares))), abs=1e-12)
        assert report.ade_curve[j] == pytest.approx(float(np.mean(displacements)), abs=1e-12)


def test_empty_test_set_rejected():
    with pytest.raises(DataError):
        rmse_at_offsets(_OffsetPredictor(np.zeros((1, 2))), [], (10,))


def test_offsets_beyond_future_rejected(rng):
    samples = _samples_with_futures(rng, 1, horizon=30)
    with pytest.raises(DataError):
        displacement_errors(_OffsetPredictor(np.zeros((1, 2))), samples, (40,))


# -- least squares ---------------------------------------------------------------------


def test_fit_exact_line():
    points = [(t, 2.0 * t) for t in range(5)]
    fit = least_squares_fit(points, 1)
    np.testing.assert_allclose(fit.coefficients, [0.0, 2.0], atol=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_fit_exact_parabola_interpolation():
    points = [(t, float(t) ** 2) for t in (1, 2, 3)]
    fit = least_squares_fit(points, 2)
    np.testing.assert_allclose(fit.coefficients, [0.0, 0.0, 1.0], atol=1e-10)


def test_fit_matches_normal_equations_oracle(rng):
    t = rng.uniform(0, 10, size=12)
    y = 1.5 - 0.3 * t + rng.normal(0, 0.2, size=12)
    fit = least_squares_fit(np.stack([t, y], axis=1), 1)
    # oracle: explicit normal equations solve
    vandermonde = np.stack([np.ones_like(t), t], axis=1)
    oracle = np.linalg.solve(vandermonde.T @ vandermonde, vandermonde.T @ y)
    np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-9)


def test_fit_rejects_duplicate_t():
    with pytest.raises(DataError, match="rank"):
        least_squares_fit([(1.0, 0.0), (1.0, 1.0), (1.0, 2.0)], 2)


def test_fit_rejects_too_few_points():
    with pytest.raises(DataError):
        least_squares_fit([(0.0, 0.0), (1.0, 1.0)], 2)


def test_fit_residual_monotone_in_degree(rng):
    t = np.arange(8, dtype=float)
    y = np.sin(t)
    points = np.stack([t, y], axis=1)
    residuals = [least_squares_fit(points, d).residual for d in range(5)]
    for lower, higher in zip(residuals, residuals[1:]):
        assert higher <= lower + 1e-12


def test_fit_self_consistency_at_training_offsets(rng):
    t = np.array([10.0, 20.0, 30.0, 40.0])
    y = rng.normal(0, 5, size=4)
    fit = least_squares_fit(np.stack([t, y], axis=1), 1)
    restricted = float(np.linalg.norm(fit(t) - y))
    assert restricted == pytest.approx(fit.residual, abs=1e-12)


# -- reports ----------------------------------------------------------------------------


def _report():
    return StudyReport(
        name="anchoring",
        fingerprint="cafe01234567",
        series=[
            Series("fixed-2", (2, 4, 25), (0.5, 0.4, 0.1)),
            Series("random-2", (2, 4, 25), (0.2, 0.25, 0.3)),
        ],
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
