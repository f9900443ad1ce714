"""Tests for the polynomial moments and the NLL loss."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import make_moderate_samples, model_config, oracle_loss, zero_head
from hypothesis import given, settings
from hypothesis import strategies as st

from polytraj.autodiff import Tensor
from polytraj.errors import DataError, NumericalError
from polytraj.model import TrajectoryModel, batch_loss
from polytraj.poly import VAR_FLOOR, gaussian_nll, moments


def _mean(coeffs, t):
    """Unscaled polynomial sum_j c_j t^j at one offset, via moments."""
    c = np.asarray([coeffs], dtype=float)
    return float(moments(c, np.zeros_like(c), [[t]])[0][0, 0])


def _var(sigma, t):
    """Positional variance sum_j sigma_j^2 t^(2j) at one offset, via moments."""
    s = np.asarray([sigma], dtype=float)
    return float(moments(np.zeros_like(s), s**2, [[t]])[1][0, 0])


# -- polynomial mean -------------------------------------------------------------


def test_linear_term():
    assert _mean([1.0], 3) == 3.0


def test_quadratic_term():
    assert _mean([0.0, 2.0], 3) == 18.0


def test_origin_at_zero_offset():
    assert _mean([4.2, -1.3, 0.7], 0) == 0.0


def test_rejects_non_finite(rng):
    # the finite guard on decoded predictions: a non-finite coefficient
    # anywhere in the head stops evaluation with the sample named
    samples = make_moderate_samples(rng, 2)
    model = TrajectoryModel(model_config(units=4), seed=0)
    model.predict_positions(samples, [1, 10])
    model.params["head.b"].data[0] = math.nan
    with pytest.raises(NumericalError, match=r"sample\(s\) \[0, 1\]"):
        model.predict_positions(samples, [1, 10])


@settings(max_examples=60, derandomize=True)
@given(
    c1=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    c2=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    t=st.integers(0, 55),
)
def test_linear_in_coefficients(c1, c2, t):
    combined = _mean(np.add(c1, c2), t)
    assert combined == pytest.approx(_mean(c1, t) + _mean(c2, t), rel=1e-12, abs=1e-9)


def test_scaled_moments_equal_unscaled_coefficients(rng):
    # c_j parameterizes scale * sum c_j (t/scale)^j = sum c_j scale^(1-j) t^j
    c = rng.normal(0, 1, size=(4, 3))
    v = rng.uniform(0.01, 1, size=(4, 3))
    t = rng.integers(0, 56, size=(4, 5))
    unscale = 50.0 ** (np.arange(1, 4) - 1.0)
    mean, var = moments(c, v, t, 50.0)
    plain_mean, plain_var = moments(c / unscale, v / unscale**2, t)
    np.testing.assert_allclose(mean, plain_mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(var, plain_var, rtol=1e-12)


# -- positional variance ----------------------------------------------------------


def test_variance_hand_example():
    # 0.1^2 * 2^2 + 0.2^2 * (2^2)^2
    assert _var([0.1, 0.2], 2) == pytest.approx(0.68, rel=1e-12)


def test_variance_zero_sigma():
    assert _var([0.0, 0.0, 0.0], 17) == 0.0


def test_variance_identity_case():
    assert _var([1.0], 1) == 1.0


def test_variance_matches_monte_carlo(rng):
    # smoke-scale version of the acceptance oracle
    for _ in range(5):
        sigma = rng.uniform(0.01, 0.3, size=3)
        t = int(rng.integers(1, 56))
        powers = float(t) ** np.arange(1, 4)
        draws = rng.normal(0.0, sigma, size=(200_000, 3))
        empirical = float(np.var(draws @ powers))
        assert _var(sigma, t) == pytest.approx(empirical, rel=0.02)


@settings(max_examples=40, derandomize=True)
@given(
    sigma=st.lists(st.floats(0, 2), min_size=2, max_size=4),
    t=st.integers(1, 54),
)
def test_variance_non_decreasing_in_offset(sigma, t):
    assert _var(sigma, t + 1) >= _var(sigma, t)


# -- gaussian_nll ---------------------------------------------------------------


def test_nll_zero_at_unit_density_point():
    assert gaussian_nll(1.0, 1.0 / (2 * math.pi), 1.0) == pytest.approx(0.0, abs=1e-5)


def test_nll_definition_at_var_one():
    assert gaussian_nll(0.0, 1.0, 0.0) == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-5)


def test_nll_hand_value_unit_residual():
    assert gaussian_nll(1.0, 1.0, 0.0) == pytest.approx(1.4189385332046727, abs=1e-5)


def test_nll_rejects_non_positive_variance():
    with pytest.raises(NumericalError):
        gaussian_nll(0.0, -1.0, 0.0)


def test_nll_differentiable_with_tensors():
    pred = Tensor([2.0])
    var = Tensor([0.5])
    nll = gaussian_nll(pred, var, 1.5)
    nll.sum().backward()
    v = 0.5 + VAR_FLOOR
    np.testing.assert_allclose(pred.grad, [(2.0 - 1.5) / v], rtol=1e-12)
    np.testing.assert_allclose(var.grad, [-0.5 * 0.25 / v**2 + 0.5 / v], rtol=1e-12)


def test_nll_minimized_at_target():
    # gradient in pred changes sign at pred = target
    below = gaussian_nll(0.9, 0.3, 1.0)
    at = gaussian_nll(1.0, 0.3, 1.0)
    above = gaussian_nll(1.1, 0.3, 1.0)
    assert at < below and at < above


@settings(max_examples=40, derandomize=True)
@given(residual=st.floats(0.1, 5.0))
def test_nll_calibrated_at_squared_residual(residual):
    best = gaussian_nll(residual, residual**2, 0.0)
    assert best <= gaussian_nll(residual, residual**2 * 1.05, 0.0)
    assert best <= gaussian_nll(residual, residual**2 * 0.95, 0.0)


# -- moments in the loss: batch_loss on a known head --------------------------------


def _traj(a, b, sa=None, sb=None):
    """Per-frame coefficients a (lateral) and b (longitudinal) with sigmas."""
    return SimpleNamespace(
        a=np.asarray(a, dtype=float),
        b=np.asarray(b, dtype=float),
        sigma_a=np.zeros(len(a)) if sa is None else np.asarray(sa, dtype=float),
        sigma_b=np.zeros(len(b)) if sb is None else np.asarray(sb, dtype=float),
    )


def _model_emitting(traj):
    """A polynomial model whose head outputs `traj` for every input: the head
    weights are zero and the bias holds the raw scaled coefficients."""
    cfg = model_config(units=3, d_x=traj.a.size, d_y=traj.b.size, decoder_steps=1)
    model = TrajectoryModel(cfg, seed=0)
    zero_head(model)
    unscale_x = cfg.time_scale ** (np.arange(1, cfg.d_x + 1) - 1.0)
    unscale_y = cfg.time_scale ** (np.arange(1, cfg.d_y + 1) - 1.0)
    with np.errstate(divide="ignore"):  # a zero sigma is log-sigma -inf, variance 0
        model.params["head.b"].data[:] = np.concatenate([
            traj.a * unscale_x,
            traj.b * unscale_y,
            np.log(traj.sigma_a * unscale_x),
            np.log(traj.sigma_b * unscale_y),
        ])
    return model


def _loss(traj, truth, offsets):
    sample = make_moderate_samples(np.random.default_rng(0), 1, horizon=truth.shape[0] - 1)
    sample.future[0] = truth
    loss, _ = batch_loss(_model_emitting(traj), sample, np.array([offsets]), train=False)
    return float(loss)


def test_eval_traj_linear_positions():
    mean, _ = moments(np.array([[1.0], [2.0]]), np.zeros((2, 1)), [[1, 2], [1, 2]])
    assert mean.T.tolist() == [[1.0, 2.0], [2.0, 4.0]]


def test_eval_traj_zero_sigma_gives_zero_variance():
    _, var = moments(np.array([[1.0, 1.0], [0.5, 0.0]]), np.zeros((2, 2)), [[1, 2, 7]] * 2)
    assert np.all(var == 0.0)


def test_eval_traj_quadratic():
    assert _mean([1.0, 1.0], 2) == 6.0


def test_loss_zero_for_perfect_calibrated_prediction():
    truth = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
    # variance exactly 1/(2 pi) at t=1 makes the density 1 there
    calibrated = _traj(
        [1.0], [2.0], sa=[math.sqrt(1 / (2 * math.pi))], sb=[math.sqrt(1 / (2 * math.pi))]
    )
    assert _loss(calibrated, truth, [1]) == pytest.approx(0.0, abs=1e-4)


def test_loss_single_anchor_is_sum_of_two_nll_terms():
    p = _traj([1.5], [0.5], sa=[0.2], sb=[0.4])
    truth = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 2.0]])
    expected = gaussian_nll(3.0, 0.04 * 4, 2.0) + gaussian_nll(1.0, 0.16 * 4, 2.0)
    assert _loss(p, truth, [2]) == pytest.approx(expected, rel=1e-12)


def test_loss_errors_beyond_truth_length():
    p = _traj([1.0], [1.0])
    truth = np.zeros((5, 2))
    with pytest.raises(DataError):
        _loss(p, truth, [2, 6])


def test_loss_matches_brute_force_oracle(rng):
    for _ in range(25):
        d = int(rng.integers(1, 4))
        traj = _traj(
            rng.normal(0, 0.5, size=d),
            rng.normal(0, 0.5, size=d),
            sa=rng.uniform(0.01, 0.5, size=d),
            sb=rng.uniform(0.01, 0.5, size=d),
        )
        offsets = np.sort(rng.choice(np.arange(1, 56), size=4, replace=False)).tolist()
        truth = rng.normal(0, 10, size=(56, 2))
        truth[0] = 0
        assert _loss(traj, truth, offsets) == pytest.approx(
            oracle_loss(traj, truth, offsets), rel=1e-12, abs=1e-12
        )
