"""Polynomial trajectories: mean and variance at frame offsets, NLL loss.

A trajectory is a pair of polynomials x(t), y(t) over the frame offset t,
with no constant term, so every trajectory passes through the origin at
t = 0 (the origin is the predicted agent's position at the current frame).
Each coefficient carries a predicted variance; because x(t) is a linear
combination of the coefficients, the coefficient variances map to a
positional variance in closed form.  `moments` is that one mapping, for a
batch of coefficient sets at a batch of offset rows; its mean and variance
feed the axis-wise Gaussian negative log-likelihood in `gaussian_nll`.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import NumericalError

VAR_FLOOR = 1e-6
"""Variance floor in m² added inside gaussian_nll for numerical stability."""


def moments(coeffs, coeff_var, t, scale: float = 1.0):
    """Mean and variance of p(t) = scale * sum_{j>=1} c_j (t / scale)^j.

    `coeffs` and `coeff_var` are (B, d) coefficient means and variances,
    as Tensors (graph ops) or numpy arrays; `t` is a (B, T) matrix of frame
    offsets, one row per coefficient set.  Returns (mean, var), each (B, T).
    The variance sum_j var_j (scale (t / scale)^j)^2 is exact for
    independent coefficient noise; the mean is exactly 0 at t = 0.
    """
    d = coeffs.shape[1]
    t = np.asarray(t, dtype=np.float64)[:, :, np.newaxis] / scale
    powers = t ** np.arange(1, d + 1, dtype=np.float64) * scale  # (B, T, d)
    mean = (coeffs[:, np.newaxis, :] * powers).sum(axis=2)
    var = (coeff_var[:, np.newaxis, :] * powers**2).sum(axis=2)
    return mean, var


def gaussian_nll(pred, var, target):
    """Negative log of an axis-wise Gaussian density.

    0.5 * (pred - target)^2 / v + 0.5 * ln(2*pi*v) with v = var + VAR_FLOOR.
    Accepts floats, numpy arrays, or autodiff Tensors for `pred` and `var`,
    so the same definition serves evaluation and training.
    """
    raw = var.data if isinstance(var, Tensor) else np.asarray(var, dtype=np.float64)
    if np.any(raw + VAR_FLOOR <= 0.0):
        raise NumericalError(f"variance {raw!r} not positive after flooring")
    v = var + VAR_FLOOR
    residual = pred - target
    return 0.5 * (residual**2) / v + 0.5 * ad.log(2.0 * math.pi * v)
