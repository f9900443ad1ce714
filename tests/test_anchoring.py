"""Tests for fixed and random anchor offsets: `spread`, `draw_schedules`
and the anchor rules of `ModelConfig`."""

import numpy as np
import pytest
from conftest import model_config, oracle_random_schedules, schedule_histogram
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from polytraj.anchoring import spread
from polytraj.errors import ConfigError
from polytraj.model import draw_schedules


def _fixed(count: int, horizon: int) -> tuple[int, ...]:
    cfg = model_config(anchor_mode="fixed", anchor_count=count, horizon=horizon)
    rows = draw_schedules(cfg, 3, np.random.default_rng(0))
    assert (rows == rows[0]).all()
    return tuple(rows[0].tolist())


def _random(low: int, high: int, count: int):
    return model_config(anchor_mode="random", anchor_count=count, anchor_min=low, anchor_max=high)


def _forced(r: int, count: int) -> tuple[int, ...]:
    # a degenerate range forces the draw
    return tuple(draw_schedules(_random(r, r, count), 1, np.random.default_rng(0))[0].tolist())


def test_fixed_25_over_50_is_every_even_frame():
    assert _fixed(25, 50) == tuple(range(2, 51, 2))


def test_fixed_2_over_50():
    assert _fixed(2, 50) == (25, 50)


def test_fixed_single_anchor():
    assert _fixed(1, 50) == (50,)


def test_spread_is_exact_past_int64():
    horizon = 2**63 - 1
    assert spread([horizon], 2) == [(horizon // 2, horizon)]


def test_fixed_rejects_horizon_below_count():
    with pytest.raises(ConfigError):
        model_config(anchor_mode="fixed", anchor_count=10, horizon=9)


def test_random_worked_example_r20():
    assert _forced(20, 4) == (5, 10, 15, 20)


def test_random_flooring_r21():
    assert _forced(21, 4) == (5, 10, 15, 21)


def test_random_flooring_r7_two_anchors():
    assert _forced(7, 2) == (3, 7)


def test_random_rejects_min_below_count():
    with pytest.raises(ConfigError):
        _random(3, 10, 4)


def test_distribution_validation():
    with pytest.raises(ConfigError):
        _random(10, 5, 2)
    with pytest.raises(ConfigError):
        _random(0, 5, 1)


@settings(max_examples=200, derandomize=True)
@given(r=st.integers(35, 55), count=st.sampled_from([2, 4, 5, 25]))
def test_random_matches_integer_floor_oracle(r, count):
    offsets = _forced(r, count)
    oracle = tuple((r * k) // count for k in range(1, count + 1))
    assert offsets == oracle
    assert offsets[-1] == r
    assert all(b >= a for a, b in zip(offsets, offsets[1:]))


def test_degenerate_distribution_equals_fixed_schedule():
    for count, c in [(2, 50), (5, 35), (25, 55)]:
        assert _forced(c, count) == _fixed(count, c)


@pytest.mark.parametrize("low,high,count", [(35, 55, 25), (35, 55, 2), (10, 19, 1), (28, 44, 4), (50, 50, 5)])
def test_random_rows_match_per_sample_draws(low, high, count):
    # one `rng.integers(..., size=B)` gives the values of B single draws and
    # leaves the generator where they leave it
    for seed in range(5):
        batched, single = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = draw_schedules(_random(low, high, count), 32, batched)
        np.testing.assert_array_equal(rows, oracle_random_schedules(low, high, count, 32, single))
        assert batched.bit_generator.state == single.bit_generator.state
        assert batched.integers(low, high + 1) == single.integers(low, high + 1)


def test_final_anchor_uniform_chi_square():
    rng = np.random.default_rng(2024)
    finals = draw_schedules(_random(35, 55, 2), 20_000, rng)[:, -1]
    counts = np.bincount(finals, minlength=56)[35:56]
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.01


def test_histogram_degenerate_distribution():
    rng = np.random.default_rng(0)
    hist = schedule_histogram(_random(50, 50, 2), 137, rng)
    assert hist == {25: 137, 50: 137}


def test_histogram_support_u35_55_two_anchors():
    # oracle: enumerate floor(r/2) and r for every r in 35..55
    expected = {r // 2 for r in range(35, 56)} | set(range(35, 56))
    rng = np.random.default_rng(7)
    hist = schedule_histogram(_random(35, 55, 2), 100_000, rng)
    assert set(hist) == expected
    assert min(hist) == 17 and max(hist) == 55


def test_histogram_single_anchor_uniform_within_3_sigma():
    rng = np.random.default_rng(11)
    n = 50_000
    hist = schedule_histogram(_random(10, 19, 1), n, rng)
    p = 1.0 / 10.0
    sigma = (n * p * (1 - p)) ** 0.5
    for offset in range(10, 20):
        assert abs(hist.get(offset, 0) - n * p) <= 3.0 * sigma
