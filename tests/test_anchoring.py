"""Tests for fixed and random anchor schedules."""

import numpy as np
import pytest
from conftest import schedule_histogram
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from polytraj.anchoring import (
    AnchorDistribution,
    AnchorSchedule,
    fixed_schedule,
    random_schedule,
)


def test_fixed_25_over_50_is_every_even_frame():
    schedule = fixed_schedule(25, 50)
    assert schedule.offsets == tuple(range(2, 51, 2))


def test_fixed_2_over_50():
    assert fixed_schedule(2, 50).offsets == (25, 50)


def test_fixed_single_anchor():
    assert fixed_schedule(1, 50).offsets == (50,)


def test_fixed_rejects_horizon_below_count():
    with pytest.raises(ValueError):
        fixed_schedule(10, 9)


def _forced(r: int, count: int) -> AnchorSchedule:
    # degenerate distribution forces the draw
    return random_schedule(AnchorDistribution(r, r), count, np.random.default_rng(0))


def test_random_worked_example_r20():
    assert _forced(20, 4).offsets == (5, 10, 15, 20)


def test_random_flooring_r21():
    assert _forced(21, 4).offsets == (5, 10, 15, 21)


def test_random_flooring_r7_two_anchors():
    assert _forced(7, 2).offsets == (3, 7)


def test_random_rejects_min_below_count():
    with pytest.raises(ValueError):
        random_schedule(AnchorDistribution(3, 10), 4, np.random.default_rng(0))


def test_distribution_validation():
    with pytest.raises(ValueError):
        AnchorDistribution(10, 5)
    with pytest.raises(ValueError):
        AnchorDistribution(0, 5)


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnchorSchedule((5, 5, 10))
    with pytest.raises(ValueError):
        AnchorSchedule((0, 5))
    with pytest.raises(ValueError):
        AnchorSchedule(())


@settings(max_examples=200, derandomize=True)
@given(r=st.integers(35, 55), count=st.sampled_from([2, 4, 5, 25]))
def test_random_matches_integer_floor_oracle(r, count):
    schedule = _forced(r, count)
    oracle = tuple((r * k) // count for k in range(1, count + 1))
    assert schedule.offsets == oracle
    assert schedule.last == r
    assert all(b >= a for a, b in zip(schedule.offsets, schedule.offsets[1:]))


def test_degenerate_distribution_equals_fixed_schedule():
    for count, c in [(2, 50), (5, 35), (25, 55)]:
        assert _forced(c, count).offsets == fixed_schedule(count, c).offsets


def test_final_anchor_uniform_chi_square():
    rng = np.random.default_rng(2024)
    dist = AnchorDistribution(35, 55)
    draws = 20_000
    finals = [random_schedule(dist, 2, rng).last for _ in range(draws)]
    counts = np.bincount(finals, minlength=56)[35:56]
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.01


def test_histogram_degenerate_distribution():
    rng = np.random.default_rng(0)
    hist = schedule_histogram(AnchorDistribution(50, 50), 2, 137, rng)
    assert hist == {25: 137, 50: 137}


def test_histogram_support_u35_55_two_anchors():
    # oracle: enumerate floor(r/2) and r for every r in 35..55
    expected = {r // 2 for r in range(35, 56)} | set(range(35, 56))
    rng = np.random.default_rng(7)
    hist = schedule_histogram(AnchorDistribution(35, 55), 2, 100_000, rng)
    assert set(hist) == expected
    assert min(hist) == 17 and max(hist) == 55


def test_histogram_single_anchor_uniform_within_3_sigma():
    rng = np.random.default_rng(11)
    dist = AnchorDistribution(10, 19)
    n = 50_000
    hist = schedule_histogram(dist, 1, n, rng)
    p = 1.0 / 10.0
    sigma = (n * p * (1 - p)) ** 0.5
    for offset in range(10, 20):
        assert abs(hist.get(offset, 0) - n * p) <= 3.0 * sigma
