"""Tests for the studies' sample handling."""

import pytest

from conftest import make_moderate_samples, model_config, moderate_rows, samples_of, train_settings

from polytraj.errors import DataError
from polytraj.studies import extrapolation_study

BASE = model_config(units=3, decoder_steps=1, d_x=2, d_y=2)
SETTINGS = train_settings(lr=0.01, epochs=1, batch=4, seed=(0, 0))


def test_extrapolation_skips_short_samples_for_every_curve(rng):
    train_samples = make_moderate_samples(rng, 4, horizon=60)
    long_rows = moderate_rows(rng, 3, horizon=60)
    short_rows = moderate_rows(rng, 2, horizon=45)
    long_samples, short_samples = samples_of(long_rows), samples_of(short_rows)
    mixed = samples_of([short_rows[0], *long_rows[:2], short_rows[1], long_rows[2]])

    report = extrapolation_study(train_samples, mixed, BASE, SETTINGS)
    expected = extrapolation_study(train_samples, long_samples, BASE, SETTINGS)
    assert [s.label for s in report.series] == ["poly", "coord-fit-deg1", "coord-fit-deg2"]
    assert report.sample_count == expected.sample_count == 3
    for got, want in zip(report.series, expected.series):
        assert got.offsets == want.offsets
        assert got.values == want.values

    with pytest.raises(DataError, match="six-second"):
        extrapolation_study(train_samples, short_samples, BASE, SETTINGS)
