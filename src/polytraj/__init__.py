"""Continuous polynomial trajectory prediction for road agents."""

from .model import ModelConfig, TrainSettings, TrajectoryModel, moments, train
from .poly import gaussian_nll

__all__ = [
    "ModelConfig",
    "TrainSettings",
    "TrajectoryModel",
    "moments",
    "train",
    "gaussian_nll",
]
