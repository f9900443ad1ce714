"""Continuous polynomial trajectory prediction for road agents."""

from .anchoring import AnchorDistribution, AnchorSchedule, fixed_schedule, random_schedule
from .model import ModelConfig, TrainSettings, TrajectoryModel, moments, train
from .poly import gaussian_nll

__all__ = [
    "AnchorDistribution",
    "AnchorSchedule",
    "fixed_schedule",
    "random_schedule",
    "ModelConfig",
    "TrainSettings",
    "TrajectoryModel",
    "moments",
    "train",
    "gaussian_nll",
]
