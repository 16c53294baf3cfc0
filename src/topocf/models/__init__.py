"""Desk-scale graph collaborative-filtering recommenders."""

from .split import Split, split_dataset
from .base import ModelConfig, TrainedModel, default_config, train_model

__all__ = [
    "Split",
    "split_dataset",
    "ModelConfig",
    "TrainedModel",
    "default_config",
    "train_model",
]
