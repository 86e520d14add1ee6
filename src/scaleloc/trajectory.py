"""Episode records: perfbench's episodes build them, ``policy.episode_backward`` replays them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BBox

__all__ = ["TrajStep", "Trajectory"]


@dataclass(frozen=True)
class TrajStep:
    """One step: the layer and features observed, the action taken, the
    box afterwards, and the action's log-probability."""

    layer_id: int
    box: BBox
    action: int
    log_prob: float
    features: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    steps: tuple[TrajStep, ...]
    reward: float

    def __post_init__(self):
        if any(s.log_prob > 0 for s in self.steps):
            raise ValueError("log-probabilities cannot be positive")

    @property
    def final_box(self) -> BBox | None:
        return self.steps[-1].box if self.steps else None
