"""Warmup learning-rate schedule: linear ramp, then flat or cosine decay."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class WarmupSchedule:
    base_lr: float = 1e-4
    peak_lr: float = 5e-3
    warmup_epochs: int = 10
    total_epochs: int = 180
    decay: str = "cosine"  # "none" or "cosine"

    def __post_init__(self):
        if not (0.0 < self.base_lr <= self.peak_lr):
            raise ConfigError(
                f"need 0 < base_lr <= peak_lr, got {self.base_lr}, {self.peak_lr}"
            )
        if not (0 <= self.warmup_epochs <= self.total_epochs):
            raise ConfigError(
                f"warmup_epochs must lie in [0, total_epochs], got "
                f"{self.warmup_epochs} vs {self.total_epochs}"
            )
        if self.decay not in ("none", "cosine"):
            raise ConfigError(f"decay must be 'none' or 'cosine', got {self.decay!r}")


def lr_at(epoch, schedule: WarmupSchedule = WarmupSchedule()) -> float:
    """Learning rate at an epoch.

    Linear from base to peak over [0, warmup_epochs]; afterwards constant
    peak (decay='none') or cosine from peak back to base over the remaining
    epochs.  Both modes are continuous at the warmup boundary.  Endpoints
    are exact: convex-combination form, no accumulated offsets.
    """
    if not (0 <= epoch <= schedule.total_epochs):
        raise ConfigError(
            f"epoch {epoch} outside [0, {schedule.total_epochs}]"
        )
    if epoch <= schedule.warmup_epochs:
        if schedule.warmup_epochs == 0:
            return schedule.peak_lr
        t = epoch / schedule.warmup_epochs
        return schedule.base_lr * (1.0 - t) + schedule.peak_lr * t
    if schedule.decay == "none":
        return schedule.peak_lr
    span = schedule.total_epochs - schedule.warmup_epochs
    t = (epoch - schedule.warmup_epochs) / span
    c = 0.5 * (1.0 + math.cos(math.pi * t))
    return schedule.peak_lr * c + schedule.base_lr * (1.0 - c)
