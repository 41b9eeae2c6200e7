import numpy as np
import pytest

from reidkit import ConfigError, WarmupSchedule, lr_at


def test_warmup_endpoints_are_exact():
    s = WarmupSchedule()
    assert lr_at(0, s) == 1e-4
    assert lr_at(10, s) == 5e-3


def test_warmup_midpoint():
    assert lr_at(5, WarmupSchedule()) == pytest.approx(0.00255, rel=1e-12)


def test_warmup_is_linear():
    s = WarmupSchedule(base_lr=0.1, peak_lr=0.9, warmup_epochs=8, total_epochs=20)
    values = [lr_at(e, s) for e in range(9)]
    diffs = np.diff(values)
    assert np.allclose(diffs, diffs[0], atol=1e-15)
    assert values[0] == 0.1
    assert values[-1] == 0.9


def test_continuity_at_warmup_boundary_both_modes():
    for decay in ("none", "cosine"):
        s = WarmupSchedule(decay=decay)
        below = lr_at(10 - 1e-9, s)
        at = lr_at(10, s)
        above = lr_at(10 + 1e-9, s)
        assert at == 5e-3
        assert abs(below - at) < 1e-10
        assert abs(above - at) < 1e-10


def test_cosine_decay_reaches_base_at_the_end():
    s = WarmupSchedule()
    assert lr_at(180, s) == pytest.approx(1e-4, rel=1e-12)
    mid = lr_at(95, s)  # halfway point of the decay span
    assert mid == pytest.approx(0.5 * (5e-3 + 1e-4), rel=1e-9)


def test_cosine_decay_is_monotone_decreasing():
    s = WarmupSchedule()
    values = [lr_at(e, s) for e in range(10, 181)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_none_decay_holds_peak():
    s = WarmupSchedule(decay="none")
    for e in (11, 60, 180):
        assert lr_at(e, s) == 5e-3


def test_epoch_bounds_enforced():
    for decay in ("none", "cosine"):
        s = WarmupSchedule(decay=decay)
        for epoch in (-1, 181, float("nan")):
            with pytest.raises(ConfigError):
                lr_at(epoch, s)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        WarmupSchedule(base_lr=0.0)
    with pytest.raises(ConfigError):
        WarmupSchedule(base_lr=0.01, peak_lr=0.001)
    with pytest.raises(ConfigError):
        WarmupSchedule(warmup_epochs=200, total_epochs=100)
    with pytest.raises(ConfigError):
        WarmupSchedule(decay="linear")


def test_zero_warmup_starts_at_peak():
    s = WarmupSchedule(warmup_epochs=0, total_epochs=10, decay="none")
    assert lr_at(0, s) == 5e-3
