"""Tests for the calibrated device models.

The calibration classes assert the exact targets of the Figure 11-13
row of the "Paper ↔ module map" in ``docs/engines.md``: the paper's
Figure 12/13 ratios must hold for the shipped constants.
"""

from __future__ import annotations

import pytest

from repro.sim.devices import (
    CpuLoad,
    Device,
    DeviceSpec,
    LAPTOP,
    SERVER,
    SMARTPHONE,
    widget_op_count,
)


def job_ops(profile_size: int, k: int = 10) -> int:
    """Worst-case widget ops at one profile size (all profiles equal)."""
    candidate_count = 2 * k + k * k
    return widget_op_count(profile_size, [profile_size] * candidate_count)


class TestWidgetOpCount:
    def test_formula(self):
        # 2 candidates: each costs |Pu| + 2|Pc| = 5 + 2*3 = 11.
        assert widget_op_count(5, [3, 3]) == 22

    def test_empty_candidates(self):
        assert widget_op_count(10, []) == 0

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            widget_op_count(-1, [])
        with pytest.raises(ValueError):
            widget_op_count(1, [-2])


class TestCpuLoad:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            CpuLoad(-0.1)
        with pytest.raises(ValueError):
            CpuLoad(1.1)

    def test_value(self):
        assert CpuLoad(0.5).value == 0.5


class TestDeviceModel:
    def test_task_time_monotone_in_ops(self):
        device = Device(LAPTOP)
        assert device.task_time(1000) < device.task_time(100_000)

    def test_load_slows_execution(self):
        idle = Device(SMARTPHONE, load=0.0)
        busy = Device(SMARTPHONE, load=1.0)
        ops = job_ops(100)
        assert busy.task_time(ops) > idle.task_time(ops)

    def test_laptop_faster_than_smartphone(self):
        ops = job_ops(100)
        assert Device(LAPTOP).task_time(ops) < Device(SMARTPHONE).task_time(ops)

    def test_transfer_time(self):
        device = Device(LAPTOP)  # 100 Mbps
        assert device.transfer_time(12_500_000) == pytest.approx(1.0)

    def test_negative_inputs_rejected(self):
        device = Device(LAPTOP)
        with pytest.raises(ValueError):
            device.task_time(-1)
        with pytest.raises(ValueError):
            device.transfer_time(-1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", 0, 0.0, 0.0, 1, 1.0)
        with pytest.raises(ValueError):
            DeviceSpec("x", 1.0, -1.0, 0.0, 1, 1.0)
        with pytest.raises(ValueError):
            DeviceSpec("x", 1.0, 0.0, 0.0, 0, 1.0)


class TestPaperCalibration:
    """The three calibration targets from Figures 12-13."""

    def test_fig13_laptop_growth_below_1_5x(self):
        small = Device(LAPTOP).task_time(job_ops(10))
        large = Device(LAPTOP).task_time(job_ops(500))
        assert large / small < 1.55

    def test_fig13_smartphone_growth_about_7x(self):
        small = Device(SMARTPHONE).task_time(job_ops(10))
        large = Device(SMARTPHONE).task_time(job_ops(500))
        assert 6.0 < large / small < 8.5

    def test_fig12_laptop_under_10ms_at_half_load(self):
        device = Device(LAPTOP, load=0.5)
        assert device.task_time(job_ops(100)) < 10e-3

    def test_fig12_smartphone_under_60ms_at_half_load(self):
        device = Device(SMARTPHONE, load=0.5)
        assert device.task_time(job_ops(100)) < 60e-3

    def test_fig12_laptop_load_slope_gentle(self):
        """Laptop time 'increases only slowly as the CPU gets loaded'."""
        ops = job_ops(100)
        idle = Device(LAPTOP, load=0.0).task_time(ops)
        full = Device(LAPTOP, load=1.0).task_time(ops)
        assert full / idle <= 1.35

    def test_server_is_fastest(self):
        ops = job_ops(100)
        assert Device(SERVER).task_time(ops) < Device(LAPTOP).task_time(ops)
