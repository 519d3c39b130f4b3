"""Unit tests for the per-set bypass switch array."""

import pytest

from repro.core.bypass_switch import BypassSwitchArray


class TestSwitching:
    def test_starts_off(self):
        switches = BypassSwitchArray(8)
        assert not any(switches.is_on(i) for i in range(8))

    def test_turn_on_off(self):
        switches = BypassSwitchArray(8)
        switches.turn_on(3)
        assert switches.is_on(3)
        switches.turn_off(3)
        assert not switches.is_on(3)

    def test_activation_counted_once(self):
        switches = BypassSwitchArray(8)
        switches.turn_on(3)
        switches.turn_on(3)
        assert switches.activations == 1

    def test_fraction_on(self):
        switches = BypassSwitchArray(4)
        switches.turn_on(0)
        switches.turn_on(1)
        assert switches.fraction_on == pytest.approx(0.5)


class TestPeriodicShutdown:
    def test_validation(self):
        with pytest.raises(ValueError):
            BypassSwitchArray(0)
        with pytest.raises(ValueError):
            BypassSwitchArray(4, shutdown_interval=-1)
