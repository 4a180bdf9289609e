"""Unit tests for the two-phase simulation kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import Component, Kernel, Register


class Counter(Component):
    """Increments a register every cycle (test helper)."""

    def __init__(self, name="counter"):
        super().__init__(name)
        self.value = self.make_register("value", idle=0)

    def evaluate(self, cycle):
        self.value.drive(self.value.q + 1)


class Chain(Component):
    """Copies its input register to its output register (1-cycle delay)."""

    def __init__(self, name, source):
        super().__init__(name)
        self.source = source
        self.out = self.make_register("out")

    def evaluate(self, cycle):
        self.out.drive(self.source.q)


class TestRegister:
    def test_initial_value_is_idle(self):
        register = Register("r", idle=7)
        assert register.q == 7

    def test_drive_visible_after_latch(self):
        register = Register("r")
        register.drive(42)
        assert register.q is None
        register.latch()
        assert register.q == 42

    def test_undriven_latch_resets_to_idle(self):
        register = Register("r", idle="idle")
        register.drive("busy")
        register.latch()
        register.latch()
        assert register.q == "idle"

    def test_double_drive_is_a_collision(self):
        register = Register("r")
        register.drive(1)
        with pytest.raises(SimulationError, match="driven twice"):
            register.drive(2)

    def test_driven_flag(self):
        register = Register("r")
        assert not register.driven
        register.drive(1)
        assert register.driven
        register.latch()
        assert not register.driven

    def test_reset(self):
        register = Register("r", idle=0)
        register.drive(9)
        register.latch()
        register.reset()
        assert register.q == 0


class TestKernel:
    def test_step_advances_cycle(self):
        kernel = Kernel()
        kernel.step(5)
        assert kernel.cycle == 5

    def test_component_evaluated_every_cycle(self):
        kernel = Kernel()
        counter = kernel.add(Counter())
        kernel.step(10)
        assert counter.value.q == 10

    def test_pipeline_has_per_stage_delay(self):
        kernel = Kernel()
        counter = kernel.add(Counter())
        stage = kernel.add(Chain("stage", counter.value))
        kernel.step(3)
        # After 3 cycles the counter shows 3; the chained stage shows
        # the counter's value one cycle earlier.
        assert counter.value.q == 3
        assert stage.out.q == 2

    def test_evaluation_order_is_irrelevant(self):
        results = []
        for reverse in (False, True):
            kernel = Kernel()
            counter = Counter()
            stage = Chain("stage", counter.value)
            components = [counter, stage]
            if reverse:
                components.reverse()
            kernel.add_all(components)
            kernel.step(4)
            results.append(stage.out.q)
        assert results[0] == results[1]

    def test_scheduled_callback_runs_at_cycle(self):
        kernel = Kernel()
        seen = []
        kernel.at(3, lambda cycle: seen.append(cycle))
        kernel.step(5)
        assert seen == [3]

    def test_callback_in_past_rejected(self):
        kernel = Kernel()
        kernel.step(2)
        with pytest.raises(SimulationError):
            kernel.at(1, lambda cycle: None)

    def test_run_until_returns_cycle(self):
        kernel = Kernel()
        counter = kernel.add(Counter())
        cycle = kernel.run_until(lambda: counter.value.q >= 7)
        assert counter.value.q >= 7
        assert kernel.cycle == cycle

    def test_run_until_times_out(self):
        kernel = Kernel()
        with pytest.raises(SimulationError, match="not reached"):
            kernel.run_until(lambda: False, max_cycles=10)

    def test_reset_restores_time_and_registers(self):
        kernel = Kernel()
        counter = kernel.add(Counter())
        kernel.step(8)
        kernel.reset()
        assert kernel.cycle == 0
        assert counter.value.q == 0

    def test_free_standing_register_latched(self):
        kernel = Kernel()
        register = kernel.add_register(Register("free"))
        register.drive("x")
        kernel.step(1)
        assert register.q == "x"


class TestModeSelection:
    """Only ``naive``, ``activity`` and ``compiled`` exist; any other
    value is refused with the list of the three."""

    @staticmethod
    def assert_names_modes(error):
        message = str(error.value)
        for mode in ("activity", "naive", "compiled"):
            assert repr(mode) in message

    @pytest.mark.parametrize("mode", ["vector", "bogus"])
    def test_unknown_constructor_mode(self, mode):
        with pytest.raises(SimulationError) as error:
            Kernel(mode=mode)
        self.assert_names_modes(error)

    @pytest.mark.parametrize("mode", ["vector", "bogus"])
    def test_unknown_environment_mode(self, monkeypatch, mode):
        monkeypatch.setenv("REPRO_KERNEL_MODE", mode)
        with pytest.raises(SimulationError) as error:
            Kernel()
        self.assert_names_modes(error)

    def test_unknown_mode_switch(self):
        kernel = Kernel(mode="activity")
        with pytest.raises(SimulationError) as error:
            kernel.set_mode("vector")
        self.assert_names_modes(error)
        assert kernel.mode == "activity"
