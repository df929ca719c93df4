"""Edge-case tests for a timer process on the engine: a callback chain
that reschedules itself."""

import pytest


class TestProcessLifecycle:
    def test_generator_exception_propagates(self, sim):
        """An exception raised in a self-rescheduling callback leaves
        ``run()`` after the steps before it ran."""
        steps = []

        def step():
            steps.append(sim.now)
            if len(steps) == 2:
                raise RuntimeError("boom")
            sim.schedule(1.0, step)

        sim.schedule(0.0, step)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert steps == [0.0, 1.0]
