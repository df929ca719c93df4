"""Edge-case tests for the event engine's process lifecycle."""

import pytest

from repro.sim import Timeout


class TestProcessLifecycle:
    def test_generator_exception_propagates(self, sim):
        def proc():
            yield Timeout(1.0)
            raise RuntimeError("boom")

        sim.spawn(proc())
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()


class TestCombinatorEdges:
    def test_timeout_zero_runs_next_step(self, sim):
        order = []

        def proc():
            order.append("before")
            yield Timeout(0.0)
            order.append("after")

        sim.spawn(proc())
        sim.schedule(0.0, order.append, "event")
        sim.run()
        assert order[0] == "before"
        assert set(order[1:]) == {"event", "after"}
