"""Unit tests for the discrete-event kernel (repro.sim.engine)."""

import pytest

from repro.sim import SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        seen = []
        sim.schedule(2.0, seen.append, "b")
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(3.0, seen.append, "c")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.schedule(4.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5, 4.0]

    def test_same_time_events_run_in_insertion_order(self, sim):
        seen = []
        for tag in range(5):
            sim.schedule(1.0, seen.append, tag)
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_same_time_ties_ignore_when_they_were_scheduled(self, sim):
        # Both land on t=1.0, one scheduled from t=0 and one from t=0.5:
        # the earlier insertion runs first.
        seen = []
        sim.schedule(1.0, seen.append, "first")
        sim.schedule(0.5, lambda: sim.schedule(0.5, seen.append, "second"))
        sim.run()
        assert seen == ["first", "second"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)

    def test_schedule_at_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_cancel_prevents_execution(self, sim):
        seen = []
        handle = sim.schedule(1.0, seen.append, "x")
        sim.cancel(handle)
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.cancel(handle)
        sim.cancel(handle)
        sim.run()

    def test_events_scheduled_during_run_execute(self, sim):
        seen = []

        def first():
            sim.schedule(1.0, seen.append, "second")
            seen.append("first")

        sim.schedule(1.0, first)
        sim.run()
        assert seen == ["first", "second"]

    def test_run_until_stops_before_later_events(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "early")
        sim.schedule(10.0, seen.append, "late")
        sim.run(until=5.0)
        assert seen == ["early"]
        assert sim.now == 5.0
        sim.run()
        assert seen == ["early", "late"]

    def test_run_until_sets_clock_even_with_empty_queue(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_reentrant_run_rejected(self, sim):
        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, nested)
        sim.run()

    def test_pending_events_counts_live_only(self, sim):
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.cancel(h)
        assert sim.pending_events == 1

    def test_events_executed_counter(self, sim):
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 4


class TestSameTimestampFIFO:
    """Regression: FIFO ordering of same-timestamp events.

    Every event draws its tiebreaker from ONE ``itertools.count``
    sequence, so events at the same time must always fire in
    insertion order — whether or not the caller kept the returned
    entry to cancel it, whichever of ``schedule`` /
    ``schedule_at`` created it, and regardless of heap-internal sift
    order.
    """

    def test_fifo_at_same_time(self):
        sim = Simulator()
        seen = []
        for i in range(50):
            sim.schedule(1.0, seen.append, i)
        sim.run()
        assert seen == list(range(50))

    def test_kept_and_dropped_events_interleave_by_insertion(self):
        sim = Simulator()
        seen = []
        kept = []
        # Keep every other cancellation token: insertion order must win.
        for i in range(40):
            event = sim.schedule(2.0, seen.append, i)
            if i % 2:
                kept.append(event)
        sim.run()
        assert seen == list(range(40))
        assert len(kept) == 20

    def test_zero_delay_event_runs_after_queued_same_time_events(self):
        sim = Simulator()
        seen = []

        def a():
            seen.append("a")
            sim.schedule(0.0, seen.append, "c")

        sim.schedule(1.0, a)
        sim.schedule(1.0, seen.append, "b")
        sim.run()
        assert seen == ["a", "b", "c"]
        # An event is [time, seq, callback, args]: no tie-break slot.
        event = sim.schedule(2.0, seen.append, "d")
        assert event[0] == 3.0 and event[2:] == [seen.append, ("d",)]

    def test_cancelled_entry_does_not_disturb_fifo(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, 0)
        event = sim.schedule(1.0, seen.append, "cancelled")
        sim.schedule(1.0, seen.append, 1)
        sim.cancel(event)
        sim.run()
        assert seen == [0, 1]
        assert sim.events_executed == 2

    def test_schedule_at_variants_share_the_sequence(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(3.0, seen.append, "a")
        sim.schedule(3.0, seen.append, "b")
        sim.schedule_at(3.0, seen.append, "c")
        sim.schedule(3.0, seen.append, "d")
        sim.run()
        assert seen == ["a", "b", "c", "d"]

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, seen.append, "x")
        sim.schedule(2.0, seen.append, "y")
        sim.run(until=1.5)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending_events == 1
        sim.run()
        assert seen == ["x", "y"]

    def test_run_and_pending_skip_cancelled_entries(self):
        sim = Simulator()
        seen = []
        first = sim.schedule(1.0, seen.append, "first")
        sim.schedule(2.0, seen.append, "second")
        last = sim.schedule(3.0, seen.append, "last")
        sim.cancel(first)
        sim.cancel(last)
        assert sim.pending_events == 1
        sim.run()
        assert seen == ["second"]
        # A cancelled head is skipped, not executed: neither the counter
        # nor the clock sees it.
        assert sim.events_executed == 1 and sim.now == 2.0
        assert sim.pending_events == 0
