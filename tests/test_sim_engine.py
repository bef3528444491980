"""Unit tests for the discrete-event simulator core."""

import pytest

from repro.sim import PeriodicTask, SeedSequence, Simulator, SimulatorError


class TestScheduling:
    def test_single_event_fires_at_time(self):
        sim = Simulator(seed=1)
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for name in "abcdef":
            sim.schedule(1.0, order.append, name)
        sim.run()
        assert order == list("abcdef")

    def test_schedule_with_args(self):
        sim = Simulator()
        got = []
        sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, "x")
        sim.run()
        assert got == [(1, "x")]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulatorError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.now == 2.0
        with pytest.raises(SimulatorError):
            sim.schedule_at(1.0, lambda: None)

    def test_call_now_fires_after_current_event(self):
        sim = Simulator()
        order = []

        def outer():
            sim.call_now(lambda: order.append("inner"))
            order.append("outer")

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 1.0

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 1)
        sim.run()
        assert fired == [1, 2, 3, 4, 5]
        assert sim.now == 5.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_property(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.pending
        handle.cancel()
        assert not handle.pending

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h1.cancel()
        assert sim.pending_events == 1

    def test_fired_flag_distinguishes_outcomes(self):
        sim = Simulator()
        fired_h = sim.schedule(1.0, lambda: None)
        cancelled_h = sim.schedule(2.0, lambda: None)
        assert not fired_h.fired and not cancelled_h.fired
        cancelled_h.cancel()
        sim.run()
        assert fired_h.fired and not fired_h.pending
        assert not cancelled_h.fired and cancelled_h.cancelled
        assert "fired" in repr(fired_h)

    def test_fired_flag_set_under_observers_too(self):
        # The slow path (step()) consumes events separately from the
        # observer-free fast loop; both must mark the handle.
        sim = Simulator()
        sim.add_observer(lambda handle: None)
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert handle.fired


class TestRun:
    def test_run_until_stops_clock_at_until(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_run_until_fires_events_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        sim.run(until=5.0)
        assert fired == [1]

    def test_run_advances_clock_to_until_with_no_events(self):
        sim = Simulator()
        sim.run(until=7.5)
        assert sim.now == 7.5

    def test_resume_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        sim.run(until=5.0)
        sim.run()
        assert fired == [1]
        assert sim.now == 10.0

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    @pytest.mark.parametrize("observe", [False, True])
    def test_stop_predicate_ends_the_run_before_the_head(self, observe):
        """``stop(head_time)`` is asked before every event on both
        arms; a hit leaves the head unfired and the clock on the last
        fired event, with no advance to ``until``."""
        sim = Simulator()
        if observe:
            sim.add_observer(lambda handle: None)
        fired, asked = [], []
        for i in range(1, 6):
            sim.schedule(float(i), fired.append, i)

        def stop(head_time):
            asked.append(head_time)
            return head_time > 3.0

        sim.run(until=50.0, stop=stop)
        assert fired == [1, 2, 3]
        assert asked == [1.0, 2.0, 3.0, 4.0]
        assert sim.now == 3.0
        assert sim.events_fired == 3 and sim.pending_events == 2

    def test_stop_is_asked_ahead_of_until(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=5.0, stop=lambda head_time: True)
        assert sim.now == 0.0

    def test_stop_never_sees_cancelled_heads_or_an_empty_heap(self):
        sim = Simulator()
        asked = []
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None).cancel()
        sim.run(until=9.0, stop=lambda t: asked.append(t) or False)
        assert asked == [2.0]
        # The heap ran dry without a stop hit: ``until`` still applies.
        assert sim.now == 9.0

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_events_fired_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_fired == 4

    def test_run_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulatorError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1


class TestDeterminism:
    def test_same_seed_same_rng_stream(self):
        a = Simulator(seed=42)
        b = Simulator(seed=42)
        assert [a.rng.random() for _ in range(10)] == \
            [b.rng.random() for _ in range(10)]

    def test_different_seed_different_stream(self):
        a = Simulator(seed=1)
        b = Simulator(seed=2)
        assert [a.rng.random() for _ in range(5)] != \
            [b.rng.random() for _ in range(5)]


class TestPeriodicTask:
    def test_fires_at_interval(self):
        sim = Simulator()
        times = []
        PeriodicTask(sim, 2.0, lambda: times.append(sim.now))
        sim.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_first_delay_override(self):
        sim = Simulator()
        times = []
        PeriodicTask(sim, 5.0, lambda: times.append(sim.now),
                     first_delay=1.0)
        sim.run(until=12.0)
        assert times == [1.0, 6.0, 11.0]

    def test_stop_halts_firing(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 1.0, lambda: times.append(sim.now))
        sim.schedule(3.5, task.stop)
        sim.run(until=10.0)
        assert times == [1.0, 2.0, 3.0]
        assert not task.running

    def test_callback_can_stop_own_task(self):
        sim = Simulator()
        task_box = {}

        def cb():
            task_box["count"] = task_box.get("count", 0) + 1
            if task_box["count"] == 2:
                task_box["task"].stop()

        task_box["task"] = PeriodicTask(sim, 1.0, cb)
        sim.run(until=10.0)
        assert task_box["count"] == 2

    def test_zero_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTask(sim, 0.0, lambda: None)

    def test_fire_count(self):
        sim = Simulator()
        task = PeriodicTask(sim, 1.0, lambda: None)
        sim.run(until=4.5)
        assert task.fire_count == 4


class TestSeedSequence:
    def test_deterministic(self):
        assert SeedSequence(7, "x").seeds(5) == SeedSequence(7, "x").seeds(5)

    def test_distinct_within_sequence(self):
        seeds = SeedSequence(7).seeds(100)
        assert len(set(seeds)) == 100

    def test_label_namespacing(self):
        a = SeedSequence(7, "fig3").seeds(5)
        b = SeedSequence(7, "fig4").seeds(5)
        assert set(a).isdisjoint(b)

    def test_child_namespacing(self):
        root = SeedSequence(7, "fig3")
        a = root.child("bittorrent").seeds(3)
        b = root.child("tchain").seeds(3)
        assert set(a).isdisjoint(b)

    def test_seeds_positive(self):
        assert all(s >= 0 for s in SeedSequence(0).seeds(20))

    def test_iteration(self):
        seq = SeedSequence(3, "it")
        from itertools import islice
        assert list(islice(iter(seq), 4)) == seq.seeds(4)
