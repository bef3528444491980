"""Lazy deletion and observed/unobserved equivalence tests.

A cancelled event stays in the heap until its time comes up and is
skipped there; it must neither fire, count, nor pin what it referred
to.  Attaching a sink must be invisible to the simulation: pop order
is a pure function of ``(time, seq)``, so clock, counters and rng
stream agree with and without one.
"""

import gc
import weakref

import pytest

from repro.net.bandwidth import Uplink
from repro.sim.engine import Simulator
from repro.sim.events import PeriodicTask


def _noop():
    pass


def _setup_churn(sim, chains=50):
    """Timer-churn workload: every tick cancels and re-arms a 30 s
    timeout, so the heap fills with dead entries."""
    def work(state):
        if state["timeout"] is not None:
            state["timeout"].cancel()
        state["timeout"] = sim.schedule(30.0, _noop)
        sim.schedule(0.01 + sim.rng.random() * 0.01, work, state)

    for _ in range(chains):
        sim.schedule(sim.rng.random() * 0.01, work, {"timeout": None})


def _dead_owner_head(sim, kind):
    """Arm an owner event due at t=1 and kill it: a stopped periodic
    task's tick, or a cancelled 100 KB transfer on one 800 Kbps slot."""
    if kind == "task":
        PeriodicTask(sim, 1.0, _noop).stop()
    else:
        Uplink(sim, 800.0, 1).try_start(100.0).cancel()


class TestLazyDeletion:
    def test_pending_events_excludes_cancelled_o1(self):
        sim = Simulator()
        handles = [sim.schedule(i + 1.0, _noop) for i in range(100)]
        for handle in handles[::2]:
            handle.cancel()
        assert sim.pending_events == 50
        sim.run()
        assert sim.pending_events == 0

    def test_max_events_counts_only_fired(self):
        sim = Simulator()
        handles = [sim.schedule(i + 1.0, _noop) for i in range(10)]
        for handle in handles[:5]:
            handle.cancel()
        sim.run(max_events=10)
        assert sim.events_fired == 5

    def test_cancelled_heads_do_not_consume_budget(self):
        sim = Simulator()
        doomed = [sim.schedule(1.0, _noop) for _ in range(3)]
        fired = []
        sim.schedule(2.0, fired.append, 1)
        sim.schedule(3.0, fired.append, 2)
        for handle in doomed:
            handle.cancel()
        sim.run(max_events=2)
        assert fired == [1, 2]

    def test_peek_time_skips_cancelled_heads(self):
        sim = Simulator()
        doomed = sim.schedule(1.0, _noop)
        sim.schedule(2.0, _noop)
        doomed.cancel()
        assert sim.peek_time() == pytest.approx(2.0)

    @pytest.mark.parametrize("kind", ["task", "transfer"])
    def test_peek_time_and_pending_skip_a_dead_owner_head(self, kind):
        sim = Simulator()
        _dead_owner_head(sim, kind)
        sim.schedule(2.0, _noop)
        assert sim.pending_events == 1 and len(sim._heap) == 2
        assert sim.peek_time() == pytest.approx(2.0)
        assert len(sim._heap) == 1
        sim.run()
        assert sim.events_fired == 1

    def test_cancel_releases_receiver_and_args_while_entry_waits(self):
        # The dead entry stays in the heap until t=50; the cancelled
        # handle must already have let go of its callback's receiver
        # and its arguments (nothing else bounds dead-entry memory).
        class Receiver:
            def fire(self, payload):
                pass

        class Payload:
            pass

        sim = Simulator()
        receiver, payload = Receiver(), Payload()
        receiver_ref = weakref.ref(receiver)
        payload_ref = weakref.ref(payload)
        sim.schedule(1.0, _noop)
        handle = sim.schedule(50.0, receiver.fire, payload)
        sim.schedule(80.0, _noop)
        handle.cancel()
        del receiver, payload
        gc.collect()
        assert any(entry[2] is handle for entry in sim._heap)
        assert receiver_ref() is None
        assert payload_ref() is None
        assert sim.pending_events == 2

    def test_peek_time_empty(self):
        sim = Simulator()
        assert sim.peek_time() is None
        handle = sim.schedule(1.0, _noop)
        handle.cancel()
        assert sim.peek_time() is None


class TestFastPath:
    def test_fast_path_equivalent_to_observed_path(self):
        # No sink -> run() fires inline; a sink adds its hooks around
        # each event.  Clock, counters and rng stream must agree.
        def final_state(observed):
            sim = Simulator(seed=3)
            _setup_churn(sim)
            if observed:
                sim.add_observer(lambda handle: None)
            sim.run(max_events=5000)
            return (sim.now, sim.events_fired, sim.pending_events,
                    sim.rng.random())

        assert final_state(observed=False) == final_state(observed=True)
