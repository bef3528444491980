"""Fixed-delay timer lanes (``Simulator.after``) against plain events.

``after(delay, cb, *args)`` must be indistinguishable from
``schedule(delay, cb, *args)`` whose handle is thrown away: the same
sequence number, the same fire order, the same event counts — observed
or not, and across ``until`` / ``max_events`` stops.  The program test
runs one random timer program twice, once as written and once with every
``after`` replaced by ``schedule``, and compares everything a caller can
see, including ``pending_events`` and ``peek_time()`` read from inside
each callback (a lane whose next head were pushed only after the
callback would undercount there).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.bandwidth import Uplink
from repro.sim.engine import Simulator, SimulatorError
from repro.sim.events import PeriodicTask

DELAYS = (0.0, 0.5, 1.0, 2.5)
#: ``schedule_at`` targets, relative to the clock at scheduling time.
AT_OFFSETS = (0.0, 0.5, 3.0)


def _ops(kids):
    timer = st.tuples(
        st.sampled_from(("schedule", "at", "after", "after_fn")),
        st.sampled_from(DELAYS + AT_OFFSETS), kids)
    cancel = st.tuples(st.just("cancel"), st.integers(0, 40), st.just(()))
    return st.one_of(timer, timer, cancel)


PROGRAMS = st.lists(
    st.recursive(_ops(st.just(())),
                 lambda inner: _ops(st.lists(inner, max_size=3).map(tuple)),
                 max_leaves=30),
    min_size=1, max_size=10)


def _fire_fn(program, label, kids):
    """A module-level callback: ``after`` stores it without a receiver."""
    program.fire(label, kids)


class Program:
    """Runs a timer program on ``sim``; ``laned`` keeps its ``after``
    calls, otherwise they become ``schedule`` calls."""

    def __init__(self, sim, laned):
        self.sim = sim
        self.laned = laned
        self.handles = []
        self.labels = 0
        self.fired = []

    def run_ops(self, ops):
        sim = self.sim
        for kind, value, kids in ops:
            if kind == "cancel":
                if self.handles:
                    self.handles[value % len(self.handles)].cancel()
                continue
            label = self.labels
            self.labels += 1
            if kind == "schedule":
                self.handles.append(
                    sim.schedule(value, self.fire, label, kids))
            elif kind == "at":
                self.handles.append(
                    sim.schedule_at(sim.now + value, self.fire, label, kids))
            else:
                callback, args = ((self.fire, (label, kids))
                                  if kind == "after"
                                  else (_fire_fn, (self, label, kids)))
                if self.laned:
                    sim.after(value, callback, *args)
                else:
                    sim.schedule(value, callback, *args)

    def fire(self, label, kids):
        sim = self.sim
        self.fired.append((sim.now, label, sim.pending_events,
                           sim.peek_time()))
        self.run_ops(kids)


def execute(ops, laned, observed, until, max_events):
    sim = Simulator(seed=0)
    trace = []
    if observed:
        sim.add_observer(lambda handle: trace.append(
            (handle.time, handle.seq, handle.callback.__qualname__)))
    program = Program(sim, laned)
    program.run_ops(ops)
    stops = [(sim.pending_events, sim.peek_time())]
    for kwargs in (dict(until=until), dict(max_events=max_events), {}):
        sim.run(**kwargs)
        stops.append((sim.now, sim.events_fired, sim.pending_events,
                      len(program.fired)))
    assert sim.pending_events == 0 and not sim._lanes and not sim._heap
    return program.fired, trace, stops, sim._seq


class TestAfterIsSchedule:
    @settings(max_examples=150, deadline=None)
    @given(ops=PROGRAMS, observed=st.booleans(),
           until=st.sampled_from((0.0, 0.5, 1.7, 4.0)),
           max_events=st.integers(0, 6))
    def test_program_matches_schedule_only_run(self, ops, observed, until,
                                                max_events):
        laned = execute(ops, True, observed, until, max_events)
        plain = execute(ops, False, observed, until, max_events)
        assert laned == plain


class TestLanes:
    def test_rearm_from_callback_into_the_same_lane(self):
        sim = Simulator()
        fired = []

        def tick(n):
            fired.append((sim.now, n, sim.pending_events))
            if n < 3:
                sim.after(1.0, tick, n + 1)
        sim.after(1.0, tick, 0)
        sim.run()
        assert fired == [(1.0, 0, 0), (2.0, 1, 0), (3.0, 2, 0),
                         (4.0, 3, 0)]
        assert sim.events_fired == 4 and not sim._lanes

    def test_one_heap_entry_per_lane(self):
        sim = Simulator()
        for _ in range(5):
            sim.after(2.0, lambda: None)
            sim.after(0.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.pending_events == 11
        assert len(sim._heap) == 3 and sorted(sim._lanes) == [0.0, 2.0]
        sim.run(until=1.0)
        assert sim.pending_events == 5 and list(sim._lanes) == [2.0]

    def test_long_lane_trims_and_keeps_order(self):
        """A lane that never drains trims its fired prefix."""
        def run(laned):
            sim = Simulator()
            order = []

            def tick(n):
                order.append((sim.now, n))
                if n < 600:
                    for k in (1, 2):
                        (sim.after if laned else sim.schedule)(
                            3.0, tick, 2 * n + k)
            sim.after(3.0, tick, 0)
            sim.run(max_events=500)
            lane = sim._lanes.get(3.0)
            return order, sim.pending_events, lane
        order, pending, lane = run(True)
        plain_order, plain_pending, _ = run(False)
        assert order == plain_order and pending == plain_pending
        assert lane.head < 500 and len(lane.times) - lane.head == pending

    def test_fired_entries_drop_their_references(self):
        sim = Simulator()
        payload = object()
        for _ in range(3):
            sim.after(1.0, id, payload)
        sim.run(max_events=2)
        lane = sim._lanes[1.0]
        for slots in (lane.funcs, lane.firsts, lane.seconds):
            assert slots[:lane.head] == [None] * lane.head
        assert lane.firsts[lane.head:] == [payload]

    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("bound,extra", [
        (False, 0), (False, 1), (False, 2), (False, 3),
        (True, 0), (True, 1), (True, 2)])
    def test_every_arity_fires_with_its_arguments(self, bound, extra,
                                                  observed):
        """Up to two arguments, a bound method's receiver included, sit
        bare in the lane's slots; three or more are kept as one tuple.
        Each arity reaches the callback, and a sink, unchanged (None
        and tuples among them, so no value passes for a marker)."""
        sim = Simulator()
        got, seen = [], []
        if observed:
            sim.add_observer(lambda handle: seen.append(handle.args))

        class Recorder:
            def record(self, *args):
                got.append(args)
        recorder = Recorder()
        callback = recorder.record if bound \
            else (lambda *args: got.append(args))
        args = (None, (1, 2), ())[:extra]
        for _ in range(2):  # the second entry is read behind the head
            sim.after(1.0, callback, *args)
        sim.run()
        assert got == [args, args]
        lead = (recorder,) if bound else ()
        assert seen == ([lead + args] * 2 if observed else [])

    @pytest.mark.parametrize("delay", [-1.0, float("inf"), float("nan")])
    def test_bad_delay_refused(self, delay):
        with pytest.raises(SimulatorError):
            Simulator().after(delay, lambda: None)

    def test_instrumented_arms_see_a_handle(self):
        sim = Simulator(sanitize=True)
        seen = []
        sim.add_observer(lambda handle: seen.append(
            (handle.time, handle.seq, handle.callback.__qualname__,
             handle.args)))

        class Peer:
            def ping(self, n):
                pass
        peer = Peer()
        sim.schedule(0.5, peer.ping, 0)
        sim.after(1.0, peer.ping, 1)
        sim.after(1.0, _fire_fn, None, 2, ())
        sim.run(max_events=2)
        ping = ("TestLanes.test_instrumented_arms_see_a_handle."
                "<locals>.Peer.ping")
        # A laned bound method shows as its function, receiver first.
        assert seen == [(0.5, 0, ping, (0,)), (1.0, 1, ping, (peer, 1))]
        assert sim.pending_events == 1

    def test_instrumented_owner_events_see_a_handle(self):
        """A transfer and a periodic tick are their own heap entries,
        yet sinks see each with the time, seq and qualname that
        ``schedule`` gave it, the owner as its one argument, and the
        sanitizer's ``on_schedule`` sees every arm."""
        sim = Simulator(sanitize=True)
        seen, armed = [], []
        sim.add_observer(lambda handle: seen.append(
            (handle.time, handle.seq, handle.callback.__qualname__,
             handle.args)))
        check = sim.sanitizer.on_schedule
        sim.sanitizer.on_schedule = lambda time: (armed.append(time),
                                                  check(time))
        task = PeriodicTask(sim, 1.5, lambda: None)
        # 100 KB on one 800 Kbps slot: due at t=1.
        transfer = Uplink(sim, 800.0, 1).try_start(100.0)
        sim.run(until=3.0)
        assert seen == [(1.0, 1, "Transfer._finish", (transfer,)),
                        (1.5, 0, "PeriodicTask._fire", (task,)),
                        (3.0, 2, "PeriodicTask._fire", (task,))]
        assert armed == [1.5, 1.0, 3.0, 4.5]
        assert sim.pending_events == 1 and transfer.done
