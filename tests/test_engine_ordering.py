"""Property tests pinning the same-instant FIFO contract.

The whole simrace story (static SL2xx checks, runtime RaceReporter)
reasons about *batches* of events sharing one timestamp, on the
premise that the engine fires them strictly in schedule (seq) order —
and keeps doing so across cancellation and lazy deletion.  These tests
pin that premise under generated workloads so an engine refactor
cannot silently weaken it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

#: Few distinct times so generated plans collide heavily.
TIMES = (1.0, 1.0, 2.0, 2.5, 2.5, 2.5, 4.0)


def _noop():
    pass


#: One plan entry per event: (time index, cancel?, nest same-instant?).
plans = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(TIMES) - 1),
              st.booleans(),
              st.booleans()),
    min_size=1, max_size=40)


def _execute(plan, pad_dead=False):
    """Run a plan; returns (trace, expected_top_level, nested_labels).

    Each plan entry schedules one labelled event; cancelled entries
    are cancelled before the run.  Entries with the nest flag fire a
    nested event at the *same instant* (delay 0) from inside their
    callback.  ``pad_dead`` pads the heap with 300 doomed events,
    cancelled before the run, ahead of the plan's own cancels.
    """
    sim = Simulator(seed=9)
    trace = []

    def fire(label):
        trace.append(label)

    def fire_and_nest(label):
        trace.append(label)
        sim.schedule(0.0, fire, ("nested", label))

    handles = []
    for i, (time_index, cancel, nest) in enumerate(plan):
        callback = fire_and_nest if (nest and not cancel) else fire
        handles.append((sim.schedule(TIMES[time_index], callback, i),
                        cancel))
    if pad_dead:
        doomed = [sim.schedule(1000.0, _noop) for _ in range(300)]
        for handle in doomed:
            handle.cancel()
    for handle, cancel in handles:
        if cancel:
            handle.cancel()
    sim.run()

    expected = [i for i, (time_index, cancel, _) in sorted(
        enumerate(plan), key=lambda item: TIMES[item[1][0]])
        if not cancel]  # stable sort by time == same-instant FIFO
    nested = [("nested", i) for i, (_, cancel, nest) in enumerate(plan)
              if nest and not cancel]
    return trace, expected, nested


class TestSameInstantFIFO:
    @given(plans)
    @settings(max_examples=120, deadline=None)
    def test_top_level_events_fire_in_stable_time_order(self, plan):
        trace, expected, _ = _execute(plan)
        top_level = [label for label in trace
                     if not isinstance(label, tuple)]
        assert top_level == expected

    @given(plans)
    @settings(max_examples=120, deadline=None)
    def test_nested_same_instant_events_fire_last_in_batch(self, plan):
        trace, _, nested = _execute(plan)
        assert sorted(n for n in trace if isinstance(n, tuple)) \
            == sorted(nested)
        for label in nested:
            parent = label[1]
            parent_time = TIMES[plan[parent][0]]
            after = trace[trace.index(label) + 1:]
            # Nothing scheduled *before the run* for the same instant
            # may fire after the nested event: it joined the batch at
            # the highest seq, so it closes it (modulo other nested
            # events from the same batch).
            for other in after:
                if isinstance(other, tuple):
                    continue
                assert TIMES[plan[other][0]] > parent_time

    @given(plans)
    @settings(max_examples=60, deadline=None)
    def test_order_survives_compaction_and_lazy_deletion(self, plan):
        # Dead padding entries change the heap's shape, never the order.
        padded = _execute(plan, pad_dead=True)
        assert padded[0] == _execute(plan)[0]
