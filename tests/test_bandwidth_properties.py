"""Property tests for the uplink: accounting conservation under
arbitrary interleavings of transfers and cancellations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.bandwidth import Uplink
from repro.sim import Simulator


@st.composite
def transfer_script(draw):
    """(size_kb, start_delay, cancel_after or None) triples."""
    return draw(st.lists(st.tuples(
        st.floats(min_value=1.0, max_value=500.0),
        st.floats(min_value=0.0, max_value=50.0),
        st.one_of(st.none(),
                  st.floats(min_value=0.0, max_value=20.0)),
    ), max_size=25))


class TestUplinkConservation:
    @given(transfer_script(),
           st.integers(min_value=1, max_value=6),
           st.floats(min_value=100.0, max_value=5000.0))
    @settings(max_examples=120, deadline=None)
    def test_kb_sent_bounded_and_slots_restored(self, script, slots,
                                                capacity):
        sim = Simulator(seed=1)
        completed = []
        accepted = []
        uplink = Uplink(sim, capacity, n_slots=slots,
                        on_complete=completed.append)

        def try_start(size, cancel_after):
            transfer = uplink.try_start(size)
            if transfer is not None:
                accepted.append((transfer, size))
                if cancel_after is not None:
                    sim.schedule(cancel_after, transfer.cancel)

        for size, delay, cancel_after in script:
            sim.schedule(delay, try_start, size, cancel_after)
        sim.run()

        # Every slot is free again.
        assert uplink.busy_slots == 0
        assert uplink.in_flight() == []

        # kb_sent never exceeds the sum of accepted sizes, and covers
        # at least the completed ones.
        total_accepted = sum(size for _, size in accepted)
        total_completed = sum(t.size_kb for t in completed)
        assert total_completed - 1e-6 <= uplink.kb_sent \
            <= total_accepted + 1e-6

        # kb_sent also never exceeds capacity x elapsed time.
        elapsed = sim.now
        if elapsed > 0:
            assert uplink.kb_sent * 8.0 <= capacity * elapsed + 1e-6
        assert 0.0 <= uplink.utilization() <= 1.0

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_concurrency_never_exceeds_slots(self, slots, attempts):
        sim = Simulator()
        uplink = Uplink(sim, 1000.0, n_slots=slots)
        started = 0
        for _ in range(attempts):
            if uplink.try_start(100.0) is not None:
                started += 1
        assert started == min(slots, attempts)
        assert uplink.busy_slots == started
