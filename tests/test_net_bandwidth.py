"""Unit tests for the uplink slot model."""

import pytest

from repro.net.bandwidth import Uplink
from repro.sim import Simulator


def make_uplink(capacity=1000.0, slots=4, seed=0):
    sim = Simulator(seed=seed)
    return sim, Uplink(sim, capacity, slots)


class TestSlotModel:
    def test_slot_rate(self):
        _, up = make_uplink(capacity=1000.0, slots=4)
        assert up.slot_rate_kbps == 250.0

    def test_transfer_duration(self):
        sim, up = make_uplink(capacity=1000.0, slots=4)
        done = []
        up.try_start(256.0, lambda t: done.append(sim.now))
        sim.run()
        # 256 KB = 2048 Kbit at 250 Kbps -> 8.192 s
        assert done == [pytest.approx(8.192)]

    def test_slots_limit_concurrency(self):
        sim, up = make_uplink(slots=2)
        assert up.try_start(100, lambda t: None) is not None
        assert up.try_start(100, lambda t: None) is not None
        assert up.try_start(100, lambda t: None) is None
        assert up.idle_slots == 0

    def test_slot_freed_on_completion(self):
        sim, up = make_uplink(slots=1)
        up.try_start(100, lambda t: None)
        sim.run()
        assert up.idle_slots == 1
        assert up.busy_slots == 0

    def test_parallel_transfers_do_not_interfere(self):
        sim, up = make_uplink(capacity=800.0, slots=2)
        times = []
        up.try_start(100.0, lambda t: times.append(sim.now))
        up.try_start(100.0, lambda t: times.append(sim.now))
        sim.run()
        # Each slot runs at 400 Kbps: 800 Kbit / 400 = 2 s, both finish
        # together.
        assert times == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_zero_capacity_never_transfers(self):
        sim, up = make_uplink(capacity=0.0)
        assert up.try_start(100, lambda t: None) is None

    def test_invalid_args_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Uplink(sim, 100.0, n_slots=0)
        with pytest.raises(ValueError):
            Uplink(sim, -1.0)


class TestAccounting:
    def test_kb_sent_accumulates(self):
        sim, up = make_uplink()
        up.try_start(100, lambda t: None)
        up.try_start(50, lambda t: None)
        sim.run()
        assert up.kb_sent == 150.0

    def test_utilization_full_when_saturated(self):
        sim, up = make_uplink(capacity=1000.0, slots=1)
        up.try_start(125.0, lambda t: None)  # exactly 1 s at 1000 Kbps
        sim.run()
        assert up.utilization() == pytest.approx(1.0)

    def test_utilization_half_when_half_idle(self):
        sim, up = make_uplink(capacity=1000.0, slots=1)
        up.try_start(125.0, lambda t: None)
        sim.run()
        sim.schedule(1.0, lambda: None)
        sim.run()  # now = 2 s, only 1 s of work done
        assert up.utilization() == pytest.approx(0.5)

    def test_utilization_zero_capacity(self):
        sim, up = make_uplink(capacity=0.0)
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert up.utilization() == 0.0


class TestCancellation:
    def test_cancel_frees_slot_and_counts_partial(self):
        sim, up = make_uplink(capacity=1000.0, slots=1)
        transfer = up.try_start(125.0, lambda t: None)  # 1 s nominal
        sim.schedule(0.5, transfer.cancel)
        sim.run()
        assert up.idle_slots == 1
        assert up.kb_sent == pytest.approx(62.5)  # half pushed
        assert transfer.cancelled and not transfer.done

    def test_cancel_suppresses_completion_callback(self):
        sim, up = make_uplink(slots=1)
        done = []
        transfer = up.try_start(100, lambda t: done.append(1))
        transfer.cancel()
        sim.run()
        assert done == []

    def test_cancel_after_done_is_noop(self):
        sim, up = make_uplink(slots=1)
        transfer = up.try_start(100, lambda t: None)
        sim.run()
        transfer.cancel()
        assert up.kb_sent == 100.0

    def test_close_cancels_all_and_freezes_window(self):
        sim, up = make_uplink(capacity=1000.0, slots=2)
        up.try_start(125.0, lambda t: None)
        up.try_start(125.0, lambda t: None)
        sim.schedule(0.25, up.close)
        sim.run()
        assert up.closed_at == pytest.approx(0.25)
        assert up.in_flight() == []
        # after close, no new transfers
        assert up.try_start(10, lambda t: None) is None

    def test_utilization_uses_closed_window(self):
        sim, up = make_uplink(capacity=1000.0, slots=1)
        up.try_start(125.0, lambda t: None)  # 1 s
        sim.run()
        up.close()
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert up.utilization() == pytest.approx(1.0)


class TestSwapPopRemoval:
    """The transfer list uses O(1) swap-pop removal, which scrambles
    its physical order; every externally visible surface must still
    present transfers in start order."""

    def test_in_flight_in_start_order_after_middle_cancel(self):
        sim, up = make_uplink(slots=4)
        first = up.try_start(100, lambda t: None)
        middle = up.try_start(100, lambda t: None)
        last = up.try_start(100, lambda t: None)
        middle.cancel()
        assert up.in_flight() == [first, last]

    def test_interleaved_cancels_keep_accounting_consistent(self):
        sim, up = make_uplink(slots=4)
        transfers = [up.try_start(100, lambda t: None)
                     for _ in range(4)]
        transfers[1].cancel()
        transfers[3].cancel()
        assert up.in_flight() == [transfers[0], transfers[2]]
        assert up.busy_slots == 2
        sim.run()
        assert up.in_flight() == []
        assert up.busy_slots == 0
        assert up.kb_sent == pytest.approx(200.0)

    def test_close_after_scramble_counts_partials_deterministically(self):
        # Cancelling the first transfer swap-pops the tail into its
        # slot; close() must still sweep the survivors in start order
        # so kb_sent accumulates in a bit-stable order.
        sim, up = make_uplink(capacity=1000.0, slots=4)
        doomed = up.try_start(100.0, lambda t: None)
        up.try_start(100.0, lambda t: None)
        up.try_start(100.0, lambda t: None)
        doomed.cancel()
        sim.schedule(1.0, up.close)
        sim.run()
        # Two survivors, 31.25 KB/s per slot, closed at t=1.
        assert up.kb_sent == pytest.approx(62.5)
        assert up.in_flight() == []


class TestRetroactiveUtilization:
    """Regression: ``utilization(now=...)`` used to ignore an explicit
    ``now`` once the uplink closed, so sampling a departed peer at an
    earlier time reported the frozen full window."""

    def test_explicit_now_before_close_wins(self):
        sim, up = make_uplink(capacity=800.0, slots=1)
        up.try_start(100.0, lambda t: None)  # 800 Kbit / 800 Kbps = 1 s
        sim.run()
        sim.schedule(9.0, lambda: None)
        sim.run()  # advance the clock to t=10
        up.close()
        # Retroactive sample at t=2: 100 KB over 2 s of 800 Kbps.
        assert up.utilization(now=2.0) == pytest.approx(0.5)
        # The window still never extends past the close.
        assert up.utilization(now=50.0) == pytest.approx(0.1)
        assert up.utilization() == pytest.approx(0.1)

    def test_explicit_now_on_open_uplink_unchanged(self):
        sim, up = make_uplink(capacity=800.0, slots=1)
        up.try_start(100.0, lambda t: None)
        sim.run()
        assert up.utilization(now=2.0) == pytest.approx(0.5)


class TestMinDurationFloor:
    """The network substrate floors delivery at the path time."""

    def test_floor_extends_delivery(self):
        sim, up = make_uplink(capacity=800.0, slots=1)
        done = []
        t = up.try_start(100.0, lambda tr: done.append(sim.now),
                         min_duration_s=5.0)
        sim.run()
        assert done == [pytest.approx(5.0)]
        # The slot is held at the implied lower rate for the window.
        assert t.rate_kbps == pytest.approx(160.0)
        assert t.duration == pytest.approx(5.0)

    def test_floor_below_slot_time_is_inert(self):
        sim, up = make_uplink(capacity=800.0, slots=1)
        done = []
        t = up.try_start(100.0, lambda tr: done.append(sim.now),
                         min_duration_s=0.25)
        sim.run()
        assert done == [pytest.approx(1.0)]
        assert t.rate_kbps == pytest.approx(800.0)

    def test_cancel_credits_partial_at_effective_rate(self):
        sim, up = make_uplink(capacity=800.0, slots=1)
        t = up.try_start(100.0, lambda tr: None, min_duration_s=5.0)
        sim.schedule(2.5, t.cancel)
        sim.run()
        # Half the (floored) window elapsed -> half the piece credited.
        assert up.kb_sent == pytest.approx(50.0)
