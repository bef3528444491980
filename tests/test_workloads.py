"""Tests for arrival models and churn."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.freerider import FreeRiderOptions, make_freerider
from repro.bt.config import SwarmConfig
from repro.bt.protocols import PROTOCOLS
from repro.bt.swarm import Swarm
from repro.experiments.runner import build_config, run_swarm
from repro.workloads.arrivals import (
    ArrivalSchedule,
    flash_crowd,
    poisson_arrivals,
    schedule_arrivals,
)
from repro.workloads.churn import ReplacementChurn
from repro.workloads.trace import (
    redhat9_like_arrival_times,
    redhat9_like_trace,
)


def dummy_factories(n):
    return [object for _ in range(n)]


class TestFlashCrowd:
    def test_all_within_window(self):
        schedule = flash_crowd(dummy_factories(50), Random(1),
                               window_s=10.0)
        assert len(schedule) == 50
        assert all(0 <= t <= 10.0 for t, _ in schedule)

    def test_sorted_by_time(self):
        schedule = flash_crowd(dummy_factories(20), Random(1))
        times = [t for t, _ in schedule]
        assert times == sorted(times)

    def test_last_arrival(self):
        schedule = flash_crowd(dummy_factories(20), Random(1))
        assert schedule.last_arrival == max(t for t, _ in schedule)
        assert ArrivalSchedule([]).last_arrival == 0.0


class TestPoisson:
    def test_count_and_monotonic(self):
        schedule = poisson_arrivals(dummy_factories(30),
                                    Random(2), rate_per_s=1.0)
        times = [t for t, _ in schedule]
        assert len(times) == 30
        assert times == sorted(times)

    def test_rate_matches_roughly(self):
        schedule = poisson_arrivals(dummy_factories(500),
                                    Random(3), rate_per_s=2.0)
        assert schedule.last_arrival == pytest.approx(250.0, rel=0.25)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            poisson_arrivals(dummy_factories(5), Random(1), 0.0)


class TestRedHatTrace:
    def test_exact_count(self):
        times = redhat9_like_arrival_times(100, Random(4))
        assert len(times) == 100
        assert times == sorted(times)

    def test_within_horizon(self):
        times = redhat9_like_arrival_times(100, Random(4),
                                           horizon_s=1000.0)
        assert all(0 <= t <= 1000.0 for t in times)

    def test_front_loaded(self):
        """Release-day surge: more arrivals early than late."""
        times = redhat9_like_arrival_times(1000, Random(5),
                                           horizon_s=1000.0)
        early = sum(1 for t in times if t < 250)
        late = sum(1 for t in times if t > 750)
        assert early > 2 * late

    def test_empty(self):
        assert redhat9_like_arrival_times(0, Random(1)) == []

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            redhat9_like_arrival_times(5, Random(1),
                                       decay_ratio=1.5)

    def test_trace_schedule(self):
        schedule = redhat9_like_trace(dummy_factories(10),
                                      Random(6))
        assert len(schedule) == 10

    @given(st.integers(min_value=1, max_value=200),
           st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_counts_and_bounds_property(self, n, seed):
        times = redhat9_like_arrival_times(n, Random(seed),
                                           horizon_s=500.0)
        assert len(times) == n
        assert all(0.0 <= t <= 500.0 for t in times)


class TestScheduleArrivals:
    def test_peers_join_at_scheduled_times(self):
        config = SwarmConfig(n_pieces=4, seed=7)
        swarm = Swarm(config)
        seeder_cls, leecher_cls = PROTOCOLS["bittorrent"]
        seeder_cls(swarm).join()
        factories = [lambda: leecher_cls(swarm) for _ in range(5)]
        schedule = flash_crowd(factories, swarm.sim.rng, window_s=5.0)
        schedule_arrivals(swarm, schedule)
        assert swarm._pending_arrivals == 5
        swarm.sim.run(until=6.0)
        assert swarm._pending_arrivals == 0
        assert len(swarm.leechers()) == 5


class TestReplacementChurn:
    def test_finished_leechers_are_replaced(self):
        config = SwarmConfig(n_pieces=2, seed=8)
        swarm = Swarm(config)
        seeder_cls, leecher_cls = PROTOCOLS["bittorrent"]
        seeder_cls(swarm).join()
        factories = [lambda: leecher_cls(swarm) for _ in range(6)]
        schedule_arrivals(swarm, flash_crowd(factories, swarm.sim.rng))
        churn = ReplacementChurn(swarm, lambda: leecher_cls(swarm),
                                 horizon_s=120.0)
        swarm.run(max_time=120.0, stop_when_drained=False)
        assert churn.spawned > 0
        assert swarm.finished_leechers > 6  # replacements finished too

    def test_churn_stops_at_horizon(self):
        config = SwarmConfig(n_pieces=2, seed=9)
        swarm = Swarm(config)
        seeder_cls, leecher_cls = PROTOCOLS["bittorrent"]
        seeder_cls(swarm).join()
        factories = [lambda: leecher_cls(swarm) for _ in range(4)]
        schedule_arrivals(swarm, flash_crowd(factories, swarm.sim.rng))
        churn = ReplacementChurn(swarm, lambda: leecher_cls(swarm),
                                 horizon_s=30.0)
        swarm.run(max_time=300.0)
        spawned_at_horizon = churn.spawned
        swarm.run(max_time=400.0)
        assert churn.spawned == spawned_at_horizon


class TestChurnHorizonBoundary:
    """The exact-``horizon_s`` edge: finishes landing *on* the horizon
    must neither spawn a replacement nor leak a pending-arrival count
    (a leaked count would stall ``stop_when_drained`` forever)."""

    def churned_swarm(self, horizon_s=30.0, seed=9):
        config = SwarmConfig(n_pieces=2, seed=seed)
        swarm = Swarm(config)
        seeder_cls, leecher_cls = PROTOCOLS["bittorrent"]
        seeder_cls(swarm).join()
        churn = ReplacementChurn(swarm, lambda: leecher_cls(swarm),
                                 horizon_s=horizon_s)
        return swarm, churn

    def test_finish_exactly_at_horizon_spawns_nothing(self):
        swarm, churn = self.churned_swarm(horizon_s=30.0)
        swarm.sim.schedule(30.0, lambda: churn._replace(None))
        swarm.sim.run(until=60.0)
        assert churn.spawned == 0
        assert swarm._pending_arrivals == 0

    def test_finish_just_before_horizon_still_spawns(self):
        swarm, churn = self.churned_swarm(horizon_s=30.0)
        swarm.sim.schedule(30.0 - 1e-9,
                           lambda: churn._replace(None))
        swarm.sim.run(until=60.0)
        assert churn.spawned == 1
        assert swarm._pending_arrivals == 0
        # the replacement really joined (and had time to finish)
        assert swarm.finished_leechers == 1

    def test_join_landing_on_horizon_drains_pending(self):
        # The hazardous interleaving: the finish fires before the
        # horizon, but its replacement's _join lands at (or past) it.
        # The join must decline to spawn yet still drain the pending
        # count it registered.
        swarm, churn = self.churned_swarm(horizon_s=30.0)

        def scheduled_then_late_join():
            swarm.note_arrival_scheduled()
            churn._join()

        swarm.sim.schedule(30.0, scheduled_then_late_join)
        swarm.sim.run(until=60.0)
        assert swarm._pending_arrivals == 0
        assert len(swarm.leechers()) == 0


def test_churn_arrival_matches_hand_built_swarm():
    """``run_swarm(arrival="churn")`` is the small-file churn swarm
    Fig. 13 used to build by hand: same config, seeder, shuffled
    factories, flash crowd and replacement churn, so the same records."""
    window = 150.0
    for protocol in ("tchain", "bittorrent"):
        for fraction in (0.0, 0.5):
            swarm = Swarm(build_config(protocol, pieces=3,
                                       piece_size_kb=64.0, seed=4))
            seeder_cls, leecher_cls = PROTOCOLS[protocol]
            seeder_cls(swarm).join()
            n_free = round(fraction * 10)
            freerider_cls = make_freerider(leecher_cls,
                                           FreeRiderOptions())

            def compliant():
                return leecher_cls(swarm)

            def freerider():
                return freerider_cls(swarm)

            factories = [compliant] * (10 - n_free) + [freerider] * n_free
            swarm.sim.rng.shuffle(factories)
            schedule_arrivals(swarm, flash_crowd(factories, swarm.sim.rng))
            ReplacementChurn(swarm, compliant, horizon_s=window)
            swarm.run(max_time=window, stop_when_drained=False)
            swarm.metrics.finalize_active(swarm)

            result = run_swarm(protocol=protocol, leechers=10, pieces=3,
                               piece_size_kb=64.0, seed=4,
                               freerider_fraction=fraction,
                               arrival="churn", max_time=window)
            assert result.metrics.records == swarm.metrics.records, \
                (protocol, fraction)
            assert len(result.metrics.records) > 10  # churn replaced
