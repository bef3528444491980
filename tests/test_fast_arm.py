"""The fast arm is the observed arm.

``Simulator.run`` has two arms: the inlined pop-and-fire path taken
when nothing is attached, and the instrumented ``step()`` path taken
under an observer, the sanitizer or the allocation profiler.  The
golden traces attach an observer, so they pin the instrumented arm
only; every benchmark workload and every figure runs the other one
(``Swarm.run`` hands its termination rules to ``Simulator.run`` as a
``stop`` predicate and has no loop of its own).  Here each golden
scenario is run both ways and must agree on everything a run leaves
behind, including the generator state and the reason it stopped.
"""

import pytest

from repro.bt.config import SwarmConfig
from repro.bt.swarm import Swarm
from repro.experiments import run_swarm

from tests.test_golden_traces import (
    FLASH,
    GOLDEN,
    PLAIN,
    SYBIL,
    record_rows,
    traced_run,
)

NET = {"net": {"topology": "multi_dc", "loss": 0.02, "jitter_ms": 10.0}}

#: Every key of ``GOLDEN`` with the arguments its own test passes.
SCENARIOS = {
    **{f"flash-{protocol}-{seed}":
       dict(protocol=protocol, seed=seed, **FLASH)
       for protocol in ("tchain", "bittorrent", "propshare",
                        "fairtorrent", "random")
       for seed in (3, 5)},
    **{f"churn-tchain-{seed}": dict(protocol="tchain", seed=seed, **FLASH)
       for seed in (7, 11, 23)},
    **{f"plain-bittorrent-{seed}":
       dict(protocol="bittorrent", seed=seed, **PLAIN)
       for seed in (7, 11, 23)},
    **{f"plain-{protocol}-7": dict(protocol=protocol, seed=7, **PLAIN)
       for protocol in ("propshare", "fairtorrent", "random")},
    "churn-trace": dict(protocol="tchain", seed=5, arrival="trace",
                        leechers=24, pieces=12, freerider_fraction=0.2),
    "net-multi-dc": dict(protocol="tchain", seed=3, leechers=16,
                         pieces=10, freerider_fraction=0.2, extra=NET),
    "sybil": SYBIL,
    "crowd-tchain-120": dict(protocol="tchain", seed=13, leechers=120,
                             pieces=4),
    "crowd-bittorrent-120": dict(protocol="bittorrent", seed=13,
                                 leechers=120, pieces=8,
                                 freerider_fraction=0.25),
}


def leftovers(result):
    """Everything a finished run leaves behind, bit-comparable."""
    swarm = result.swarm
    sim = swarm.sim
    return {
        "events_fired": sim.events_fired,
        "now": sim.now,
        "scheduled": sim._seq,
        "record_rows": record_rows(result),
        "recovery": result.metrics.recovery.as_dict(),
        "net": None if swarm.net is None
        else swarm.net.counters.snapshot(),
        "rng": sim.rng.getstate(),
        "stop_reason": swarm.stop_reason,
    }


def both_arms(**kwargs):
    """``(observed, unobserved)`` leftovers of one scenario."""
    digest, observed = traced_run(**kwargs)
    unobserved = run_swarm(**kwargs)
    assert observed.swarm.sim._observers
    assert not unobserved.swarm.sim._observers
    return digest, leftovers(observed), leftovers(unobserved)


def test_every_golden_scenario_is_covered():
    assert set(SCENARIOS) == set(GOLDEN)


@pytest.mark.parametrize("key", sorted(SCENARIOS))
def test_unobserved_run_equals_the_golden_one(key):
    digest, observed, unobserved = both_arms(**SCENARIOS[key])
    assert digest == GOLDEN[key]  # the observed arm is the pinned one
    assert unobserved == observed


class TestStopReasons:
    """One run per reason, both arms; the final clock feeds
    ``utilization`` in the record rows, so where a stop leaves ``now``
    is part of the contract."""

    def test_drained(self):
        _, observed, unobserved = both_arms(
            **SCENARIOS["flash-bittorrent-5"])
        assert unobserved == observed
        assert unobserved["stop_reason"] == "drained"

    def test_quiescent(self):
        # Starved T-Chain free-riders never finish: only their
        # bookkeeping timers are left when the quiet window closes.
        _, observed, unobserved = both_arms(**SCENARIOS["flash-tchain-3"])
        assert unobserved == observed
        assert unobserved["stop_reason"] == "quiescent"
        assert unobserved["now"] < 1000.0

    def test_max_time_lands_on_the_limit(self):
        _, observed, unobserved = both_arms(
            max_time=40.0, **SCENARIOS["flash-tchain-3"])
        assert unobserved == observed
        assert unobserved["stop_reason"] == "max_time"
        assert unobserved["now"] == 40.0

    @pytest.mark.parametrize("observe", [False, True])
    def test_heap_empty_leaves_the_clock_on_the_last_event(self, observe):
        swarm, fired = bare_swarm(observe, times=(1.0, 2.0, 3.0))
        swarm.run(max_time=100.0)
        assert swarm.stop_reason == "heap_empty"
        assert fired == [1.0, 2.0, 3.0]
        # Not advanced to max_time.
        assert swarm.sim.now == 3.0

    @pytest.mark.parametrize("observe", [False, True])
    def test_one_event_fires_at_exactly_the_limit(self, observe):
        """``now >= limit`` is asked before each event, so of two
        events *at* the limit the first fires and the second does
        not (the rule the deleted loop had)."""
        swarm, fired = bare_swarm(observe, times=(2.0, 5.0, 5.0, 9.0))
        swarm.run(max_time=5.0)
        assert swarm.stop_reason == "max_time"
        assert fired == [2.0, 5.0]
        assert swarm.sim.now == 5.0

    @pytest.mark.parametrize("observe", [False, True])
    def test_drained_wins_over_a_head_beyond_the_limit(self, observe):
        """Drained is asked before ``head_time > limit``: the clock
        stays on the last event instead of jumping to the limit."""
        swarm, fired = bare_swarm(observe, times=(1.0, 50.0),
                                  arrivals_pending=False)
        swarm.active_leechers = 1
        swarm.sim.schedule(1.0, setattr, swarm, "active_leechers", 0)
        swarm.run(max_time=10.0)
        assert swarm.stop_reason == "drained"
        assert fired == [1.0]
        assert swarm.sim.now == 1.0

    def test_reason_is_reset_by_the_next_run(self):
        swarm, _ = bare_swarm(False, times=(1.0, 8.0))
        swarm.run(max_time=4.0)
        assert (swarm.stop_reason, swarm.sim.now) == ("max_time", 4.0)
        swarm.run(max_time=20.0)
        assert (swarm.stop_reason, swarm.sim.now) == ("heap_empty", 8.0)


def bare_swarm(observe, times, arrivals_pending=True):
    """A peerless swarm with plain events at ``times``.  A flagged
    arrival that never happens keeps it from reading as drained or
    quiet, so the run is the engine loop and the limit rules alone."""
    swarm = Swarm(SwarmConfig(n_pieces=4, seed=1))
    assert swarm.stop_reason is None
    fired = []
    for time in times:
        swarm.sim.schedule_at(time, lambda: fired.append(swarm.sim.now))
    if arrivals_pending:
        swarm.note_arrival_scheduled()
    if observe:
        swarm.sim.add_observer(lambda handle: None)
    return swarm, fired
