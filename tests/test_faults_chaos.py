"""Chaos acceptance tests (ISSUE acceptance criteria).

Under 10% control-message loss, 10% delay, upload stalls and two
seeded unclean crashes, the recovery layer must get every *surviving*
honest leecher to completion with zero sanitizer violations, and the
graceful-degradation counters must be nonzero and reproducible per
seed.

Seeds are pinned: 0 and 2 both exercise the full recovery stack
(retransmits, key timeouts, pleads, reopens, forgives, orphans).

The whole suite is additionally parametrized over three control-plane
latency regimes: the flat default (50 ms), a slow control plane
(250 ms — every report/key/plead round-trip crosses timer windows),
and a jittered network substrate (per-link latency + seeded jitter via
``extra={"net": ...}``).  The recovery invariants must hold verbatim
in all three; only the counter *values* may differ.
"""

import pytest

from repro.faults import run_chaos

#: Pinned seeds; both produce nonzero plead/reopen counters under the
#: default chaos scenario (verified by the reproducibility test).
SEEDS = (0, 2)

#: Control-latency regimes the recovery stack must survive unchanged.
LATENCY_REGIMES = {
    "flat-default": {},
    "slow-control": {"control_latency_s": 0.25},
    "jittered-net": {"extra": {"net": {
        "topology": "star", "nodes": 4,
        "latency_ms": 30.0, "jitter_ms": 20.0}}},
}


@pytest.fixture(scope="module", params=sorted(LATENCY_REGIMES))
def regime_name(request):
    return request.param


@pytest.fixture(scope="module")
def chaos_regime(regime_name):
    return LATENCY_REGIMES[regime_name]


@pytest.fixture(scope="module")
def chaos_runs(chaos_regime):
    return {seed: run_chaos(seed=seed, **chaos_regime)
            for seed in SEEDS}


class TestSurvivorsFinish:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_surviving_honest_leechers_finish(self, chaos_runs,
                                                  seed):
        chaos = chaos_runs[seed]
        assert chaos.all_survivors_finished, [
            (r.peer_id, r.completed) for r in chaos.survivor_records]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_crashes_actually_executed(self, chaos_runs, seed):
        chaos = chaos_runs[seed]
        assert len(chaos.injector.crashed_ids) == 2
        assert chaos.counters.crashes == 2

    @pytest.mark.parametrize("seed", SEEDS)
    def test_crash_victims_did_not_finish_dirty(self, chaos_runs,
                                                seed):
        """Crash victims are excluded from the survivor set, and the
        survivor set is still substantial."""
        chaos = chaos_runs[seed]
        crashed = set(chaos.injector.crashed_ids)
        survivor_ids = {r.peer_id for r in chaos.survivor_records}
        assert not (crashed & survivor_ids)
        assert len(survivor_ids) >= 10


class TestSanitizerHeldThroughout:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sanitizer_watched_and_no_violation_raised(self,
                                                       chaos_runs,
                                                       seed):
        # A SanitizerError (an AssertionError subclass) inside the run
        # would have propagated out of the fixture; reaching here with
        # nonzero checks means the fair-exchange invariant held under
        # loss, delays, stalls and crashes.
        chaos = chaos_runs[seed]
        assert chaos.sanitizer_checks > 0
        assert chaos.passed


class TestRecoveryCountersNonzero:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_faults_were_injected(self, chaos_runs, seed):
        counters = chaos_runs[seed].counters
        assert counters.control_dropped > 0
        assert counters.control_delayed > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_retransmits_pleads_forgives_nonzero(self, regime_name,
                                                 chaos_runs, seed):
        counters = chaos_runs[seed].counters
        assert counters.key_retransmits > 0
        assert counters.forgives > 0
        assert counters.any_recovery
        if regime_name != "flat-default":
            # The full plead/reopen inventory below is a property of
            # the pinned seeds under the *default* timing; slowed or
            # jittered control planes shift which recovery paths fire.
            return
        assert counters.report_retransmits > 0
        assert counters.key_timeouts > 0
        assert counters.pleads > 0
        assert counters.reopens > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ledger_agrees_with_counters(self, chaos_runs, seed):
        """The reopen/forgive counters mirror real ledger activity."""
        chaos = chaos_runs[seed]
        ledger = chaos.result.swarm._tchain_state.ledger
        assert ledger.forgiven_transactions > 0
        assert ledger.completed_transactions > 0


class TestReproduciblePerSeed:
    def test_same_seed_same_counters_and_victims(self, chaos_regime,
                                                 chaos_runs):
        again = run_chaos(seed=SEEDS[0], **chaos_regime)
        first = chaos_runs[SEEDS[0]]
        assert again.counters.as_dict() == first.counters.as_dict()
        assert again.injector.crashed_ids \
            == first.injector.crashed_ids
        assert again.result.swarm.sim.now == first.result.swarm.sim.now

    def test_different_seeds_differ(self, chaos_runs):
        a = chaos_runs[SEEDS[0]].counters.as_dict()
        b = chaos_runs[SEEDS[1]].counters.as_dict()
        assert a != b
