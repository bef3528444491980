"""Unit tests for the fault-injection subsystem (repro.faults).

Covers plan validation, the injector's substream isolation and
reproducibility, crash semantics (unclean departure vs clean leave)
and the send_control choke point.
"""

import pytest

from repro.faults import (
    FAULT_STREAM_LABEL,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    PeerCrash,
    crash_schedule,
)
from repro.sim.randomness import substream


class TestFaultPlanValidation:
    def test_defaults_are_idle(self):
        plan = FaultPlan()
        assert plan.idle
        assert plan.crashes == ()

    def test_any_rate_defeats_idle(self):
        assert not FaultPlan(control_loss_prob=0.1).idle
        assert not FaultPlan(control_delay_prob=0.1).idle
        assert not FaultPlan(upload_stall_prob=0.1).idle
        assert not FaultPlan(crashes=[PeerCrash(at_s=1.0)]).idle

    @pytest.mark.parametrize("field,value", [
        ("control_loss_prob", -0.1),
        ("control_loss_prob", 1.5),
        ("control_delay_prob", 2.0),
        ("upload_stall_prob", -1.0),
        ("control_delay_s", -1.0),
        ("upload_stall_s", -0.5),
    ])
    def test_bad_rates_rejected(self, field, value):
        with pytest.raises(FaultPlanError):
            FaultPlan(**{field: value})

    def test_negative_crash_time_rejected(self):
        with pytest.raises(FaultPlanError):
            PeerCrash(at_s=-1.0)

    def test_crash_list_tuplified(self):
        plan = FaultPlan(crashes=[PeerCrash(at_s=3.0, peer_id="L1")])
        assert isinstance(plan.crashes, tuple)

    def test_crash_schedule_helper(self):
        crashes = crash_schedule(3, first_s=10.0, spacing_s=5.0)
        assert [c.at_s for c in crashes] == [10.0, 15.0, 20.0]
        assert all(c.peer_id is None for c in crashes)


class TestSubstreamIsolation:
    def test_substream_differs_from_root_stream(self):
        from random import Random
        root = Random(7)
        sub = substream(7, FAULT_STREAM_LABEL)
        assert [root.random() for _ in range(4)] \
            != [sub.random() for _ in range(4)]

    def test_substream_reproducible(self):
        a = substream(7, FAULT_STREAM_LABEL)
        b = substream(7, FAULT_STREAM_LABEL)
        assert [a.random() for _ in range(8)] \
            == [b.random() for _ in range(8)]

    def test_substream_label_sensitive(self):
        a = substream(7, "faults")
        b = substream(7, "other")
        assert [a.random() for _ in range(4)] \
            != [b.random() for _ in range(4)]


class _Counters:
    def __init__(self):
        self.control_dropped = 0
        self.control_delayed = 0
        self.stalls = 0


class _FakeSwarm:
    """Just enough swarm for control_fate/stall_delay unit tests."""

    def __init__(self):
        self.fault_injector = None

        class _M:
            pass

        self.metrics = _M()
        self.metrics.recovery = _Counters()

        class _Sim:
            def schedule_at(self, *a, **k):
                pass

        self.sim = _Sim()


def _fates(injector, n=200):
    return [injector.control_fate("report", "A", "B") for _ in range(n)]


class TestInjectorDeterminism:
    def test_same_seed_same_fates(self):
        plan = FaultPlan(control_loss_prob=0.3, control_delay_prob=0.3)
        a = FaultInjector(plan, seed=5).attach(_FakeSwarm())
        b = FaultInjector(plan, seed=5).attach(_FakeSwarm())
        assert _fates(a) == _fates(b)

    def test_different_seed_different_fates(self):
        plan = FaultPlan(control_loss_prob=0.3, control_delay_prob=0.3)
        a = FaultInjector(plan, seed=5).attach(_FakeSwarm())
        b = FaultInjector(plan, seed=6).attach(_FakeSwarm())
        assert _fates(a) != _fates(b)

    def test_idle_plan_makes_no_draws(self):
        injector = FaultInjector(FaultPlan(), seed=5).attach(_FakeSwarm())
        state_before = injector._draws.getstate()
        assert _fates(injector, 50) == [0.0] * 50
        assert [injector.stall_delay() for _ in range(50)] == [0.0] * 50
        assert injector._draws.getstate() == state_before

    def test_loss_counts_drops(self):
        swarm = _FakeSwarm()
        injector = FaultInjector(FaultPlan(control_loss_prob=1.0),
                                 seed=0).attach(swarm)
        assert _fates(injector, 10) == [None] * 10
        assert swarm.metrics.recovery.control_dropped == 10

    def test_double_attach_refused(self):
        swarm = _FakeSwarm()
        FaultInjector(FaultPlan(), seed=0).attach(swarm)
        with pytest.raises(RuntimeError):
            FaultInjector(FaultPlan(), seed=0).attach(swarm)


class TestCrashSemantics:
    def test_crashed_requestor_settles_its_sealed_pieces(self):
        """``crash()`` skips ``on_leave``; the completed exchanges whose
        sealed pieces the crashed leecher held stayed unsettled in the
        ledger forever."""
        from repro.experiments.runner import run_swarm
        from tests.test_fault_digests import PLAN
        for seed in (3, 7):
            result = run_swarm(protocol="tchain", seed=seed, leechers=24,
                               pieces=10, fault_plan=PLAN)
            crashed = set(result.swarm.fault_injector.crashed_ids)
            assert len(crashed) == 4
            ledger = result.tchain_state.ledger
            assert ledger._unsettled == {}
            # Delivered ones still open will leave when they close.
            assert all(tx.sealed is None for tx in ledger._open.values()
                       if tx.requestor_id in crashed
                       and tx.delivered_at is not None)

    def test_pinned_crash_executes_uncleanly(self):
        from repro.experiments.runner import run_swarm
        plan = FaultPlan(crashes=(PeerCrash(at_s=5.0, peer_id="L2"),))
        departed = {}

        def keep(swarm):
            swarm.on_departed = lambda peer: departed.setdefault(peer.id,
                                                                 peer)
        result = run_swarm(protocol="tchain", leechers=6, pieces=6,
                           seed=3, fault_plan=plan, max_time=60.0,
                           setup=keep)
        injector = result.swarm.fault_injector
        assert injector.crashed_ids == ["L2"]
        victim = departed.get("L2") or result.swarm.find_peer("L2")
        assert victim is not None
        assert victim.crashed
        assert not victim.active

    def test_crash_of_unknown_peer_skipped(self):
        from repro.experiments.runner import run_swarm
        plan = FaultPlan(crashes=(PeerCrash(at_s=5.0,
                                            peer_id="NOPE"),))
        result = run_swarm(protocol="tchain", leechers=4, pieces=4,
                           seed=3, fault_plan=plan, max_time=30.0)
        injector = result.swarm.fault_injector
        assert injector.crashed_ids == []
        assert injector.crashes_skipped == 1

    def test_seeded_victim_reproducible(self):
        from repro.experiments.runner import run_swarm
        plan = FaultPlan(crashes=(PeerCrash(at_s=10.0),))
        ids = []
        for _ in range(2):
            result = run_swarm(protocol="tchain", leechers=8,
                               pieces=6, seed=11, fault_plan=plan,
                               max_time=60.0)
            ids.append(tuple(result.swarm.fault_injector.crashed_ids))
        assert ids[0] == ids[1]
        assert len(ids[0]) == 1


class TestSendControlChokePoint:
    def test_crashed_receiver_never_processes(self):
        """A message in flight to a peer that crashes before delivery
        is suppressed — crashed peers process nothing posthumously."""
        from repro.experiments.runner import run_swarm
        hits = []

        def setup(swarm):
            def probe(swarm=swarm):
                sender = next(iter(swarm.seeders()), None)
                receiver = swarm.find_peer("L2")
                if sender is None or receiver is None:
                    return
                swarm.send_control(sender.id, receiver,
                                   lambda: hits.append("delivered"),
                                   kind="probe")
                receiver.crash()

            swarm.sim.schedule(1.0, probe)

        run_swarm(protocol="tchain", leechers=4, pieces=4, seed=3,
                  setup=setup, max_time=10.0)
        assert hits == []
