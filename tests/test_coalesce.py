"""Timer-coalescing suite: TimerHerd, CoalesceGate, swarm.periodic.

The coalescing optimizer (ROADMAP item 1) may batch N same-interval
periodic handlers behind one heap entry ONLY when the handler is
absent from the SL203 do-not-coalesce inventory in
``simlint-baseline.json`` (simrace proved those handlers' same-instant
effects do not commute).  These tests pin:

* the herd mechanics (one heap entry, sorted-key firing order, member
  stop, empty-herd timer shutdown, duplicate-key rejection);
* the gate decisions against the *real* checked-in baseline — every
  SL203-listed handler refused, the unlisted T-Chain registry sampler
  permitted;
* the conservative failure modes (missing/corrupt baseline refuses
  everything);
* the swarm wiring: coalescing off by default, on demand only the
  permitted handler lands in a herd while listed handlers keep their
  private ``PeriodicTask``.
"""

import json
import os

import pytest

from repro.experiments import run_swarm
from repro.sim.engine import (
    CoalesceGate,
    Simulator,
    SimulatorError,
    TimerHerd,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO_ROOT, "simlint-baseline.json")


class TestTimerHerd:
    def test_n_members_one_heap_entry(self):
        sim = Simulator(seed=1)
        herd = TimerHerd(sim, 10.0)
        fired = []
        for key in ("c", "a", "b"):
            herd.add(key, lambda k=key: fired.append(k))
        assert herd.size == 3
        assert sim.pending_events == 1  # ONE entry for all three
        sim.run(until=10.5)
        assert fired == ["a", "b", "c"]  # sorted-key order

    def test_duplicate_key_rejected(self):
        sim = Simulator(seed=1)
        herd = TimerHerd(sim, 5.0)
        herd.add("x", lambda: None)
        with pytest.raises(SimulatorError):
            herd.add("x", lambda: None)

    def test_member_stop_and_empty_herd_shutdown(self):
        sim = Simulator(seed=1)
        herd = TimerHerd(sim, 10.0)
        fired = []
        m1 = herd.add("a", lambda: fired.append("a"))
        m2 = herd.add("b", lambda: fired.append("b"))
        sim.run(until=10.5)
        assert fired == ["a", "b"]
        m1.stop()
        assert not m1.running and m2.running
        sim.run(until=20.5)
        assert fired == ["a", "b", "b"]
        m2.stop()
        assert herd.size == 0
        # The herd cancelled its timer: nothing left to keep the
        # simulation alive.
        sim.run(until=100.0)
        assert fired == ["a", "b", "b"]
        assert m1.fire_count == 1 and m2.fire_count == 2

    def test_mid_cycle_join_fires_on_herd_phase(self):
        sim = Simulator(seed=1)
        herd = TimerHerd(sim, 10.0)
        fired = []
        herd.add("a", lambda: fired.append(("a", sim.now)))
        sim.run(until=7.0)
        herd.add("b", lambda: fired.append(("b", sim.now)))
        sim.run(until=10.5)
        # b joined at t=7 but fires at the herd's tick, t=10 — the
        # phase shift that makes coalescing opt-in.
        assert fired == [("a", 10.0), ("b", 10.0)]

    def test_first_delay(self):
        sim = Simulator(seed=1)
        herd = TimerHerd(sim, 10.0, first_delay=0.0)
        fired = []
        herd.add("a", lambda: fired.append(sim.now))
        sim.run(until=10.5)
        assert fired == [0.0, 10.0]

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            TimerHerd(Simulator(seed=1), 0.0)


class TestCoalesceGate:
    def test_missing_baseline_refuses_everything(self):
        gate = CoalesceGate.from_baseline("/no/such/file.json")
        assert not gate.permits(lambda: None)

    def test_corrupt_baseline_refuses_everything(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("not json at all")
        gate = CoalesceGate.from_baseline(str(path))
        assert not gate.permits(lambda: None)

    def test_unresolvable_entry_refuses_whole_file(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text("x = 1\n")  # no PeriodicTask at line 1
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(
            {"fingerprints": ["SL203:mod.py:1"]}))
        gate = CoalesceGate.from_baseline(str(path))

        namespace = {}
        code = compile("def handler():\n    pass\n",
                       str(src), "exec")
        exec(code, namespace)
        assert not gate.permits(namespace["handler"])

    def test_real_baseline_refuses_listed_handlers(self):
        """Every SL203-listed handler must be refused by name."""
        gate = CoalesceGate.from_baseline(BASELINE)

        from repro.bt.protocols.bittorrent import BitTorrentLeecher

        captured = {}

        def setup(swarm):
            def grab():
                captured["leecher"] = next(
                    p for p in swarm.peers.values()
                    if isinstance(p, BitTorrentLeecher))

            swarm.sim.schedule(5.0, grab)

        run_swarm(protocol="bittorrent", seed=3, leechers=4,
                  pieces=4, setup=setup)
        leecher = captured["leecher"]
        assert not gate.permits(leecher._rescan)       # Peer._rescan
        assert not gate.permits(leecher._rechoke)
        assert not gate.permits(leecher._rotate_optimistic)

    def test_real_baseline_permits_unlisted_sampler(self):
        gate = CoalesceGate.from_baseline(BASELINE)
        result = run_swarm(protocol="tchain", seed=3, leechers=4,
                           pieces=4)
        state = result.swarm._tchain_state
        # The PeriodicTask fallback holds the sampler lambda.
        assert gate.permits(state._sampler.callback)

    def test_real_baseline_resolves_without_refuse_all(self):
        """The checked-in baseline must stay analyzable: every SL203
        fingerprint resolves to a concrete callback name (no
        REFUSE_ALL fallback), so the gate refuses by name rather than
        blanket-refusing files."""
        gate = CoalesceGate.from_baseline(BASELINE)
        assert not gate._refuse_all
        assert gate._entries, "baseline yielded no SL203 entries"
        for _path, name in gate._entries:
            assert name is not CoalesceGate.REFUSE_ALL


class TestSwarmWiring:
    def test_coalescing_off_by_default(self):
        result = run_swarm(protocol="tchain", seed=3, leechers=4,
                           pieces=4)
        assert result.swarm._coalesce_gate is None
        assert result.swarm._herds == {}

    def test_opt_in_coalesces_only_the_sampler(self):
        from repro.sim.engine import HerdMember
        from repro.sim.events import PeriodicTask

        snapshots = {}

        def setup(swarm):
            def probe():
                snapshots["herds"] = {
                    key: sorted(herd._members)
                    for key, herd in swarm._herds.items()}

            swarm.sim.schedule(15.0, probe)

        result = run_swarm(protocol="tchain", seed=7, leechers=6,
                           pieces=5, setup=setup,
                           extra={"coalesce_timers": True})
        swarm = result.swarm
        # The unlisted registry sampler joined a herd...
        state = swarm._tchain_state
        assert isinstance(state._sampler, HerdMember)
        assert state._sampler.fire_count > 0
        # ...and it was the only member: every SL203-listed rescan
        # kept its private PeriodicTask.
        assert any(members == ["tchain:sampler"]
                   for members in snapshots["herds"].values())
        for members in snapshots["herds"].values():
            assert all(m == "tchain:sampler" for m in members)
        for peer in swarm.peers.values():
            task = getattr(peer, "_rescan_task", None)
            if task is not None:
                assert isinstance(task, PeriodicTask)

    def test_coalesced_run_completes(self):
        result = run_swarm(protocol="tchain", seed=7, leechers=8,
                           pieces=6,
                           extra={"coalesce_timers": True})
        done = [r for r in result.metrics.records
                if r.kind == "leecher" and r.finish_time is not None]
        assert len(done) == 8

    def test_custom_baseline_path_honoured(self, tmp_path):
        path = tmp_path / "empty-baseline.json"
        path.write_text(json.dumps({"fingerprints": []}))
        result = run_swarm(protocol="tchain", seed=3, leechers=4,
                           pieces=4,
                           extra={"coalesce_timers": True,
                                  "coalesce_baseline": str(path)})
        gate = result.swarm._coalesce_gate
        assert gate is not None
        # Empty inventory: everything is permitted.
        assert gate.permits(lambda: None)
