"""Tests for simheat: hot-region inference, the SL301–SL304
allocation audit, the per-event runtime allocation profiler that
validates it, and the pooling fixes the audit drove.

Static half: planted fixtures through :func:`ProjectIndex.build` →
:func:`run_simheat` must flag hot-path allocations with the full
seed→function chain, and the real tree must be clean modulo the
checked-in justified baseline.  Runtime half: ``profile="alloc"``
must attribute bytes/blocks to the event types the static pass calls
hot, the EventHandle free-list and plain-piece message pool must be
bit-trace-neutral, and a pinned allocation ceiling guards the
transfer path.  Baseline hygiene: stale entries surface as SL013 and
``--prune-baseline`` drops them without losing the notes block.
"""

import json
import os
import textwrap

from repro.cli import main
from repro.devtools import output as lint_output
from repro.devtools.callgraph import ProjectIndex, render_chain
from repro.devtools.allocsum import run_simheat
from repro.devtools.hotpath import FREQ_EVENT, FREQ_ROUND, infer_hot_regions
from repro.devtools.rules import Finding
from repro.sim.engine import POOL_MAX, Simulator, SimulatorError

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
BASELINE = os.path.join(REPO, "simlint-baseline.json")


def build(files):
    return ProjectIndex.build(
        [(path, textwrap.dedent(src)) for path, src in files])


def heat_of(files):
    return run_simheat(build(files))


# ----------------------------------------------------------------------
# hot-region inference
# ----------------------------------------------------------------------
class TestHotRegions:
    def test_call_now_and_zero_delay_seed_event(self):
        regions = infer_hot_regions(build([
            ("node.py", """
                class Node:
                    def kick(self):
                        self.sim.call_now(self.flush)
                        self.sim.schedule(0, self.drain)

                    def flush(self):
                        pass

                    def drain(self):
                        pass
            """),
        ]))
        assert regions["node.Node.flush"].freq == FREQ_EVENT
        assert regions["node.Node.drain"].freq == FREQ_EVENT

    def test_computed_delay_is_event_constant_delay_is_round(self):
        regions = infer_hot_regions(build([
            ("node.py", """
                class Node:
                    def kick(self):
                        self.sim.schedule(self.size / self.rate,
                                          self.finish)
                        self.sim.schedule(10.0, self.rechoke)

                    def finish(self):
                        pass

                    def rechoke(self):
                        pass
            """),
        ]))
        assert regions["node.Node.finish"].freq == FREQ_EVENT
        assert regions["node.Node.rechoke"].freq == FREQ_ROUND

    def test_periodic_task_callback_is_round(self):
        regions = infer_hot_regions(build([
            ("node.py", """
                from repro.sim.events import PeriodicTask

                class Node:
                    def start(self):
                        PeriodicTask(self.sim, 10.0, self.tick)

                    def tick(self):
                        pass
            """),
        ]))
        assert regions["node.Node.tick"].freq == FREQ_ROUND

    def test_message_handlers_seed_event_lifecycle_hooks_do_not(self):
        regions = infer_hot_regions(build([
            ("node.py", """
                class Node:
                    def on_piece(self, msg):
                        pass

                    def on_join(self, peer):
                        pass
            """),
        ]))
        assert regions["node.Node.on_piece"].freq == FREQ_EVENT
        assert "node.Node.on_join" not in regions

    def test_frequency_propagates_to_callees_with_chain(self):
        regions = infer_hot_regions(build([
            ("node.py", """
                class Node:
                    def on_piece(self, msg):
                        self.record(msg)

                    def record(self, msg):
                        pass
            """),
        ]))
        region = regions["node.Node.record"]
        assert region.freq == FREQ_EVENT
        rendered = render_chain(region.chain)
        assert "protocol message handler" in rendered
        assert "on_piece calls Node.record" in rendered

    def test_hot_scheduler_upgrades_constant_delay_timer(self):
        # A 30 s timeout armed *from a handler* fires per event.
        regions = infer_hot_regions(build([
            ("node.py", """
                class Node:
                    def on_piece(self, msg):
                        self.sim.schedule(30.0, self.expire)

                    def expire(self):
                        pass
            """),
        ]))
        assert regions["node.Node.expire"].freq == FREQ_EVENT

    def test_virtual_dispatch_heats_overrides(self):
        regions = infer_hot_regions(build([
            ("node.py", """
                class Base:
                    def on_piece(self, msg):
                        self.next_step()

                    def next_step(self):
                        pass

                class Sub(Base):
                    def next_step(self):
                        pass
            """),
        ]))
        region = regions["node.Sub.next_step"]
        assert region.freq == FREQ_EVENT
        assert "virtual dispatch" in render_chain(region.chain)

    def test_unscheduled_helper_stays_setup(self):
        regions = infer_hot_regions(build([
            ("node.py", """
                class Node:
                    def __init__(self):
                        self.wire_up()

                    def wire_up(self):
                        pass
            """),
        ]))
        assert "node.Node.wire_up" not in regions


# ----------------------------------------------------------------------
# planted allocation findings
# ----------------------------------------------------------------------
class TestPlantedSimheat:
    def test_per_event_format_flagged_sl301_with_chain(self):
        findings = heat_of([
            ("node.py", """
                class Node:
                    def on_piece(self, msg):
                        self.last = f"piece {msg.index}"
            """),
        ])
        assert [f.rule for f in findings] == ["SL301"]
        message = findings[0].message
        assert "f-string" in message
        assert "hot via:" in message
        assert "protocol message handler" in message
        assert "node.py:" in message

    def test_swarm_scale_copy_flagged_sl302(self):
        findings = heat_of([
            ("node.py", """
                class Node:
                    def on_piece(self, msg):
                        snapshot = list(self.peers)
                        wanted = [p for p in self.pieces if p]
            """),
        ])
        assert [f.rule for f in findings] == ["SL302"]
        assert "O(swarm)-scale" in findings[0].message
        # One finding per (rule, function), anchored at the first site.
        assert "copy" in findings[0].message
        assert "comprehension" in findings[0].message
        assert findings[0].line == 4

    def test_per_event_closure_flagged_sl303_with_hoist_hint(self):
        findings = heat_of([
            ("node.py", """
                class Node:
                    def on_piece(self, msg):
                        self.queue.sort(key=lambda m: m.seq)
            """),
        ])
        assert [f.rule for f in findings] == ["SL303"]
        assert "hoist to setup" in findings[0].message

    def test_poolable_construction_flagged_sl304_with_pool_hint(self):
        findings = heat_of([
            ("node.py", """
                class Node:
                    def on_piece(self, msg):
                        return EventHandle(0.0, 1, msg, (), None)
            """),
        ])
        assert [f.rule for f in findings] == ["SL304"]
        assert "EventHandle free-list" in findings[0].message

    def test_error_paths_and_round_regions_not_flagged(self):
        findings = heat_of([
            ("node.py", """
                class Node:
                    def on_piece(self, msg):
                        if msg is None:
                            raise ValueError(f"bad {self.id}")

                    def kick(self):
                        self.sim.schedule(10.0, self.rechoke)

                    def rechoke(self):
                        self.order = list(self.peers)
            """),
        ])
        assert findings == []

    def test_out_of_scope_trees_skipped(self):
        findings = heat_of([
            ("tests/helper.py", """
                class Node:
                    def on_piece(self, msg):
                        self.last = f"piece {msg.index}"
            """),
        ])
        assert findings == []


# ----------------------------------------------------------------------
# real tree: clean modulo the checked-in justified baseline
# ----------------------------------------------------------------------
class TestRealTreeSimheat:
    def test_src_findings_all_baselined_and_no_fixable_rules(self):
        # Through run_deep so inline suppressions apply (the pool-miss
        # constructions carry justified ``disable=SL304`` comments).
        from repro.devtools.deep import run_deep
        report = run_deep([SRC], cache_path=None)
        findings = [f for f in report.findings
                    if f.rule.startswith("SL3")]
        assert findings, "simheat found nothing over src"
        with open(BASELINE, "r", encoding="utf-8") as fh:
            allowed = set(json.load(fh)["fingerprints"])
        unexpected = set()
        for f in findings:
            rel = os.path.relpath(f.path, REPO).replace(os.sep, "/")
            if f"{f.rule}:{rel}:{f.line}" not in allowed:
                unexpected.add(f"{f.rule}:{rel}:{f.line}")
        assert not unexpected, sorted(unexpected)
        rules = {f.rule for f in findings}
        # The reviewed inventory is SL301/SL302 only: every closure
        # was hoisted and every poolable construction goes through its
        # pool now, so SL303/SL304 reappearing is a regression.
        assert "SL301" in rules and "SL302" in rules
        assert "SL303" not in rules and "SL304" not in rules


# ----------------------------------------------------------------------
# deep driver: simheat caching + per-pass timings
# ----------------------------------------------------------------------
class TestDeepSimheatCache:
    HOT = textwrap.dedent("""
        class Node:
            def on_piece(self, msg):
                self.last = f"piece {msg.index}"
    """)

    def test_warm_run_reuses_simheat_and_matches(self, tmp_path):
        from repro.devtools.deep import run_deep
        mod = tmp_path / "hot.py"
        mod.write_text(self.HOT)
        cache = str(tmp_path / "cache.json")
        cold = run_deep([str(mod)], cache_path=cache)
        warm = run_deep([str(mod)], cache_path=cache)
        assert cold.stats["project_reused"] is False
        assert warm.stats["project_reused"] is True
        assert warm.findings == cold.findings
        assert any(f.rule == "SL301" for f in warm.findings)

    def test_edit_invalidates_simheat(self, tmp_path):
        from repro.devtools.deep import run_deep
        mod = tmp_path / "hot.py"
        mod.write_text(self.HOT)
        cache = str(tmp_path / "cache.json")
        run_deep([str(mod)], cache_path=cache)
        mod.write_text(self.HOT.replace('f"piece {msg.index}"', '""'))
        fixed = run_deep([str(mod)], cache_path=cache)
        assert fixed.stats["project_reused"] is False
        assert [f.rule for f in fixed.findings] == []

    def test_stats_carry_per_pass_timings(self, tmp_path):
        from repro.devtools.deep import run_deep
        mod = tmp_path / "hot.py"
        mod.write_text(self.HOT)
        cache = str(tmp_path / "cache.json")
        cold = run_deep([str(mod)], cache_path=cache)
        warm = run_deep([str(mod)], cache_path=cache)
        for key in ("files_s", "index_s", "races_s", "simheat_s"):
            assert key in cold.stats["timings"]
            assert cold.stats["timings"][key] >= 0.0
        # The warm run replays every whole-program pass from cache, so
        # it never pays the index build.
        assert "index_s" not in warm.stats["timings"]


# ----------------------------------------------------------------------
# runtime allocation profiler
# ----------------------------------------------------------------------
class TestAllocProfiler:
    def test_profile_attributes_by_event_type(self):
        sim = Simulator(seed=0, profile="alloc")
        try:
            garbage = []

            def churn():
                garbage.append([0] * 512)

            def quiet():
                pass

            for _ in range(20):
                sim.schedule(1.0, churn)
                sim.schedule(1.0, quiet)
            sim.run()
            prof = sim.profile
            assert prof.events == 40
            by_event = prof.by_event
            churn_key = next(k for k in by_event if "churn" in k)
            quiet_key = next(k for k in by_event if "quiet" in k)
            assert by_event[churn_key][0] == 20
            # The allocating callback dominates both axes.
            assert by_event[churn_key][1] > by_event[quiet_key][1]
            assert by_event[churn_key][2] > by_event[quiet_key][2]
            summary = prof.summary()
            assert summary["events"] == 40
            assert summary["bytes_per_event"] > 0
        finally:
            sim.profile.close()

    def test_close_restores_gc_and_is_idempotent(self):
        import gc
        assert gc.isenabled()
        sim = Simulator(seed=0, profile="alloc")
        assert not gc.isenabled()
        sim.profile.close()
        assert gc.isenabled()
        sim.profile.close()
        assert gc.isenabled()

    def test_invalid_profile_value_rejected(self):
        try:
            Simulator(seed=0, profile="cpu")
        except SimulatorError as exc:
            assert "alloc" in str(exc)
        else:
            raise AssertionError("bad profile string accepted")

    def test_plain_sim_attaches_no_profiler(self):
        assert Simulator(seed=0).profile is None

    def test_profiler_confirms_static_sl301_regions(self):
        """Runtime cross-check of the static audit: event types whose
        handlers the simheat pass flags (SL301/SL302 over ``src``)
        must show up in a profiled run as measured allocators."""
        from repro.experiments.runner import run_swarm
        with open(BASELINE, "r", encoding="utf-8") as fh:
            flagged_files = {fp.split(":")[1]
                             for fp in json.load(fh)["fingerprints"]
                             if fp.startswith("SL30")}
        assert flagged_files, "no SL3xx inventory to cross-check"
        result = run_swarm(protocol="tchain", leechers=40, pieces=4,
                           seed=7, profile="alloc")
        prof = result.swarm.sim.profile
        # Transfer completion drives the transfer path the audit
        # flags (peer.py pump/upload chain); it must be hot at
        # runtime too, with real allocation traffic attributed.
        finish = next(row for name, row in prof.by_event.items()
                      if name.endswith("Transfer._finish"))
        assert finish[0] > 0 and finish[1] > 0
        assert "src/repro/bt/peer.py" in flagged_files


# ----------------------------------------------------------------------
# pooling: reuse mechanics + trace neutrality
# ----------------------------------------------------------------------
class TestEventHandlePool:
    def test_fired_handles_recycle_and_rearm(self):
        sim = Simulator(seed=0)
        for _ in range(8):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim._pool, "no handle returned to the free-list"
        recycled = sim._pool[-1]
        handle = sim.schedule(2.0, lambda: None)
        assert handle is recycled
        assert handle.pending and not handle.fired

    def test_pool_is_bounded(self):
        sim = Simulator(seed=0)
        for _ in range(POOL_MAX + 200):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert len(sim._pool) <= POOL_MAX

    def test_pool_max_zero_disables_reuse(self, monkeypatch):
        monkeypatch.setattr("repro.sim.engine.POOL_MAX", 0)
        sim = Simulator(seed=0)
        for _ in range(8):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim._pool == []
        assert sim.events_fired == 8

    def test_sanitized_runs_never_recycle(self):
        # Post-mortem tooling relies on handle identity; the sanitizer
        # and race reporter therefore see every handle exactly once.
        sim = Simulator(seed=0, sanitize=True)
        for _ in range(8):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim._pool == []

    def test_held_handles_are_not_recycled(self):
        sim = Simulator(seed=0)
        held = sim.schedule(1.0, lambda: None)
        sim.run()
        assert held not in sim._pool
        assert held.fired


class TestMessagePool:
    def test_acquire_release_roundtrip_reuses_and_reinitializes(self):
        from repro.core.messages import (PlainPieceMessage,
                                         acquire_plain_piece,
                                         release_plain_piece)
        first = acquire_plain_piece(transaction_id="t1", chain_id="c1",
                                    piece_index=3, donor_id="D",
                                    requestor_id="R",
                                    reciprocates="t0")
        assert isinstance(first, PlainPieceMessage)
        release_plain_piece(first)
        second = acquire_plain_piece(transaction_id="t2", chain_id="c2",
                                     piece_index=9, donor_id="E",
                                     requestor_id="S",
                                     reciprocates=None)
        assert second is first
        assert second.transaction_id == "t2"
        assert second.piece_index == 9
        assert second.reciprocates is None


class TestPoolTraceNeutrality:
    def test_pools_on_off_bit_identical_trace(self, monkeypatch):
        from repro.experiments.runner import run_swarm

        def traced():
            rows = []

            def setup(swarm):
                swarm.sim.add_observer(
                    lambda h: rows.append(
                        (h.time, h.seq,
                         getattr(h.callback, "__qualname__",
                                 repr(h.callback)))))

            run_swarm(protocol="tchain", seed=7, leechers=12, pieces=8,
                      freerider_fraction=0.25, setup=setup)
            return rows

        pooled = traced()
        # The unpooled reference: both free-lists capped at zero and
        # emptied, so every handle and plain-piece message is fresh.
        monkeypatch.setattr("repro.sim.engine.POOL_MAX", 0)
        monkeypatch.setattr("repro.core.messages._PLAIN_PIECE_POOL_MAX", 0)
        monkeypatch.setattr("repro.core.messages._PLAIN_PIECE_POOL", [])
        unpooled = traced()
        assert pooled, "observer captured no events"
        assert pooled == unpooled


# ----------------------------------------------------------------------
# tier-1 allocation ceiling on the quick crowd
# ----------------------------------------------------------------------
class TestAllocCeiling:
    #: Pinned per-event ceilings for the quick crowd; the
    #: PR-9 pooled transfer path measures ~1075 B/event and ~14
    #: blocks/event, so tripping these means an O(peers) copy or an
    #: unpooled object crept back into the per-event path.
    MAX_BYTES_PER_EVENT = 1600.0
    MAX_ALLOCS_PER_EVENT = 20.0

    def test_quick_crowd_allocation_under_ceiling(self):
        from repro.experiments.runner import run_swarm
        result = run_swarm(protocol="tchain", seed=7, pieces=4,
                           piece_size_kb=64.0, leechers=300,
                           freerider_fraction=0.0, arrival="flash",
                           profile="alloc")
        prof = result.swarm.sim.profile
        assert prof.events > 1000
        assert prof.bytes_per_event() < self.MAX_BYTES_PER_EVENT, (
            f"{prof.bytes_per_event():.1f} B/event over the "
            f"{self.MAX_BYTES_PER_EVENT} ceiling")
        assert prof.allocs_per_event() < self.MAX_ALLOCS_PER_EVENT, (
            f"{prof.allocs_per_event():.2f} blocks/event over the "
            f"{self.MAX_ALLOCS_PER_EVENT} ceiling")


# ----------------------------------------------------------------------
# stale-baseline detection (SL013) and --prune-baseline
# ----------------------------------------------------------------------
class TestStaleBaseline:
    def _baseline(self, tmp_path, fingerprints, notes=None):
        path = tmp_path / "baseline.json"
        data = {"format": "simlint-baseline", "version": 1,
                "fingerprints": fingerprints}
        if notes is not None:
            data["notes"] = notes
        path.write_text(json.dumps(data))
        return str(path)

    def test_stale_entries_surface_as_sl013_warnings(self, tmp_path):
        live = [Finding(rule="SL002", path="a.py", line=3, col=1,
                        message="m")]
        base = self._baseline(tmp_path, ["SL002:a.py:3",
                                         "SL301:gone.py:44"])
        stale = lint_output.stale_baseline_findings(
            live, lint_output.load_baseline(base), base)
        assert [f.rule for f in stale] == ["SL013"]
        assert stale[0].path == "gone.py"
        assert stale[0].line == 44
        assert "SL301:gone.py:44" in stale[0].message
        assert lint_output.severity_of(stale[0]) == "warning"

    def test_no_stale_entries_no_findings(self, tmp_path):
        live = [Finding(rule="SL002", path="a.py", line=3, col=1,
                        message="m")]
        base = self._baseline(tmp_path, ["SL002:a.py:3"])
        assert lint_output.stale_baseline_findings(
            live, lint_output.load_baseline(base), base) == []

    def test_prune_drops_stale_keeps_live_and_notes(self, tmp_path):
        live = [Finding(rule="SL002", path="a.py", line=3, col=1,
                        message="m")]
        base = self._baseline(tmp_path, ["SL002:a.py:3",
                                         "SL301:gone.py:44"],
                              notes=["why these are justified"])
        dropped = lint_output.prune_baseline(base, live)
        assert dropped == 1
        data = json.loads(open(base).read())
        assert data["fingerprints"] == ["SL002:a.py:3"]
        assert data["notes"] == ["why these are justified"]

    def test_cli_prune_requires_baseline(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code = main(["lint", str(tmp_path), "--no-config",
                     "--prune-baseline"])
        assert code == 2
        assert "--prune-baseline requires --baseline" \
            in capsys.readouterr().err

    def test_cli_reports_stale_then_prunes(self, tmp_path, capsys):
        mod = tmp_path / "bad.py"
        mod.write_text("import random\n")
        fp = f"SL001:{mod}:1"
        base = self._baseline(tmp_path, [fp, "SL301:gone.py:44"])
        # Warning pass: the live finding is baselined away, the stale
        # entry surfaces as SL013, and warnings do not fail the gate.
        code = main(["lint", str(mod), "--no-config",
                     "--baseline", base])
        out = capsys.readouterr().out
        assert code == 0
        assert "SL013" in out and "SL301:gone.py:44" in out
        # Prune pass: the stale entry is removed, the live one kept.
        code = main(["lint", str(mod), "--no-config",
                     "--baseline", base, "--prune-baseline"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pruned 1 stale baseline entry" in out
        data = json.loads(open(base).read())
        assert data["fingerprints"] == [fp]
        # And a re-run is quiet: nothing stale left.
        code = main(["lint", str(mod), "--no-config",
                     "--baseline", base])
        assert code == 0
        assert "SL013" not in capsys.readouterr().out

    def test_checked_in_baseline_has_no_stale_entries(self):
        """Every fingerprint in the repo's own baseline corresponds to
        a finding the current tree still produces (the lint gate would
        warn via SL013 otherwise)."""
        from repro.devtools.analyzer import iter_python_files
        from repro.devtools.races import run_races
        sources = []
        for path in iter_python_files([SRC]):
            with open(path, "r", encoding="utf-8") as fh:
                sources.append((path, fh.read()))
        index = ProjectIndex.build(sources)
        live = set()
        for f in run_races(index) + run_simheat(index):
            rel = os.path.relpath(f.path, REPO).replace(os.sep, "/")
            live.add(f"{f.rule}:{rel}:{f.line}")
        with open(BASELINE, "r", encoding="utf-8") as fh:
            recorded = set(json.load(fh)["fingerprints"])
        assert recorded - live == set(), sorted(recorded - live)
