"""Tests for simheat: hot-region inference, the SL301–SL303
allocation audit and the per-event runtime allocation profiler that
validates it.

Static half: planted fixtures through :func:`ProjectIndex.build` →
:func:`run_simheat` must flag hot-path allocations with the full
seed→function chain, and the real tree must be clean modulo the
checked-in justified baseline.  Runtime half: an ``AllocProfile`` sink
must attribute bytes/blocks to the event types the static pass calls
hot, and a pinned allocation ceiling guards the transfer path.
Baseline hygiene: fingerprints survive line moves, stale entries
surface as SL013 and ``--prune-baseline`` drops them without losing
the notes block.
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
from repro.devtools.sanitizer import AllocProfile
from repro.sim.engine import Simulator

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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
    def test_src_findings_all_baselined_and_no_fixable_rules(
            self, monkeypatch):
        # Through run_deep so inline suppressions apply.  From the repo
        # root with a relative path, as the lint gate runs: messages
        # quote paths, and fingerprints include messages.
        from repro.devtools.deep import run_deep
        monkeypatch.chdir(REPO)
        report = run_deep(["src"], cache_path=None)
        findings = [f for f in report.findings
                    if f.rule.startswith("SL3")]
        assert findings, "simheat found nothing over src"
        with open(BASELINE, "r", encoding="utf-8") as fh:
            allowed = set(json.load(fh)["fingerprints"])
        live = {lint_output.fingerprint(f) for f in findings}
        unexpected = live - allowed
        assert not unexpected, sorted(unexpected)
        rules = {f.rule for f in findings}
        # The reviewed inventory is SL301/SL302 only: every closure
        # was hoisted, so SL303 reappearing is a regression.
        assert "SL301" in rules and "SL302" in rules
        assert "SL303" not in rules


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
        for key in ("files_s", "index_s", "simheat_s"):
            assert key in cold.stats["timings"]
            assert cold.stats["timings"][key] >= 0.0
        # The warm run replays the whole-program pass from cache, so
        # it never pays the index build.
        assert "index_s" not in warm.stats["timings"]


# ----------------------------------------------------------------------
# runtime allocation profiler
# ----------------------------------------------------------------------
def profiled_run(**kwargs):
    """One ``run_swarm`` with an :class:`AllocProfile` sink attached
    for the whole run; returns the closed profile."""
    from repro.experiments.runner import run_swarm
    prof = AllocProfile()
    try:
        run_swarm(setup=lambda swarm: swarm.sim.add_observer(prof),
                  **kwargs)
    finally:
        prof.close()
    return prof


class TestAllocProfiler:
    def test_profile_attributes_by_event_type(self):
        sim = Simulator(seed=0)
        prof = AllocProfile()
        sim.add_observer(prof)
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
            prof.close()

    def test_close_restores_gc_and_is_idempotent(self):
        import gc
        assert gc.isenabled()
        prof = AllocProfile()
        assert not gc.isenabled()
        prof.close()
        assert gc.isenabled()
        prof.close()
        assert gc.isenabled()

    def test_profiler_confirms_static_sl301_regions(self):
        """Runtime cross-check of the static audit: event types whose
        handlers the simheat pass flags (SL301/SL302 over ``src``)
        must show up in a profiled run as measured allocators."""
        with open(BASELINE, "r", encoding="utf-8") as fh:
            flagged_files = {fp.split(":")[1]
                             for fp in json.load(fh)["fingerprints"]
                             if fp.startswith("SL30")}
        assert flagged_files, "no SL3xx inventory to cross-check"
        prof = profiled_run(protocol="tchain", leechers=40, pieces=4,
                            seed=7)
        # Transfer completion drives the transfer path the audit
        # flags (peer.py pump/upload chain); it must be hot at
        # runtime too, with real allocation traffic attributed.
        finish = next(row for name, row in prof.by_event.items()
                      if name.endswith("Transfer._finish"))
        assert finish[0] > 0 and finish[1] > 0
        assert "src/repro/bt/peer.py" in flagged_files


# ----------------------------------------------------------------------
# tier-1 allocation ceiling on the quick crowd
# ----------------------------------------------------------------------
class TestAllocCeiling:
    #: Pinned per-event ceilings for the quick crowd; the transfer
    #: path measures ~700 B/event and ~10 blocks/event, so tripping
    #: these means an O(peers) copy or a new per-event object crept
    #: into it.
    MAX_BYTES_PER_EVENT = 1600.0
    MAX_ALLOCS_PER_EVENT = 20.0

    def test_quick_crowd_allocation_under_ceiling(self):
        prof = profiled_run(protocol="tchain", seed=7, pieces=4,
                            piece_size_kb=64.0, leechers=300,
                            freerider_fraction=0.0, arrival="flash")
        assert prof.events > 1000
        assert prof.bytes_per_event() < self.MAX_BYTES_PER_EVENT, (
            f"{prof.bytes_per_event():.1f} B/event over the "
            f"{self.MAX_BYTES_PER_EVENT} ceiling")
        assert prof.allocs_per_event() < self.MAX_ALLOCS_PER_EVENT, (
            f"{prof.allocs_per_event():.2f} blocks/event over the "
            f"{self.MAX_ALLOCS_PER_EVENT} ceiling")


class TestFootprintCeiling:
    #: Traced-heap peak of the quick crowd in MB, pinned just above
    #: the measured 1.87 MB (2.62 MB while every upload plan carried a
    #: dict, keys, sealed pieces and chains were ``__dict__``-backed,
    #: the ledger's open-exchange index held one set per peer, every
    #: peer kept a set mirroring its uploads' receivers and the chain
    #: registry kept every chain ever made).
    MAX_TRACED_PEAK_MB = 1.95

    def test_quick_crowd_traced_peak_under_ceiling(self):
        import tracemalloc
        from repro.experiments.runner import run_swarm
        crowd = dict(protocol="tchain", pieces=4, piece_size_kb=64.0,
                     freerider_fraction=0.0, arrival="flash")
        # Imports and first-use caches stay out of the window.
        run_swarm(seed=1, leechers=10, **crowd)
        tracemalloc.start()
        try:
            result = run_swarm(seed=7, leechers=300, **crowd)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.completion_rate("leecher") == 1.0
        assert peak / 1e6 < self.MAX_TRACED_PEAK_MB, (
            f"traced peak {peak / 1e6:.3f} MB over the "
            f"{self.MAX_TRACED_PEAK_MB} MB ceiling")


# ----------------------------------------------------------------------
# baseline fingerprints survive line moves
# ----------------------------------------------------------------------
class TestFingerprint:
    @staticmethod
    def _hot(pad, name="on_piece"):
        """One per-event f-string, ``pad`` lines lower in the file and
        ``pad`` lines lower inside its function."""
        filler = "".join(f"        n{i} = {i}\n" for i in range(pad))
        return ("\n" * pad + "class Node:\n"
                f"    def {name}(self, msg):\n" + filler
                + '        self.last = f"piece {msg.index}"\n')

    def _finding(self, source):
        findings = run_simheat(ProjectIndex.build([("node.py", source)]))
        assert [f.rule for f in findings] == ["SL301"]
        return findings[0]

    def test_shifted_finding_keeps_its_fingerprint(self):
        base = self._finding(self._hot(0))
        moved = self._finding(self._hot(7))
        assert moved.line == base.line + 14
        assert moved.message != base.message  # it quotes its line
        assert moved.scope == base.scope == "Node.on_piece"
        assert lint_output.fingerprint(moved) \
            == lint_output.fingerprint(base)

    def test_other_function_gets_another_fingerprint(self):
        base = self._finding(self._hot(0))
        renamed = self._finding(self._hot(0, name="on_have"))
        assert lint_output.fingerprint(renamed) \
            != lint_output.fingerprint(base)

    #: The two CI lint gates (.github/workflows/ci.yml), as CLI args.
    CI_GATES = (
        ["lint", "--strict-suppressions"],
        ["lint", "--deep", "--strict-suppressions",
         "--baseline", "simlint-baseline.json"])
    SHIFTED = ("src/repro/bt/protocols/tchain.py", "src/repro/sim/engine.py")

    def test_ci_gates_stay_clean_when_baselined_files_shift(
            self, tmp_path, monkeypatch):
        """Blank lines on top of two files holding baselined findings
        move every one of them; with the checked-in baseline both
        gates must still exit 0 on the copied tree."""
        import shutil
        with open(BASELINE, "r", encoding="utf-8") as fh:
            recorded = json.load(fh)["fingerprints"]
        for rel in self.SHIFTED:
            assert any(f":{rel}:" in fp for fp in recorded), rel
        for name in ("src", "tests", "examples", "benchmarks"):
            shutil.copytree(os.path.join(REPO, name), tmp_path / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "simlint-baseline.json"):
            shutil.copy(os.path.join(REPO, name), tmp_path / name)
        for rel in self.SHIFTED:
            path = tmp_path / rel
            path.write_text("\n\n\n" + path.read_text(encoding="utf-8"),
                            encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        for gate in self.CI_GATES:
            code = main(gate + ["src/", "tests/", "examples/",
                                "benchmarks/"])
            assert code == 0, gate


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

    LIVE = Finding(rule="SL002", path="a.py", line=3, col=1,
                   message="m", scope="f")
    GONE = "SL301:gone.py:Node.on_piece:per-event allocation"

    def test_stale_entries_surface_as_sl013_warnings(self, tmp_path):
        base = self._baseline(tmp_path, ["SL002:a.py:f:m", self.GONE])
        stale = lint_output.stale_baseline_findings(
            [self.LIVE], lint_output.load_baseline(base), base)
        assert [f.rule for f in stale] == ["SL013"]
        assert stale[0].path == "gone.py"
        assert stale[0].line == 1
        assert self.GONE in stale[0].message
        assert lint_output.severity_of(stale[0]) == "warning"

    def test_no_stale_entries_no_findings(self, tmp_path):
        base = self._baseline(tmp_path, ["SL002:a.py:f:m"])
        assert lint_output.stale_baseline_findings(
            [self.LIVE], lint_output.load_baseline(base), base) == []

    def test_prune_drops_stale_keeps_live_and_notes(self, tmp_path):
        base = self._baseline(tmp_path, ["SL002:a.py:f:m", self.GONE],
                              notes=["why these are justified"])
        dropped = lint_output.prune_baseline(base, [self.LIVE])
        assert dropped == 1
        data = json.loads(open(base).read())
        assert data["fingerprints"] == ["SL002:a.py:f:m"]
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
        from repro.devtools.analyzer import lint_file
        fp = lint_output.fingerprint(lint_file(str(mod))[0])
        base = self._baseline(tmp_path, [fp, self.GONE])
        # Warning pass: the live finding is baselined away, the stale
        # entry surfaces as SL013, and warnings do not fail the gate.
        code = main(["lint", str(mod), "--no-config",
                     "--baseline", base])
        out = capsys.readouterr().out
        assert code == 0
        assert "SL013" in out and self.GONE in out
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

    def test_checked_in_baseline_has_no_stale_entries(self,
                                                      monkeypatch):
        """Every fingerprint in the repo's own baseline corresponds to
        a finding the current tree still produces (the lint gate would
        warn via SL013 otherwise)."""
        from repro.devtools.analyzer import iter_python_files
        monkeypatch.chdir(REPO)
        sources = []
        for path in iter_python_files(["src"]):
            with open(path, "r", encoding="utf-8") as fh:
                sources.append((path, fh.read()))
        index = ProjectIndex.build(sources)
        live = {lint_output.fingerprint(f) for f in run_simheat(index)}
        with open(BASELINE, "r", encoding="utf-8") as fh:
            recorded = set(json.load(fh)["fingerprints"])
        assert recorded - live == set(), sorted(recorded - live)
