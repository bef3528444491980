"""Tests for simrace: effect inference, the SL201–SL203 same-instant
commutativity pass, and the runtime order-sensitivity reporter.

Static half: planted fixtures through :func:`ProjectIndex.build` →
:func:`run_races` must flag conflicting same-instant handlers with the
full schedule-site → handler → field chain, and the real tree must be
clean modulo the checked-in justified baseline.  Runtime half: the
:class:`RaceReporter` must catch conflicting field footprints inside a
same-instant batch (and only there), unpatch cleanly, and surface the
same story through ``run_chaos(races=True)``.
"""

import json
import os
import textwrap

from repro.devtools import sanitizer as sanitizer_mod
from repro.devtools.callgraph import ProjectIndex, render_chain
from repro.devtools.effects import Effect, fields_match, infer_effects
from repro.devtools.output import fingerprint
from repro.devtools.races import run_races
from repro.devtools.sanitizer import RaceReporter
from repro.sim.engine import Simulator, SimulatorError

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
BASELINE = os.path.join(REPO, "simlint-baseline.json")


def build(files):
    return ProjectIndex.build(
        [(path, textwrap.dedent(src)) for path, src in files])


def races_of(files):
    return run_races(build(files))


# ----------------------------------------------------------------------
# effect inference
# ----------------------------------------------------------------------
class TestEffectInference:
    def test_direct_write_and_read(self):
        index = build([
            ("node.py", """
                class Node:
                    def tick(self):
                        self.count = self.count + self.step
            """),
        ])
        effects = {(t.effect.kind, t.effect.owner, t.effect.field)
                   for t in infer_effects(index)["node.Node.tick"]}
        assert ("write", "self", "Node.count") in effects
        assert ("read", "self", "Node.count") in effects
        assert ("read", "self", "Node.step") in effects

    def test_augmented_assign_is_accum(self):
        index = build([
            ("node.py", """
                class Node:
                    def tick(self):
                        self.total += 1
            """),
        ])
        kinds = {t.effect.kind
                 for t in infer_effects(index)["node.Node.tick"]}
        assert "accum" in kinds
        assert "write" not in kinds

    def test_callee_self_effects_demote_to_other(self):
        index = build([
            ("node.py", """
                class Ledger:
                    def bump(self):
                        self.count = self.count + 1

                class Node:
                    def tick(self):
                        self.ledger.bump()
            """),
        ])
        traced = infer_effects(index)["node.Node.tick"]
        writes = [t for t in traced if t.effect.kind == "write"]
        assert writes, "callee write did not propagate"
        assert writes[0].effect.owner == "other"
        # The chain names the hop so diagnostics can render it.
        assert "bump" in render_chain(writes[0].chain)

    def test_mutator_call_and_rng_draw(self):
        index = build([
            ("node.py", """
                class Node:
                    def tick(self):
                        self.queue.append(1)
                        return self.sim.rng.random()
            """),
        ])
        effects = {(t.effect.kind, t.effect.field)
                   for t in infer_effects(index)["node.Node.tick"]}
        assert ("write", "Node.queue") in effects
        assert ("rng", "rng") in effects

    def test_skip_shuffle_is_an_rng_draw(self):
        """``getrandbits`` is the tree's one draw outside the
        ``Random`` convenience methods; a handler reaching
        ``skip_shuffle`` must count as consuming the shared stream."""
        path = os.path.join(SRC, "repro", "sim", "randomness.py")
        with open(path, "r", encoding="utf-8") as fh:
            index = ProjectIndex.build([(path, fh.read())])
        (traced,) = [effects for name, effects
                     in infer_effects(index).items()
                     if name.endswith(".skip_shuffle")]
        assert {(t.effect.kind, t.effect.field) for t in traced} \
            == {("rng", "rng")}

    def test_fields_match_terminal_when_identity_unknown(self):
        assert fields_match(Effect("write", "other", "count"),
                            Effect("read", "self", "Node.ledger.count"))
        assert not fields_match(Effect("write", "other", "count"),
                                Effect("read", "self", "Node.total"))


# ----------------------------------------------------------------------
# planted static races
# ----------------------------------------------------------------------
#: Two same-instant handlers racing on another object's counter via a
#: mutating callee (so the conflict needs the interprocedural hop).
CONFLICTING_WRITES = ("node.py", """
    class Ledger:
        def bump(self, value):
            self.count = value

    class Node:
        def kick(self):
            self.sim.schedule(0, self.on_a)
            self.sim.schedule(0, self.on_b)

        def on_a(self):
            self.ledger.bump(1)

        def on_b(self):
            self.ledger.bump(2)
""")


class TestPlantedStaticRaces:
    def test_conflicting_writes_flagged_with_chain(self):
        findings = races_of([CONFLICTING_WRITES])
        assert [f.rule for f in findings] == ["SL201"]
        message = findings[0].message
        assert "Node.on_a" in message and "Node.on_b" in message
        assert "same" in message and "instant" in message
        # Full schedule-site -> handler -> field chain.
        assert "bump" in message and "count" in message
        assert "node.py:" in message
        # Anchored at the first schedule site so a suppression there
        # silences the pair.
        assert findings[0].line == 8

    def test_read_write_overlap_flagged(self):
        findings = races_of([
            ("node.py", """
                class Ledger:
                    def bump(self):
                        self.count = self.count + 1

                class Node:
                    def kick(self):
                        self.sim.schedule(0, self.writer)
                        self.sim.schedule(0, self.reader)

                    def writer(self):
                        self.ledger.bump()

                    def reader(self):
                        self.seen = self.ledger.count
            """),
        ])
        assert "SL202" in [f.rule for f in findings]
        overlap = next(f for f in findings if f.rule == "SL202")
        assert "depends on whether" in overlap.message

    def test_commutative_accumulation_not_flagged(self):
        findings = races_of([
            ("node.py", """
                class Ledger:
                    def bump(self):
                        self.count += 1

                class Node:
                    def kick(self):
                        self.sim.schedule(0, self.on_a)
                        self.sim.schedule(0, self.on_b)

                    def on_a(self):
                        self.ledger.bump()

                    def on_b(self):
                        self.ledger.bump()
            """),
        ])
        assert findings == []

    def test_distinct_instants_not_flagged(self):
        # Same handlers, but one fires now and one at a literal delay:
        # no shared bucket, no pair.
        findings = races_of([
            ("node.py", """
                class Ledger:
                    def bump(self, value):
                        self.count = value

                class Node:
                    def kick(self):
                        self.sim.schedule(0, self.on_a)
                        self.sim.schedule(5.0, self.on_b)

                    def on_a(self):
                        self.ledger.bump(1)

                    def on_b(self):
                        self.ledger.bump(2)
            """),
        ])
        assert findings == []

    def test_shared_constant_delay_buckets(self):
        findings = races_of([
            ("node.py", """
                INTERVAL = 10.0

                class Ledger:
                    def bump(self, value):
                        self.count = value

                class Node:
                    def kick(self):
                        self.sim.schedule(INTERVAL, self.on_a)
                        self.sim.schedule(INTERVAL, self.on_b)

                    def on_a(self):
                        self.ledger.bump(1)

                    def on_b(self):
                        self.ledger.bump(2)
            """),
        ])
        assert [f.rule for f in findings] == ["SL201"]
        assert "INTERVAL" in findings[0].message

    def test_periodic_rng_handler_unsafe_to_coalesce(self):
        findings = races_of([
            ("node.py", """
                from repro.sim.events import PeriodicTask

                class Node:
                    def start(self):
                        PeriodicTask(self.sim, 10.0, self.tick)

                    def tick(self):
                        self.jitter = self.sim.rng.random()
            """),
        ])
        assert [f.rule for f in findings] == ["SL203"]
        assert "unsafe to coalesce" in findings[0].message
        assert "rng" in findings[0].message

    def test_periodic_pure_self_handler_is_coalescable(self):
        findings = races_of([
            ("node.py", """
                from repro.sim.events import PeriodicTask

                class Node:
                    def start(self):
                        PeriodicTask(self.sim, 10.0, self.tick)

                    def tick(self):
                        self.ticks = self.ticks + 1
            """),
        ])
        assert findings == []


# ----------------------------------------------------------------------
# real tree: clean modulo the checked-in justified baseline
# ----------------------------------------------------------------------
class TestRealTree:
    def test_src_findings_all_baselined(self, monkeypatch):
        # From the repo root on a relative path, as the lint gate runs:
        # messages quote paths, and fingerprints include messages.
        from repro.devtools.analyzer import iter_python_files
        monkeypatch.chdir(REPO)
        files = iter_python_files(["src"])
        sources = []
        for path in files:
            with open(path, "r", encoding="utf-8") as fh:
                sources.append((path, fh.read()))
        findings = run_races(ProjectIndex.build(sources))
        with open(BASELINE, "r", encoding="utf-8") as fh:
            allowed = set(json.load(fh)["fingerprints"])
        unexpected = {fingerprint(f) for f in findings} - allowed
        assert not unexpected, sorted(unexpected)
        # The inventory is non-trivial: the rechoke-family SL201 pairs
        # and the SL203 do-not-coalesce set must actually be found.
        rules = {f.rule for f in findings}
        assert "SL201" in rules and "SL203" in rules


# ----------------------------------------------------------------------
# runtime reporter
# ----------------------------------------------------------------------
class Counter:
    """Watched fixture class (module-level so patching is visible)."""

    def __init__(self):
        self.value = 0
        self.log = []


class TestRaceReporter:
    def _sim(self):
        sim = Simulator(seed=1, sanitize="races")
        sim.races.watch(Counter)
        return sim

    def test_same_instant_write_write_conflict(self):
        sim = self._sim()
        shared = Counter()
        sim.schedule(1.0, lambda: setattr(shared, "value", 1))
        sim.schedule(1.0, lambda: setattr(shared, "value", 2))
        sim.run()
        sim.races.uninstall()
        assert sim.races.total_conflicts == 1
        conflict = sim.races.conflicts[0]
        assert conflict.kind == "write/write"
        assert conflict.field == "value"
        assert conflict.time == 1.0
        # Both provenances name distinct events.
        assert conflict.first.seq != conflict.second.seq

    def test_distinct_instants_do_not_conflict(self):
        sim = self._sim()
        shared = Counter()
        sim.schedule(1.0, lambda: setattr(shared, "value", 1))
        sim.schedule(2.0, lambda: setattr(shared, "value", 2))
        sim.run()
        sim.races.uninstall()
        assert sim.races.total_conflicts == 0

    def test_read_write_conflict_and_describe(self):
        sim = self._sim()
        shared = Counter()
        sim.schedule(1.0, lambda: shared.log.append(shared.value))
        sim.schedule(1.0, lambda: setattr(shared, "value", 7))
        sim.run()
        sim.races.uninstall()
        kinds = {c.kind for c in sim.races.conflicts}
        assert "read/write" in kinds
        desc = sim.races.conflicts[0].describe()
        assert "Counter" in desc and "value" in desc

    def test_distinct_instances_do_not_conflict(self):
        sim = self._sim()
        a, b = Counter(), Counter()
        sim.schedule(1.0, lambda: setattr(a, "value", 1))
        sim.schedule(1.0, lambda: setattr(b, "value", 2))
        sim.run()
        sim.races.uninstall()
        assert sim.races.total_conflicts == 0

    def test_uninstall_restores_class_and_registry(self):
        sim = self._sim()
        sim.races.uninstall()
        assert not sanitizer_mod._PATCHED
        # Attribute access is back to the plain machinery.
        c = Counter()
        c.value = 3
        assert c.value == 3

    def test_summary_counts(self):
        sim = self._sim()
        shared = Counter()
        sim.schedule(1.0, lambda: setattr(shared, "value", 1))
        sim.schedule(1.0, lambda: setattr(shared, "value", 2))
        sim.run()
        sim.races.uninstall()
        summary = sim.races.summary()
        assert summary["events_seen"] == 2
        assert summary["total_conflicts"] == 1
        assert summary["distinct_conflicts"] == 1

    def test_invalid_sanitize_string_rejected(self):
        try:
            Simulator(seed=0, sanitize="chases")
        except SimulatorError as exc:
            assert "races" in str(exc)
        else:
            raise AssertionError("bad sanitize string accepted")

    def test_plain_sim_attaches_nothing(self):
        sim = Simulator(seed=0)
        assert sim.races is None and sim.sanitizer is None


# ----------------------------------------------------------------------
# chaos integration: the dynamic half under fault injection
# ----------------------------------------------------------------------
class TestChaosIntegration:
    def test_chaos_races_flags_conflicts_and_unpatches(self):
        from repro.faults.harness import run_chaos
        chaos = run_chaos(leechers=8, pieces=6, seed=3, races=True)
        assert chaos.passed
        assert chaos.race_reporter is not None
        # The planted dynamic conflict the run is known to contain:
        # same-tick control deliveries both advancing the exchange
        # ledger's transaction counter.
        assert chaos.race_conflict_count > 0
        assert any("ExchangeLedger" in d for d in chaos.race_conflicts)
        assert not sanitizer_mod._PATCHED
        labels = [label for label, _ in chaos.summary_rows()]
        assert "same-instant race conflicts" in labels

    def test_chaos_without_races_has_no_reporter(self):
        from repro.faults.harness import run_chaos
        chaos = run_chaos(leechers=6, pieces=4, seed=1)
        assert chaos.race_reporter is None
        assert chaos.race_conflict_count == 0
        assert chaos.race_conflicts == []
        labels = [label for label, _ in chaos.summary_rows()]
        assert "same-instant race conflicts" not in labels

    def test_chaos_spec_roundtrips_races_flag(self):
        from repro.experiments.parallel import execute_spec
        from repro.faults.harness import chaos_spec
        spec = chaos_spec(leechers=6, pieces=4, seed=3, crashes=1,
                          races=True)
        assert spec.sanitize == "races"
        summary = execute_spec(spec)
        assert summary.race_conflict_count > 0
        assert summary.race_conflicts
        assert not sanitizer_mod._PATCHED
