"""Unit tests for the ``simlint`` static analyzer.

Every rule is exercised with at least one violating and one clean
snippet; suppression comments, config resolution and the CLI exit
codes get their own groups.
"""

# simlint: disable-file=SL009 -- fixture strings below embed
# suppression-comment examples that the raw line scan cannot tell
# apart from live suppressions.

import os
import textwrap

import pytest

from repro.cli import main
from repro.devtools import (
    RULES,
    all_rule_ids,
    lint_paths,
    lint_source,
)
from repro.devtools.config import SimlintConfig, load_config


def rules_of(source, path="snippet.py", enabled=None):
    """The sorted rule ids found in a source string."""
    src = textwrap.dedent(source)
    return sorted({f.rule for f in lint_source(src, path=path,
                                               enabled=enabled)})


class TestSL001GlobalRandom:
    def test_plain_import_flagged(self):
        assert rules_of("import random\n") == ["SL001"]

    def test_aliased_import_flagged(self):
        assert rules_of("import random as rnd\n") == ["SL001"]

    def test_from_import_of_global_function_flagged(self):
        assert rules_of("from random import choice\n") == ["SL001"]
        assert rules_of("from random import shuffle as sh\n") == ["SL001"]

    def test_seeded_random_class_clean(self):
        assert rules_of("""
            from random import Random
            rng = Random(42)
            x = rng.random()
        """) == []

    def test_other_modules_clean(self):
        assert rules_of("import heapq\nfrom math import sqrt\n") == []


class TestSL002WallClock:
    def test_time_time_flagged(self):
        assert rules_of("import time\nt = time.time()\n") == ["SL002"]

    def test_perf_counter_flagged(self):
        assert rules_of(
            "import time\nt = time.perf_counter()\n") == ["SL002"]

    def test_datetime_now_flagged(self):
        assert rules_of("""
            from datetime import datetime
            stamp = datetime.now()
        """) == ["SL002"]

    def test_aliased_datetime_resolved_through_imports(self):
        assert rules_of("""
            from datetime import datetime as dt
            stamp = dt.now()
        """) == ["SL002"]

    def test_simulator_clock_clean(self):
        assert rules_of("""
            def elapsed(sim, start):
                return sim.now - start
        """) == []

    def test_unrelated_now_method_clean(self):
        # `self.clock.now()` is not one of the wall-clock callables.
        assert rules_of("""
            def f(self):
                return self.clock.now()
        """) == []


class TestSL003SetIteration:
    def test_for_over_set_feeding_schedule_flagged(self):
        assert rules_of("""
            def pump(sim, peers):
                ready = set(peers)
                for p in ready:
                    sim.schedule(1.0, p.poke)
        """) == ["SL003"]

    def test_set_literal_into_rng_choice_flagged(self):
        assert rules_of("""
            def pick(self, peers):
                return self.rng.choice(list({p for p in peers}))
        """) == ["SL003"]

    def test_comprehension_over_set_feeding_rng_flagged(self):
        assert rules_of("""
            def jitter(self, ids):
                pending = frozenset(ids)
                return [self.rng.random() for i in pending]
        """) == ["SL003"]

    def test_sorted_set_clean(self):
        assert rules_of("""
            def pump(sim, peers):
                ready = set(peers)
                for p in sorted(ready):
                    sim.schedule(1.0, p.poke)
        """) == []

    def test_set_iteration_without_rng_or_schedule_clean(self):
        assert rules_of("""
            def total(sizes):
                pending = set(sizes)
                return sum(s for s in pending)
        """) == []


class TestSL004TimeEquality:
    def test_eq_on_now_flagged(self):
        assert rules_of("""
            def due(self, t):
                return self.now == t
        """) == ["SL004"]

    def test_neq_on_underscore_at_flagged(self):
        assert rules_of("""
            def moved(self, t):
                return self.delivered_at != t
        """) == ["SL004"]

    def test_ordering_comparison_clean(self):
        assert rules_of("""
            def due(self, t):
                return self.now >= t
        """) == []

    def test_none_comparison_not_flagged(self):
        assert rules_of("""
            def closed(self):
                return self.closed_at == None
        """) == []

    def test_non_time_names_clean(self):
        assert rules_of("""
            def same(self, count):
                return self.count == count
        """) == []


class TestSL005MutableDefault:
    def test_list_default_flagged(self):
        assert rules_of("def f(x, acc=[]):\n    acc.append(x)\n") \
            == ["SL005"]

    def test_dict_and_set_defaults_flagged(self):
        findings = lint_source(
            "def f(a={}, b=set()):\n    pass\n", path="s.py")
        assert [f.rule for f in findings] == ["SL005", "SL005"]

    def test_none_default_clean(self):
        assert rules_of("""
            def f(x, acc=None):
                acc = acc if acc is not None else []
                return acc
        """) == []

    def test_immutable_defaults_clean(self):
        assert rules_of("def f(a=0, b=(), c='x', d=None):\n    pass\n") \
            == []


class TestSL006CallbackArity:
    def test_method_callback_missing_args_flagged(self):
        assert rules_of("""
            class Peer:
                def on_timer(self, a, b):
                    pass
                def arm(self, sim):
                    sim.schedule(1.0, self.on_timer, 1)
        """) == ["SL006"]

    def test_module_function_extra_args_flagged(self):
        assert rules_of("""
            def cb(a):
                pass
            def arm(sim):
                sim.schedule_at(5.0, cb, 1, 2)
        """) == ["SL006"]

    def test_call_now_arity_checked(self):
        assert rules_of("""
            def cb():
                pass
            def arm(sim):
                sim.call_now(cb, "extra")
        """) == ["SL006"]

    def test_matching_arity_and_defaults_clean(self):
        assert rules_of("""
            class Peer:
                def on_timer(self, a, b=0):
                    pass
                def arm(self, sim):
                    sim.schedule(1.0, self.on_timer, 1)
                    sim.call_now(self.on_timer, 1, 2)
        """) == []

    def test_vararg_callback_clean(self):
        assert rules_of("""
            def cb(*args):
                pass
            def arm(sim):
                sim.schedule(1.0, cb, 1, 2, 3)
        """) == []

    def test_unresolvable_callback_skipped(self):
        # Callbacks from other modules cannot be checked statically.
        assert rules_of("""
            def arm(sim, other):
                sim.schedule(1.0, other.callback, 1, 2, 3)
        """) == []


class TestSL007FaultsDirectRng:
    def test_rng_attribute_in_faults_flagged(self):
        assert rules_of("""
            def fate(self):
                return self.swarm.sim.rng.random()
        """, path="src/repro/faults/injector.py") == ["SL007"]

    def test_bare_rng_name_in_faults_flagged(self):
        assert rules_of("""
            def fate(rng):
                return rng.random()
        """, path="src/repro/faults/plan.py") == ["SL007"]

    def test_substream_draws_clean(self):
        assert rules_of("""
            from repro.sim.randomness import substream
            class FaultInjector:
                def __init__(self, seed):
                    self._draws = substream(seed, "faults")
                def fate(self):
                    return self._draws.random()
        """, path="src/repro/faults/injector.py") == []

    def test_rng_outside_faults_clean(self):
        source = """
            def fate(self):
                return self.sim.rng.random()
        """
        assert rules_of(source,
                        path="src/repro/bt/protocols/tchain.py") == []

    def test_faults_must_be_a_directory_component(self):
        # A *file* named faults.py is not a faults package; and a
        # directory merely containing the substring does not match.
        assert rules_of("x = rng.random()\n",
                        path="src/repro/faults.py") == []
        assert rules_of("x = rng.random()\n",
                        path="src/defaults/thing.py") == []

    def test_windows_separators_normalized(self):
        assert rules_of("x = rng.random()\n",
                        path="src\\repro\\faults\\x.py") == ["SL007"]

    def test_real_faults_package_is_clean(self):
        import glob
        package = os.path.join(os.path.dirname(__file__), "..",
                               "src", "repro", "faults")
        paths = sorted(glob.glob(os.path.join(package, "*.py")))
        assert paths
        findings = lint_paths(paths)
        assert [f for f in findings if f.rule == "SL007"] == []


class TestSL008AdHocParallelism:
    def test_executor_import_flagged(self):
        assert rules_of(
            "from concurrent.futures import ProcessPoolExecutor\n",
            path="src/repro/experiments/runner.py") == ["SL008"]

    def test_multiprocessing_import_flagged(self):
        assert rules_of("import multiprocessing\n",
                        path="src/repro/bt/swarm.py") == ["SL008"]
        assert rules_of("from multiprocessing import Pool\n",
                        path="src/repro/bt/swarm.py") == ["SL008"]

    def test_attribute_reference_flagged(self):
        assert rules_of("""
            import concurrent.futures as cf
            pool = cf.ProcessPoolExecutor(4)
        """, path="src/repro/analysis/stats.py") == ["SL008"]

    def test_choke_point_module_exempt(self):
        assert rules_of("""
            from concurrent.futures import ProcessPoolExecutor
            import multiprocessing
        """, path="src/repro/experiments/fabric/supervisor.py") == []

    def test_parallel_module_no_longer_exempt(self):
        assert rules_of(
            "from concurrent.futures import ProcessPoolExecutor\n",
            path="src/repro/experiments/parallel.py") == ["SL008"]

    def test_other_parallel_named_file_not_exempt(self):
        assert rules_of(
            "import multiprocessing\n",
            path="src/repro/net/parallel.py") == ["SL008"]

    def test_thread_pool_clean(self):
        assert rules_of(
            "from concurrent.futures import ThreadPoolExecutor\n",
            path="src/repro/analysis/stats.py") == []

    def test_fabric_supervisor_also_exempt(self):
        assert rules_of("""
            from concurrent.futures import ProcessPoolExecutor
        """, path="src/repro/experiments/fabric/supervisor.py") == []

    def test_other_fabric_files_not_exempt(self):
        assert rules_of(
            "import multiprocessing\n",
            path="src/repro/experiments/fabric/manifest.py") == ["SL008"]

    def test_real_parallel_module_is_only_user(self):
        src_root = os.path.join(os.path.dirname(__file__), "..", "src")
        findings = lint_paths([src_root])
        assert [f for f in findings if f.rule == "SL008"] == []


class TestSL011AdHocSweepState:
    def test_open_write_flagged(self):
        assert rules_of("""
            def save(path, data):
                with open(path, "w") as fh:
                    fh.write(data)
        """, path="src/repro/experiments/runner.py") == ["SL011"]

    def test_append_and_exclusive_modes_flagged(self):
        for mode in ("a", "x", "r+", "wb"):
            assert rules_of(
                f'fh = open("state.json", "{mode}")\n',
                path="src/repro/experiments/fig3.py") == ["SL011"], mode

    def test_keyword_mode_flagged(self):
        assert rules_of(
            'fh = open("state.json", mode="w")\n',
            path="src/repro/experiments/fig3.py") == ["SL011"]

    def test_os_replace_and_rename_flagged(self):
        assert rules_of("""
            import os
            os.replace("a.tmp", "a.json")
        """, path="src/repro/experiments/parallel.py") == ["SL011"]
        assert rules_of("""
            import os
            os.rename("a.tmp", "a.json")
        """, path="src/repro/experiments/parallel.py") == ["SL011"]

    def test_pathlib_writes_flagged(self):
        assert rules_of(
            'target.write_text("{}")\n',
            path="src/repro/experiments/fig7.py") == ["SL011"]
        assert rules_of(
            'target.write_bytes(b"")\n',
            path="src/repro/experiments/fig7.py") == ["SL011"]

    def test_reads_clean(self):
        assert rules_of("""
            with open("report.json") as fh:
                fh.read()
            with open("report.json", "r", encoding="utf-8") as fh:
                fh.read()
        """, path="src/repro/experiments/parallel.py") == []

    def test_fabric_package_exempt(self):
        snippet = """
            import os
            def atomic(path, data):
                with open(path + ".tmp", "wb") as fh:
                    fh.write(data)
                os.replace(path + ".tmp", path)
        """
        for name in ("checkpoint.py", "manifest.py", "supervisor.py"):
            path = f"src/repro/experiments/fabric/{name}"
            assert rules_of(snippet, path=path) == []

    def test_outside_experiments_clean(self):
        assert rules_of(
            'fh = open("peers.csv", "w")\n',
            path="src/repro/analysis/persist.py") == []

    def test_real_experiments_tree_clean(self):
        package = os.path.join(os.path.dirname(__file__), "..",
                               "src", "repro", "experiments")
        findings = lint_paths([package])
        assert [f for f in findings if f.rule == "SL011"] == []


class TestSL012PerPeerObjectScan:
    def test_for_loop_over_peers_values_flagged(self):
        assert rules_of("""
            def scan(self):
                for peer in self.swarm.peers.values():
                    peer.pump()
        """, path="src/repro/bt/choking.py") == ["SL012"]

    def test_comprehension_over_peers_items_flagged(self):
        assert rules_of("""
            def actives(self):
                return [p for _, p in self.peers.items() if p.active]
        """, path="src/repro/bt/protocols/tchain.py") == ["SL012"]

    def test_bare_peers_values_flagged(self):
        assert rules_of("""
            def scan(peers):
                for p in peers.values():
                    p.pump()
        """, path="src/repro/bt/swarm.py") == ["SL012"]

    def test_outside_bt_package_clean(self):
        snippet = """
            def scan(self):
                for peer in self.swarm.peers.values():
                    peer.pump()
        """
        assert rules_of(snippet,
                        path="src/repro/experiments/runner.py") == []
        assert rules_of(snippet,
                        path="src/repro/analysis/tables.py") == []

    def test_non_peers_iteration_clean(self):
        assert rules_of("""
            def scan(self):
                for book in self.books.values():
                    book.refresh()
        """, path="src/repro/bt/swarm.py") == []

    def test_suppression_honoured(self):
        assert rules_of("""
            def metrics(self):
                return [p for p in self.peers.values()  # simlint: disable=SL012 -- cold path
                        if p.kind == "seeder"]
        """, path="src/repro/bt/swarm.py") == []

    def test_real_bt_package_clean_modulo_suppressions(self):
        package = os.path.join(os.path.dirname(__file__), "..",
                               "src", "repro", "bt")
        findings = lint_paths([package])
        assert [f for f in findings if f.rule == "SL012"] == []


class TestSL014AdHocDelivery:
    def test_other_objects_method_scheduled_flagged(self):
        assert rules_of("""
            def notify(self, receiver, payload):
                self.sim.schedule(0.05, receiver.on_payload, payload)
        """, path="src/repro/bt/peer.py") == ["SL014"]

    def test_schedule_at_and_call_now_flagged(self):
        assert rules_of("""
            def notify(self, donor, when):
                self.sim.schedule_at(when, donor.on_report, 1, True)
                self.sim.call_now(donor.on_report, 1, True)
        """, path="src/repro/bt/protocols/tchain.py") == ["SL014"]

    def test_self_callbacks_clean(self):
        assert rules_of("""
            def arm(self):
                self.sim.schedule(1.0, self._retry, 1)
                self.sim.schedule(1.0, self.flow.on_window_change, "a")
        """, path="src/repro/bt/peer.py") == []

    def test_module_level_timer_clean(self):
        assert rules_of("""
            def arm(self, state):
                self.sim.schedule(5.0, _check_stall, state, 3)
        """, path="src/repro/bt/protocols/tchain.py") == []

    def test_swarm_choke_point_exempt(self):
        assert rules_of("""
            def send_control(self, receiver, handler, *args):
                self.sim.schedule(0.05, receiver.on_report, *args)
        """, path="src/repro/bt/swarm.py") == []

    def test_outside_bt_package_clean(self):
        assert rules_of("""
            def notify(self, receiver, payload):
                self.sim.schedule(0.05, receiver.on_payload, payload)
        """, path="src/repro/faults/injector.py") == []

    def test_suppression_honoured(self):
        assert rules_of("""
            def notify(self, receiver, payload):
                self.sim.schedule(0.05, receiver.on_payload, payload)  # simlint: disable=SL014 -- test shim
        """, path="src/repro/bt/peer.py") == []

    def test_real_bt_package_clean(self):
        package = os.path.join(os.path.dirname(__file__), "..",
                               "src", "repro", "bt")
        findings = lint_paths([package])
        assert [f for f in findings if f.rule == "SL014"] == []


class TestSuppression:
    def test_line_suppression(self):
        assert rules_of(
            "import random  # simlint: disable=SL001\n") == []

    def test_line_suppression_with_reason(self):
        assert rules_of(
            "import random  # simlint: disable=SL001 -- frozen legacy\n"
        ) == []

    def test_line_suppression_only_hides_named_rule(self):
        src = "import random  # simlint: disable=SL002\n"
        assert rules_of(src) == ["SL001"]

    def test_file_suppression(self):
        assert rules_of("""
            # simlint: disable-file=SL001
            import random
        """) == []

    def test_disable_all(self):
        assert rules_of(
            "import random  # simlint: disable=all\n") == []

    def test_multiple_rules_in_one_comment(self):
        src = ("import random  "
               "# simlint: disable=SL001,SL002 -- both\n")
        assert rules_of(src) == []


class TestAnalyzer:
    def test_syntax_error_reported_as_sl000(self):
        findings = lint_source("def broken(:\n", path="bad.py")
        assert [f.rule for f in findings] == ["SL000"]

    def test_enabled_subset_respected(self):
        src = "import random\nimport time\nt = time.time()\n"
        assert rules_of(src, enabled=["SL002"]) == ["SL002"]

    def test_findings_sorted_and_formatted(self):
        findings = lint_source(
            "import random\nimport time\nt = time.time()\n",
            path="mod.py")
        assert [f.line for f in findings] == sorted(
            f.line for f in findings)
        assert findings[0].format().startswith("mod.py:1:")

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "bad.py").write_text("import random\n")
        (tmp_path / "pkg" / "good.py").write_text("x = 1\n")
        findings = lint_paths([str(tmp_path)])
        assert len(findings) == 1
        assert findings[0].rule == "SL001"


class TestConfig:
    def test_defaults_enable_all_rules(self):
        config = SimlintConfig()
        assert config.enabled_rules() == all_rule_ids()

    def test_disable_subtracts(self):
        config = SimlintConfig(disable=["SL004"])
        assert "SL004" not in config.enabled_rules()
        assert "SL001" in config.enabled_rules()

    def test_load_config_reads_tool_block(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""
            [tool.simlint]
            enable = ["SL001", "SL005"]
            disable = ["SL005"]
            paths = ["lib"]
            exclude = ["lib/vendor"]
        """))
        config = load_config(str(tmp_path))
        assert config.enabled_rules() == ["SL001"]
        assert config.paths == ["lib"]
        assert config.exclude == ["lib/vendor"]

    def test_load_config_without_block_gives_defaults(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        config = load_config(str(tmp_path))
        assert config.enabled_rules() == all_rule_ids()

    def test_repo_pyproject_declares_simlint(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        config = load_config(here)
        assert config.source is not None
        assert "SL001" in config.enabled_rules()


class TestCli:
    def test_lint_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code = main(["lint", str(tmp_path), "--no-config"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 findings" in out

    def test_lint_violations_exit_nonzero(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        code = main(["lint", str(tmp_path), "--no-config"])
        out = capsys.readouterr().out
        assert code == 1
        assert "SL001" in out

    def test_disable_flag_suppresses_rule(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        code = main(["lint", str(tmp_path), "--no-config",
                     "--disable", "SL001"])
        assert code == 0

    def test_unknown_rule_id_is_an_error(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        code = main(["lint", str(tmp_path), "--no-config",
                     "--enable", "SL999"])
        err = capsys.readouterr().err
        assert code == 2
        assert "SL999" in err

    def test_missing_path_is_an_error(self, capsys):
        code = main(["lint", "/no/such/dir", "--no-config"])
        err = capsys.readouterr().err
        assert code == 2
        assert "/no/such/dir" in err

    def test_list_rules(self, capsys):
        code = main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for rule_id in all_rule_ids():
            assert rule_id in out

    def test_repo_source_tree_is_lint_clean(self):
        src_root = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src")
        findings = lint_paths([src_root])
        assert findings == [], "\n".join(f.format() for f in findings)


class TestRegistry:
    def test_rules_registered(self):
        assert len(RULES) >= 7
        assert all_rule_ids()[:7] == ["SL001", "SL002", "SL003",
                                      "SL004", "SL005", "SL006",
                                      "SL007"]

    def test_rules_have_metadata(self):
        for rule in RULES.values():
            assert rule.id and rule.name and rule.description
