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
        config = SimlintConfig(disable=["SL002"])
        assert "SL002" not in config.enabled_rules()
        assert "SL001" in config.enabled_rules()

    def test_load_config_reads_tool_block(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""
            [tool.simlint]
            enable = ["SL001", "SL002"]
            disable = ["SL002"]
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
        # retired ids are unknown, not silently ignored
        for rule_id in ("SL999", "SL004", "SL201", "SL202", "SL203"):
            code = main(["lint", str(tmp_path), "--no-config",
                         "--enable", rule_id])
            err = capsys.readouterr().err
            assert code == 2
            assert rule_id in err

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
        assert len(RULES) >= 5
        assert all_rule_ids()[:5] == ["SL001", "SL002", "SL008",
                                      "SL009", "SL013"]

    def test_rules_have_metadata(self):
        for rule in RULES.values():
            assert rule.id and rule.name and rule.description
