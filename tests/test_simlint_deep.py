"""Tests for the whole-program layer behind ``repro lint --deep``.

Covers the call graph, the real tree (clean modulo the checked-in
baseline), the findings cache, baseline/JSON/SARIF output, GitHub
annotations and the unused-suppression (SL009) diagnostics.  The
simheat pass has its own suite (``test_simheat.py``).
"""

# simlint: disable-file=SL009 -- fixture snippets below embed
# suppression-comment examples that the raw line scan cannot tell
# apart from live suppressions.

import ast
import dataclasses
import json
import os
import re
import textwrap

from repro.cli import main
from repro.devtools import SuppressionIndex, iter_python_files, lint_source
from repro.devtools.callgraph import ProjectIndex, module_name_for
from repro.devtools.deep import DEEP_RULES, run_deep
from repro.devtools.output import (apply_baseline, fingerprint,
                                   github_annotations, load_baseline,
                                   render_json, render_sarif,
                                   severity_of, write_baseline)
from repro.devtools.rules import Finding

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def build(files):
    return ProjectIndex.build(
        [(path, textwrap.dedent(src)) for path, src in files])


# ----------------------------------------------------------------------
# call graph
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_module_name_for(self):
        assert module_name_for("src/repro/sim/engine.py") \
            == "repro.sim.engine"
        assert module_name_for("helpers.py") == "helpers"

    def test_cross_module_import_resolution(self):
        index = build([
            ("helpers.py", """
                def jitter():
                    return 0.0
            """),
            ("peer.py", """
                from helpers import jitter

                def tick():
                    return jitter()
            """),
        ])
        tick = index.functions["peer.tick"]
        assert [callee for callee, _, _ in tick.calls] == ["helpers.jitter"]

    def test_method_resolution_via_self(self):
        index = build([
            ("node.py", """
                class Node:
                    def helper(self):
                        return 1

                    def run(self):
                        return self.helper()
            """),
        ])
        run = index.functions["node.Node.run"]
        assert [callee for callee, _, _ in run.calls] == ["node.Node.helper"]

    def test_builtin_method_names_never_resolve_by_name(self):
        """A project class defining ``append`` must not capture every
        list append in the project."""
        index = build([
            ("chain.py", """
                class Chain:
                    def append(self, tx):
                        self.transactions = tx
            """),
            ("uplink.py", """
                def try_start(transfers, transfer):
                    transfers.append(transfer)
            """),
        ])
        assert index.functions["uplink.try_start"].calls == []

    def test_src_edges_do_not_depend_on_other_roots(self):
        """Linting tests/examples/benchmarks beside src must neither
        hide a src edge (by-name ambiguity) nor add one into tests."""
        def src_edges(roots):
            sources = []
            for path in iter_python_files(
                    [os.path.join(REPO, root) for root in roots]):
                with open(path, "r", encoding="utf-8") as handle:
                    sources.append((path, handle.read()))
            index = ProjectIndex.build(sources)
            return {qualname: sorted(info.calls)
                    for qualname, info in index.functions.items()
                    if info.path.startswith(SRC)}

        alone = src_edges(["src"])
        assert sum(map(len, alone.values())) > 1000
        assert alone == src_edges(["src", "tests", "examples",
                                   "benchmarks"])


class TestRealTreeClean:
    def test_deep_run_over_src_is_clean_modulo_baseline(self,
                                                        monkeypatch):
        """Simheat exactly baselined, nothing else.

        The SL3xx findings over ``src`` are the reviewed hot-path
        allocation inventory, carried (with rationale) in
        ``simlint-baseline.json``; anything beyond that set is a
        regression this test catches.  Runs from the repo
        root on a relative path, as the lint gate does: messages quote
        paths, and fingerprints include messages.
        """
        monkeypatch.chdir(REPO)
        report = run_deep(["src"], cache_path=None)
        with open("simlint-baseline.json", "r",
                  encoding="utf-8") as handle:
            allowed = set(json.load(handle)["fingerprints"])
        unexpected = [f for f in report.findings
                      if fingerprint(f) not in allowed]
        assert unexpected == [], "\n".join(
            f.format() for f in unexpected)
        # Everything surviving the baseline is simheat inventory; the
        # per-file rules stay finding-free over src.
        assert all(f.rule.startswith("SL3") for f in report.findings)
        assert report.stats["files"] > 50


# ----------------------------------------------------------------------
# deep driver: cache behaviour
# ----------------------------------------------------------------------
class TestDeepCache:
    HOT = textwrap.dedent("""
        import time

        class Node:
            def on_piece(self, msg):
                self.last = self.label(time.time())

            def label(self, stamp):
                return f"piece at {stamp}"
    """)

    def test_warm_run_reuses_and_matches(self, tmp_path):
        mod = tmp_path / "hot.py"
        mod.write_text(self.HOT)
        cache = str(tmp_path / "cache.json")
        cold = run_deep([str(mod)], cache_path=cache)
        warm = run_deep([str(mod)], cache_path=cache)
        assert cold.stats["files_analyzed"] == 1
        assert warm.stats["files_reused"] == 1
        assert warm.stats["project_reused"] is True
        assert warm.findings == cold.findings
        # the wall-clock read is per-file (SL002, ``files`` slot); the
        # allocation one call below a message handler is whole-program
        # (SL301, ``project`` slot)
        assert [f.rule for f in warm.findings] == ["SL002", "SL301"]

    def test_cold_run_parses_each_file_once_warm_run_never(
            self, tmp_path, monkeypatch):
        """One index: a cold run parses every file exactly once (the
        per-file rules and the whole-program passes share the trees);
        a warm run parses nothing."""
        paths = sorted(str(tmp_path / name) for name in ("a.py", "b.py"))
        for path in paths:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(self.HOT)
        cache = str(tmp_path / "cache.json")
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parsed.append(kwargs.get("filename"))
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        run_deep([str(tmp_path)], cache_path=cache)
        assert sorted(parsed) == paths
        parsed.clear()
        warm = run_deep([str(tmp_path)], cache_path=cache)
        assert parsed == []
        assert warm.stats["project_reused"] is True

    def test_edit_invalidates_cache(self, tmp_path):
        mod = tmp_path / "hot.py"
        mod.write_text(self.HOT)
        cache = str(tmp_path / "cache.json")
        run_deep([str(mod)], cache_path=cache)
        mod.write_text(self.HOT.replace("time.time()", "0.5")
                       .replace('f"piece at {stamp}"', "stamp"))
        fixed = run_deep([str(mod)], cache_path=cache)
        assert fixed.stats["files_analyzed"] == 1
        assert fixed.stats["project_reused"] is False
        assert fixed.findings == []


# ----------------------------------------------------------------------
# suppression edge cases + SL009
# ----------------------------------------------------------------------
class TestSuppressionEdgeCases:
    def test_multiple_rule_ids_one_comment_all_used(self):
        src = ("import random  "
               "# simlint: disable=SL001,SL002 -- SL002 is stale\n")
        index = SuppressionIndex("snippet.py", src.splitlines())
        assert lint_source(src, "snippet.py", suppressions=index) == []
        unused = index.filter(index.unused_findings())
        assert len(unused) == 1
        assert unused[0].rule == "SL009"
        assert "SL002" in unused[0].message

    def test_unknown_rule_id_suppresses_nothing(self):
        src = "import random  # simlint: disable=SL999\n"
        index = SuppressionIndex("snippet.py", src.splitlines())
        findings = lint_source(src, "snippet.py", suppressions=index)
        assert [f.rule for f in findings] == ["SL001"]
        unused = index.unused_findings()
        assert [f.rule for f in unused] == ["SL009"]
        assert "SL999" in unused[0].message

    def test_disable_on_continuation_line_does_not_anchor(self):
        """Suppressions anchor to the physical line of the finding;
        a comment on a later continuation line neither suppresses nor
        counts as used."""
        src = ("import time\n"
               "t = time.time(\n"
               ")  # simlint: disable=SL002\n")
        index = SuppressionIndex("snippet.py", src.splitlines())
        findings = lint_source(src, "snippet.py", suppressions=index)
        assert [f.rule for f in findings] == ["SL002"]
        assert findings[0].line == 2
        assert [f.rule for f in index.unused_findings()] == ["SL009"]

    def test_disable_on_reported_line_of_multiline_call(self):
        src = ("import time\n"
               "t = time.time(  # simlint: disable=SL002\n"
               ")\n")
        findings = lint_source(src, "snippet.py")
        assert findings == []

    def test_file_wide_suppression_used_once_not_stale(self):
        src = ("# simlint: disable-file=SL001\n"
               "import random\n"
               "import random as r2\n")
        index = SuppressionIndex("snippet.py", src.splitlines())
        assert lint_source(src, "snippet.py", suppressions=index) == []
        assert index.unused_findings() == []

    def test_unused_findings_ignore_skips_deep_rules(self):
        src = "x = []  # simlint: disable=SL303 -- deep-only\n"
        index = SuppressionIndex("snippet.py", src.splitlines())
        lint_source(src, "snippet.py", suppressions=index)
        assert index.unused_findings(ignore=DEEP_RULES) == []
        # Without the ignore list (the --deep driver's view, where
        # every pass ran) the suppression is provably stale.
        assert [f.rule for f in index.unused_findings()] == ["SL009"]

    def test_plain_cli_ignores_deep_rule_suppressions(self, tmp_path,
                                                      capsys):
        """A plain lint never runs the whole-program passes, so it
        must not flag deep-only suppressions as stale — only --deep
        may."""
        (tmp_path / "mod.py").write_text(
            "x = []  # simlint: disable=SL303 -- hot-path closure\n")
        code = main(["lint", str(tmp_path), "--no-config",
                     "--strict-suppressions"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SL009" not in out

    def test_cli_reports_sl009_as_warning_exit_zero(self, tmp_path,
                                                    capsys):
        (tmp_path / "mod.py").write_text(
            "x = 1  # simlint: disable=SL002\n")
        code = main(["lint", str(tmp_path), "--no-config"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SL009" in out

    def test_strict_suppressions_turns_warning_into_failure(
            self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "x = 1  # simlint: disable=SL002\n")
        code = main(["lint", str(tmp_path), "--no-config",
                     "--strict-suppressions"])
        assert code == 1


# ----------------------------------------------------------------------
# output: formats, baseline, annotations
# ----------------------------------------------------------------------
FINDING = Finding(rule="SL301", path="src/repro/x.py", line=7, col=5,
                  message="per-event allocation in x.on_piece")
WARNING = Finding(rule="SL009", path="src/repro/x.py", line=1, col=1,
                  message="unused suppression")


class TestOutput:
    def test_severity_split(self):
        assert severity_of(FINDING) == "error"
        assert severity_of(WARNING) == "warning"

    def test_json_render(self):
        payload = json.loads(render_json([FINDING, WARNING]))
        assert payload["summary"] == {"total": 2, "errors": 1,
                                      "warnings": 1, "baselined": 0}
        assert payload["findings"][0]["rule"] == "SL301"
        assert payload["findings"][0]["fingerprint"] \
            == "SL301:src/repro/x.py::per-event allocation in x.on_piece"

    def test_sarif_render(self):
        log = json.loads(render_sarif([FINDING]))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "simlint"
        result = run["results"][0]
        assert result["ruleId"] == "SL301"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]
        assert region["artifactLocation"]["uri"] == "src/repro/x.py"
        assert region["region"]["startLine"] == 7

    def test_github_annotation_escaping(self):
        lines = github_annotations([dataclasses.replace(
            FINDING, message="line one\nline two")])
        assert lines[0].startswith(
            "::error file=src/repro/x.py,line=7,col=5,")
        assert "%0A" in lines[0] and "\n" not in lines[0]

    def test_baseline_roundtrip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        write_baseline(path, [FINDING])
        assert load_baseline(path) == {fingerprint(FINDING)}
        kept, baselined = apply_baseline([FINDING, WARNING],
                                         load_baseline(path))
        assert kept == [WARNING]
        assert baselined == 1

    def test_cli_write_then_apply_baseline(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        baseline = str(tmp_path / "baseline.json")
        code = main(["lint", str(tmp_path), "--no-config",
                     "--baseline", baseline, "--write-baseline"])
        assert code == 0
        code = main(["lint", str(tmp_path), "--no-config",
                     "--baseline", baseline])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 baselined" in out

    def test_cli_missing_baseline_is_an_error(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code = main(["lint", str(tmp_path), "--no-config",
                     "--baseline", str(tmp_path / "nope.json")])
        assert code == 2

    def test_cli_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        code = main(["lint", str(tmp_path), "--no-config",
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["summary"]["errors"] == 1

    def test_cli_sarif_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        code = main(["lint", str(tmp_path), "--no-config",
                     "--format", "sarif"])
        log = json.loads(capsys.readouterr().out)
        assert code == 1
        assert log["runs"][0]["results"][0]["ruleId"] == "SL001"

    def test_cli_github_annotations(self, tmp_path, capsys,
                                    monkeypatch):
        monkeypatch.setenv("GITHUB_ACTIONS", "true")
        (tmp_path / "bad.py").write_text("import random\n")
        code = main(["lint", str(tmp_path), "--no-config"])
        out = capsys.readouterr().out
        assert code == 1
        assert "::error file=" in out
        assert "title=simlint SL001" in out

    def test_cli_no_annotations_outside_actions(self, tmp_path,
                                                capsys, monkeypatch):
        monkeypatch.delenv("GITHUB_ACTIONS", raising=False)
        (tmp_path / "bad.py").write_text("import random\n")
        main(["lint", str(tmp_path), "--no-config"])
        assert "::error" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# CLI: --deep end to end, --list-rules catalogue
# ----------------------------------------------------------------------
class TestDeepCli:
    def test_deep_flags_planted_leak_with_chain(self, tmp_path,
                                                capsys):
        (tmp_path / "helpers.py").write_text(textwrap.dedent("""
            def label(msg):
                return f"piece {msg.index}"
        """))
        (tmp_path / "peer.py").write_text(textwrap.dedent("""
            from helpers import label

            class Peer:
                def on_piece(self, msg):
                    self.last = label(msg)
        """))
        code = main(["lint", "--deep", "--no-cache", str(tmp_path),
                     "--no-config"])
        out = capsys.readouterr().out
        assert code == 1
        assert "SL301" in out
        # the chain runs from the message handler into the helper
        assert "Peer.on_piece" in out and "helpers.label" in out
        assert "peer.py:" in out and "helpers.py:" in out

    def test_deep_clean_dir_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code = main(["lint", "--deep", "--no-cache", str(tmp_path),
                     "--no-config"])
        assert code == 0

    def test_list_rules_includes_deep_catalogue(self, capsys):
        code = main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for rule_id in ("SL009", "SL013", "SL301", "SL302", "SL303"):
            assert rule_id in out
        # retired ids are gone
        for rule_id in ("SL003", "SL004", "SL007", "SL011", "SL012", "SL014",
                        "SL201", "SL202", "SL203", "SL304",
                        "SL101", "SL102", "SL103", "SL104",
                        "SL110", "SL111", "SL112"):
            assert rule_id not in out

    def test_devtools_audit_rows_match_registered_rules(self):
        """docs/DEVTOOLS.md's rule audit has one row per rule id ever
        shipped: a row not marked retired names a registered rule, and
        every registered rule has a row."""
        from repro.devtools.rules import all_rule_ids
        verdicts = {}
        other_rows = set()
        with open(os.path.join(REPO, "docs", "DEVTOOLS.md"), "r",
                  encoding="utf-8") as handle:
            for line in handle:
                if not re.match(r"\| SL\d{3} \|", line):
                    continue
                cells = [c.strip() for c in line.strip().strip("|")
                         .split("|")]
                if len(cells) == 6:  # the audit table
                    verdicts[cells[0]] = cells[4]
                else:
                    other_rows.add(cells[0])
        live = {rule_id for rule_id, verdict in verdicts.items()
                if not verdict.startswith("**retired**")}
        assert live == set(all_rule_ids())
        assert other_rows <= live
