"""File/tree analysis driver for ``simlint``.

Runs the registered rules (:mod:`repro.devtools.rules`) over source
files and filters the findings through suppression comments:

* line suppression — trailing comment on the *reported* line::

      x = time.time()  # simlint: disable=SL002 -- benchmarking reason

* file suppression — a comment anywhere (conventionally the top)::

      # simlint: disable-file=SL002

``disable=all`` suppresses every rule.  An optional ``-- reason``
after the rule list documents *why*; the linter keeps it out of the
match but reviewers should insist on it.
"""

from __future__ import annotations

# simlint: disable-file=SL009 -- the module docstring above shows
# suppression-comment syntax examples, which the raw line scan cannot
# tell apart from live suppressions.

import ast
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.devtools.rules import RULES, FileContext, Finding

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(disable|disable-file)\s*=\s*"
    r"([A-Za-z0-9_,\s]+?)\s*(?:--.*)?$")


class SuppressionIndex:
    """The suppression comments of one file, with usage tracking.

    Every suppression that :meth:`filter` actually applies to a
    finding is marked *used*; :meth:`unused_findings` turns the
    leftovers into SL009 diagnostics — a stale ``disable=`` comment
    hides nothing today but will silently swallow the next real
    finding on that line.
    """

    def __init__(self, path: str, lines: Sequence[str]):
        self.path = path
        #: (lineno, kind, rule-or-"all"); kind is "line" or "file"
        self.declared: List[tuple] = []
        self._used: Set[tuple] = set()
        self.file_wide: Set[str] = set()
        self.by_line: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(lines, start=1):
            if "simlint" not in line:
                continue
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            kind, spec = match.group(1), match.group(2)
            rules = {r.strip().upper()
                     if r.strip().lower() != "all" else "all"
                     for r in spec.split(",") if r.strip()}
            if kind == "disable-file":
                self.file_wide |= rules
                scope = "file"
            else:
                self.by_line.setdefault(lineno, set()).update(rules)
                scope = "line"
            for rule in rules:
                self.declared.append((lineno, scope, rule))

    def suppresses(self, finding: Finding) -> bool:
        """True when a comment hides ``finding`` (marks it used)."""
        hit = None
        if "all" in self.file_wide:
            hit = ("file", "all")
        elif finding.rule in self.file_wide:
            hit = ("file", finding.rule)
        else:
            line_rules = self.by_line.get(finding.line, ())
            if "all" in line_rules:
                hit = ("line", "all", finding.line)
            elif finding.rule in line_rules:
                hit = ("line", finding.rule, finding.line)
        if hit is None:
            return False
        self._used.add(hit)
        return True

    def filter(self, findings: Iterable[Finding]) -> List[Finding]:
        return [f for f in findings if not self.suppresses(f)]

    def unused_findings(self,
                        ignore: Iterable[str] = ()) -> List[Finding]:
        """SL009 diagnostics for suppressions that matched nothing.

        ``ignore`` names rules whose passes did not run this
        invocation (the deep-only ids on a plain lint): their
        suppressions cannot be proven stale, so they are skipped
        instead of flagged.
        """
        skip = set(ignore)
        out = []
        for lineno, scope, rule in self.declared:
            if rule in skip:
                continue
            key = ("file", rule) if scope == "file" \
                else ("line", rule, lineno)
            if key in self._used:
                continue
            kind = "disable-file" if scope == "file" else "disable"
            out.append(Finding(
                rule="SL009", path=self.path, line=lineno, col=1,
                message=(f"unused suppression `# simlint: "
                         f"{kind}={rule}` — no {rule} finding here; "
                         f"remove it before it hides a real one")))
        return out


def lint_source(source: str, path: str = "<string>",
                enabled: Optional[Iterable[str]] = None,
                suppressions: Optional[SuppressionIndex] = None,
                ) -> List[Finding]:
    """Lint one source string; returns unsuppressed findings sorted by
    location.  A syntax error becomes a single ``SL000`` finding.

    Passing a :class:`SuppressionIndex` lets the caller accumulate
    suppression *usage* across several passes (the deep driver filters
    its own findings through the same index before asking it for
    unused-suppression diagnostics).
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [syntax_error_finding(path, exc)]
    if suppressions is None:
        suppressions = SuppressionIndex(path, source.splitlines())
    return suppressions.filter(raw_findings(path, source, tree, enabled))


def syntax_error_finding(path: str, exc: SyntaxError) -> Finding:
    """The ``SL000`` finding for a file that does not parse."""
    return Finding(rule="SL000", path=path, line=exc.lineno or 1,
                   col=(exc.offset or 0) + 1,
                   message=f"syntax error: {exc.msg}")


def raw_findings(path: str, source: str, tree: ast.Module,
                 enabled: Optional[Iterable[str]] = None
                 ) -> List[Finding]:
    """Per-file rule findings for one parsed file, with *no*
    suppression filtering."""
    rule_ids = sorted(enabled) if enabled is not None else sorted(RULES)
    ctx = FileContext(path, source, tree)
    findings: Set[Finding] = set()
    for rule_id in rule_ids:
        rule = RULES.get(rule_id)
        if rule is None:
            continue
        findings.update(rule.check(ctx))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def lint_file(path: str,
              enabled: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint one file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path=path, enabled=enabled)


def iter_python_files(paths: Sequence[str],
                      exclude: Sequence[str] = ()) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in ("__pycache__",) and not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.append(os.path.join(dirpath, name))
    def excluded(candidate: str) -> bool:
        norm = candidate.replace(os.sep, "/")
        return any(part and part in norm for part in exclude)
    return sorted(c for c in dict.fromkeys(out) if not excluded(c))


def lint_paths(paths: Sequence[str],
               enabled: Optional[Iterable[str]] = None,
               exclude: Sequence[str] = ()) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``."""
    findings: List[Finding] = []
    for path in iter_python_files(paths, exclude=exclude):
        findings.extend(lint_file(path, enabled=enabled))
    return findings


def format_findings(findings: Sequence[Finding]) -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines = [f.format() for f in findings]
    count = len(findings)
    lines.append(f"simlint: {count} finding{'s' if count != 1 else ''}")
    return "\n".join(lines)
