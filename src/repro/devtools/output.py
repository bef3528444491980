"""Report rendering and baseline handling for ``repro lint``.

Three renderers over the same finding list:

* ``text`` — the classic one-line-per-finding console format;
* ``json`` — a stable machine-readable envelope for tooling;
* ``sarif`` — minimal SARIF 2.1.0 for code-scanning upload.

Plus two CI affordances:

* GitHub workflow annotations (``::error file=...``) emitted when the
  ``GITHUB_ACTIONS`` environment variable is set, so findings land
  inline on PR diffs;
* a baseline file of finding fingerprints
  (``RULE:path:scope:message``, see :func:`fingerprint`) for
  staged adoption — baselined findings are reported as suppressed
  counts, not failures.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.devtools.rules import RULES, Finding

#: Rules that warn rather than fail the run (see ``--strict-suppressions``).
WARNING_RULES = frozenset({"SL009", "SL013"})

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def severity_of(finding: Finding) -> str:
    return "warning" if finding.rule in WARNING_RULES else "error"


_DIGITS = re.compile(r"[0-9]+")


def fingerprint(finding: Finding) -> str:
    """Stable identity used by baseline files:
    ``RULE:path:scope:message``, every digit run in the message
    masked as ``#``.

    No line or column, and the line numbers a message quotes are
    masked: a finding that moves inside its function (code added or
    removed above it) keeps its fingerprint.
    """
    path = finding.path.replace(os.sep, "/")
    message = _DIGITS.sub("#", finding.message)
    return f"{finding.rule}:{path}:{finding.scope}:{message}"


def load_baseline(path: str) -> Set[str]:
    """Read a baseline file; returns the set of fingerprints.

    Accepts ``{"fingerprints": [...]}`` (the written format) and, for
    hand-edited files, a bare JSON list.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict):
        entries = data.get("fingerprints", [])
    else:
        entries = data
    if not isinstance(entries, list):
        raise ValueError(f"{path}: baseline must be a list of fingerprints")
    return {str(e) for e in entries}


def write_baseline(path: str, findings: Sequence[Finding]) -> None:
    payload = {
        "format": "simlint-baseline",
        "version": 1,
        "fingerprints": sorted({fingerprint(f) for f in findings}),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def apply_baseline(findings: Sequence[Finding], baseline: Set[str],
                   ) -> Tuple[List[Finding], int]:
    """Split findings into (kept, number suppressed by the baseline)."""
    kept = [f for f in findings if fingerprint(f) not in baseline]
    return kept, len(findings) - len(kept)


def stale_baseline_findings(findings: Sequence[Finding],
                            baseline: Set[str],
                            baseline_path: str) -> List[Finding]:
    """SL013 warnings for baseline entries that match no finding.

    The mirror image of SL009 for baseline files: a fingerprint that
    suppressed nothing this run is a standing grant waiting to
    swallow a *future* finding with the same fingerprint.  Each stale
    entry anchors at the top of the file it names.
    """
    live = {fingerprint(f) for f in findings}
    out: List[Finding] = []
    for entry in sorted(baseline - live):
        path = entry.partition(":")[2].partition(":")[0]
        out.append(Finding(
            rule="SL013", path=path or baseline_path, line=1, col=1,
            message=(f"baseline entry `{entry}` in {baseline_path} "
                     f"matches no current finding; prune with "
                     f"--prune-baseline")))
    return out


def prune_baseline(path: str, findings: Sequence[Finding]) -> int:
    """Drop baseline entries that match no finding; returns the count.

    Rewrites only the ``fingerprints`` list — ``notes`` and any other
    hand-maintained keys survive.  Accepts the bare-list format too
    (rewritten as a bare list).
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    live = {fingerprint(f) for f in findings}
    if isinstance(data, dict):
        entries = data.get("fingerprints", [])
        kept = [e for e in entries if str(e) in live]
        dropped = len(entries) - len(kept)
        if dropped:
            data["fingerprints"] = kept
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(data, handle, indent=2, sort_keys=False)
                handle.write("\n")
        return dropped
    kept = [e for e in data if str(e) in live]
    dropped = len(data) - len(kept)
    if dropped:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(kept, handle, indent=2)
            handle.write("\n")
    return dropped


def render_text(findings: Sequence[Finding], baselined: int = 0) -> str:
    lines = [f.format() for f in findings]
    count = len(findings)
    summary = f"simlint: {count} finding{'s' if count != 1 else ''}"
    if baselined:
        summary += f" ({baselined} baselined)"
    lines.append(summary)
    return "\n".join(lines)


def _finding_dict(finding: Finding) -> Dict[str, object]:
    return {
        "rule": finding.rule,
        "path": finding.path.replace(os.sep, "/"),
        "line": finding.line,
        "col": finding.col,
        "severity": severity_of(finding),
        "message": finding.message,
        "fingerprint": fingerprint(finding),
    }


def render_json(findings: Sequence[Finding], baselined: int = 0) -> str:
    payload = {
        "tool": "simlint",
        "findings": [_finding_dict(f) for f in findings],
        "summary": {
            "total": len(findings),
            "errors": sum(1 for f in findings
                          if severity_of(f) == "error"),
            "warnings": sum(1 for f in findings
                            if severity_of(f) == "warning"),
            "baselined": baselined,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(findings: Sequence[Finding], baselined: int = 0) -> str:
    """Minimal SARIF 2.1.0 log: one run, one result per finding."""
    seen_rules = sorted({f.rule for f in findings})
    rules = []
    for rule_id in seen_rules:
        rule = RULES.get(rule_id)
        descriptor = {"id": rule_id}
        if rule is not None:
            descriptor["name"] = rule.name
            descriptor["shortDescription"] = {
                "text": (rule.__doc__ or rule.name).strip().splitlines()[0]}
        rules.append(descriptor)
    results = []
    for finding in findings:
        results.append({
            "ruleId": finding.rule,
            "level": severity_of(finding),
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace(os.sep, "/")},
                    "region": {"startLine": finding.line,
                               "startColumn": max(finding.col, 1)},
                },
            }],
            "partialFingerprints": {
                "simlint/v1": fingerprint(finding)},
        })
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": "simlint",
                "informationUri": "https://example.invalid/simlint",
                "rules": rules,
            }},
            "results": results,
            "properties": {"baselined": baselined},
        }],
    }
    return json.dumps(log, indent=2, sort_keys=True)


RENDERERS = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
}


def github_annotations(findings: Iterable[Finding]) -> List[str]:
    """``::error``/``::warning`` workflow commands, one per finding."""
    out = []
    for finding in findings:
        level = severity_of(finding)
        message = finding.message.replace("%", "%25")
        message = message.replace("\r", "%0D").replace("\n", "%0A")
        path = finding.path.replace(os.sep, "/")
        out.append(f"::{level} file={path},line={finding.line},"
                   f"col={max(finding.col, 1)},"
                   f"title=simlint {finding.rule}::{message}")
    return out


def in_github_actions() -> bool:
    return bool(os.environ.get("GITHUB_ACTIONS"))
