"""Finding severity and GitHub annotations for ``repro lint``.

When the ``GITHUB_ACTIONS`` environment variable is set the CLI also
emits one workflow command (``::error file=...``) per finding, so
findings land inline on PR diffs.
"""

from __future__ import annotations

import os
from typing import Iterable, List

from repro.devtools.rules import Finding

#: Rules that warn rather than fail the run (see ``--strict-suppressions``).
WARNING_RULES = frozenset({"SL009"})


def severity_of(finding: Finding) -> str:
    return "warning" if finding.rule in WARNING_RULES else "error"


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
