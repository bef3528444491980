"""Developer tooling guarding the determinism contract.

Two complementary layers:

* :mod:`repro.devtools.rules` / :mod:`repro.devtools.analyzer` — the
  ``simlint`` static analyzer (``repro lint``): per-file AST rules
  (SL0xx) catching nondeterminism hazards at review time.
* :mod:`repro.devtools.sanitizer` — the runtime simulation sanitizer
  (``Simulator(sanitize=True)``): shadow-state invariant checks on
  live runs, plus the per-event allocation profiler
  (``AllocProfile``), an engine sink whose measured per-event
  ceilings are the allocation guard.

See ``docs/DEVTOOLS.md`` for the rule catalogue and suppression
syntax.
"""

from repro.devtools.analyzer import (
    SuppressionIndex,
    format_findings,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.devtools.config import SimlintConfig, load_config
from repro.devtools.rules import RULES, Finding, Rule, all_rule_ids
from repro.devtools.sanitizer import SanitizerError, SimulationSanitizer

__all__ = [
    "RULES",
    "Finding",
    "Rule",
    "SanitizerError",
    "SimlintConfig",
    "SimulationSanitizer",
    "SuppressionIndex",
    "all_rule_ids",
    "format_findings",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_config",
]
