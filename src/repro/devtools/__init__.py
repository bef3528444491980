"""Developer tooling guarding the determinism contract.

Three complementary layers:

* :mod:`repro.devtools.rules` / :mod:`repro.devtools.analyzer` — the
  ``simlint`` static analyzer (``repro lint``): per-file AST rules
  (SL0xx) catching nondeterminism hazards at review time.
* :mod:`repro.devtools.deep` — the whole-program layer (``repro lint
  --deep``) over one project index (:mod:`repro.devtools.callgraph`):
  simrace (SL201-SL203) and simheat (SL301-SL304), with a
  content-hash findings cache,
  baseline support and JSON/SARIF output
  (:mod:`repro.devtools.output`).
* :mod:`repro.devtools.sanitizer` — the runtime simulation sanitizer
  (``Simulator(sanitize=True)``): shadow-state invariant checks on
  live runs.

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
    raw_findings,
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
    "raw_findings",
]
