"""``[tool.simlint]`` configuration.

Lives in ``pyproject.toml`` so rule rollout does not require CI edits::

    [tool.simlint]
    enable = ["SL001", "SL002"]   # default: every registered rule
    disable = ["SL002"]
    paths = ["src"]               # default lint targets
    exclude = ["experiments/legacy"]

CLI flags override the file; ``--no-config`` ignores it entirely.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

try:  # Python 3.11+
    import tomllib as _toml
except ImportError:  # pragma: no cover - legacy interpreters
    _toml = None

from repro.devtools.rules import all_rule_ids


@dataclass
class SimlintConfig:
    """Resolved configuration for one lint run."""

    enable: List[str] = field(default_factory=all_rule_ids)
    disable: List[str] = field(default_factory=list)
    paths: List[str] = field(default_factory=lambda: ["src"])
    exclude: List[str] = field(default_factory=list)
    source: Optional[str] = None  # pyproject path, for diagnostics

    def enabled_rules(self) -> List[str]:
        """Effective rule ids: ``enable`` minus ``disable``."""
        disabled = {r.upper() for r in self.disable}
        return [r for r in (rid.upper() for rid in self.enable)
                if r not in disabled]


def find_pyproject(start_dir: str = ".") -> Optional[str]:
    """Nearest ``pyproject.toml`` at or above ``start_dir``."""
    current = os.path.abspath(start_dir)
    while True:
        candidate = os.path.join(current, "pyproject.toml")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(current)
        if parent == current:
            return None
        current = parent


def load_config(start_dir: str = ".") -> SimlintConfig:
    """The ``[tool.simlint]`` block of the nearest pyproject.toml,
    defaults when absent (or when ``tomllib`` is unavailable)."""
    pyproject = find_pyproject(start_dir)
    if pyproject is None or _toml is None:
        return SimlintConfig()
    with open(pyproject, "rb") as handle:
        try:
            data = _toml.load(handle)
        except Exception:  # malformed file: fall back to defaults
            return SimlintConfig(source=pyproject)
    block = data.get("tool", {}).get("simlint", {})
    config = SimlintConfig(source=pyproject)
    if "enable" in block:
        config.enable = [str(r) for r in block["enable"]]
    if "disable" in block:
        config.disable = [str(r) for r in block["disable"]]
    if "paths" in block:
        config.paths = [str(p) for p in block["paths"]]
    if "exclude" in block:
        config.exclude = [str(p) for p in block["exclude"]]
    return config
