"""Whole-program driver behind ``repro lint --deep``.

Composes the analysis passes over one file set:

* per-file rule findings (SL0xx, via :mod:`repro.devtools.rules`);
* hot-path allocation audit (SL301–SL303, whole-program, via
  :mod:`repro.devtools.allocsum` over the hot regions of
  :mod:`repro.devtools.hotpath`).

One index: when anything must be recomputed, ``run_deep`` builds one
:class:`~repro.devtools.callgraph.ProjectIndex` — one ``ast.parse``
per file — and every pass reads it: the per-file rules take
``index.trees``, the whole-program pass the symbol table, call graph
and schedule-site table.  A fully warm run parses nothing.

Caching model — two slots, honest about scope:

* rule findings are **file-local**, so they are cached per file under
  the file's content sha256 (``files``);
* simheat findings depend on the entire call graph, so they are
  cached under one whole-project fingerprint (the hash of every
  file's hash, the ``project`` slot): touching *any* file re-runs the
  pass (``stats["project_reused"]``).

Suppression comments are re-read every run (they live in the files,
so an edited comment changes the hash anyway) and usage is tracked
across every pass before unused-suppression (SL009) diagnostics are
emitted.  ``stats["timings"]`` carries per-pass wall time so a cold
and a cached run can be compared pass by pass (``repro lint --deep``
prints it on stderr).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.devtools.allocsum import run_simheat
from repro.devtools.analyzer import (SuppressionIndex, iter_python_files,
                                     raw_findings, syntax_error_finding)
from repro.devtools.callgraph import ProjectIndex
from repro.devtools.rules import Finding

CACHE_VERSION = 7
DEFAULT_CACHE = ".simlint-cache.json"

#: Deep-only rule ids (metadata-registered in rules.py; produced here).
DEEP_RULES = ("SL301", "SL302", "SL303")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _encode(findings: Sequence[Finding]) -> List[List[object]]:
    return [[f.rule, f.path, f.line, f.col, f.message, f.scope]
            for f in findings]


def _decode(rows: Iterable[Sequence[object]]) -> List[Finding]:
    return [Finding(rule=str(r[0]), path=str(r[1]), line=int(r[2]),
                    col=int(r[3]), message=str(r[4]), scope=str(r[5]))
            for r in rows]


@dataclass
class DeepReport:
    """Outcome of one deep run, pre-baseline."""

    findings: List[Finding] = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)


class _Cache:
    """JSON-backed findings cache; drops itself on any meta mismatch."""

    def __init__(self, path: Optional[str], enabled_key: List[str]):
        self.path = path
        self.meta = {"version": CACHE_VERSION, "enabled": enabled_key}
        self.files: Dict[str, Dict[str, object]] = {}
        self.project: Dict[str, object] = {}
        if path is None or not os.path.isfile(path):
            return
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return
        if not isinstance(data, dict) or data.get("meta") != self.meta:
            return
        for slot in ("files", "project"):
            if isinstance(data.get(slot), dict):
                setattr(self, slot, data[slot])

    def file_entry(self, path: str, digest: str
                   ) -> Optional[Dict[str, object]]:
        entry = self.files.get(path)
        if isinstance(entry, dict) and entry.get("hash") == digest:
            return entry
        return None

    def save(self, files: Dict[str, Dict[str, object]],
             project: Dict[str, object]) -> None:
        if self.path is None:
            return
        payload = {"meta": self.meta, "files": files, "project": project}
        try:
            with open(self.path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
        except OSError:
            pass  # caching is best-effort; the analysis already ran


def _rule_filter(findings: Iterable[Finding],
                 enabled: Optional[Iterable[str]]) -> List[Finding]:
    if enabled is None:
        return list(findings)
    keep = set(enabled) | {"SL000"}
    return [f for f in findings if f.rule in keep]


def _now() -> float:
    """Wall clock for per-pass timing: analyzer tooling, not sim code."""
    return time.perf_counter()  # simlint: disable=SL002 -- lint-pass timing runs on the host clock, outside any simulation


def _file_findings(index: ProjectIndex, path: str,
                   enabled: Optional[List[str]]) -> List[Finding]:
    """Per-file rule findings for one indexed file."""
    tree = index.trees.get(path)
    if tree is None:
        return [syntax_error_finding(path, index.syntax_errors[path])]
    return raw_findings(path, index.sources[path], tree, enabled)


def run_deep(paths: Sequence[str],
             enabled: Optional[Iterable[str]] = None,
             exclude: Sequence[str] = (),
             cache_path: Optional[str] = None,
             report_unused_suppressions: bool = True) -> DeepReport:
    """Run all passes over the ``.py`` files beneath ``paths``."""
    enabled_list = sorted(enabled) if enabled is not None else None
    enabled_key = enabled_list if enabled_list is not None else ["*"]
    cache = _Cache(cache_path, enabled_key)

    files = iter_python_files(paths, exclude=exclude)
    sources: Dict[str, str] = {}
    digests: Dict[str, str] = {}
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            sources[path] = handle.read()
        digests[path] = _sha256(sources[path])
    entries = {path: cache.file_entry(path, digests[path])
               for path in files}
    reused = sum(entry is not None for entry in entries.values())
    # Whole-project fingerprint: any content change re-runs the
    # whole-program pass (simheat).
    project_hash = _sha256(json.dumps(
        [[p.replace(os.sep, "/"), digests[p]] for p in files]))
    project_reused = cache.project.get("fingerprint") == project_hash

    timings: Dict[str, float] = {}
    index = None
    if not project_reused or reused < len(files):
        t0 = _now()
        index = ProjectIndex.build([(p, sources[p]) for p in files])
        timings["index_s"] = _now() - t0

    t0 = _now()
    per_file: Dict[str, List[Finding]] = {}
    for path in files:
        entry = entries[path]
        if entry is None:
            per_file[path] = _file_findings(index, path, enabled_list)
            entries[path] = {"hash": digests[path],
                             "findings": _encode(per_file[path])}
        else:
            per_file[path] = _decode(entry.get("findings", []))
    timings["files_s"] = _now() - t0

    if project_reused:
        project_findings = _decode(cache.project.get("findings", []))
    else:
        t0 = _now()
        project_findings = _rule_filter(run_simheat(index), enabled_list)
        timings["simheat_s"] = _now() - t0
    cache.save(entries, {"fingerprint": project_hash,
                         "findings": _encode(project_findings)})

    # Suppression filtering + usage accounting across every pass.
    all_findings: List[Finding] = []
    project_by_path: Dict[str, List[Finding]] = {}
    for finding in project_findings:
        project_by_path.setdefault(finding.path, []).append(finding)
    for path in files:
        idx = SuppressionIndex(path, sources[path].splitlines())
        kept = idx.filter(per_file[path]
                          + project_by_path.get(path, []))
        all_findings.extend(kept)
        broken = kept and kept[0].rule == "SL000"
        if report_unused_suppressions and not broken and (
                enabled_list is None or "SL009" in enabled_list):
            all_findings.extend(idx.filter(idx.unused_findings()))

    all_findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    report = DeepReport(findings=all_findings)
    report.stats = {
        "files": len(files),
        "files_reused": reused,
        "files_analyzed": len(files) - reused,
        "project_reused": project_reused,
        "timings": {key: round(value, 6)
                    for key, value in sorted(timings.items())},
        "cache": cache_path,
    }
    return report
