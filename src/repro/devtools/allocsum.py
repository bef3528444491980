"""Interprocedural hot-path allocation audit (simheat, SL301–SL304).

The second whole-program layer behind ``repro lint --deep``.  The
hot-region inference (:mod:`repro.devtools.hotpath`) classifies every
function by static frequency; this pass summarizes each function's
**allocation sites** and reports the ones sitting in per-event
regions, with the full seed→function chain explaining why the region
is hot.

Allocation kinds summarized per function:

* comprehensions (list/set/dict/generator expressions);
* ``list()`` / ``dict()`` / ``set()`` / ``tuple()`` / ``sorted()`` /
  ``frozenset()`` copies and fresh containers;
* tuple displays and resolved dataclass/class construction;
* lambda / nested ``def`` / ``functools.partial`` creation;
* f-strings, ``%``-formatting and ``.format`` calls;
* slicing copies (``xs[1:]``).

Sites inside ``raise`` / ``assert`` statements are skipped — error
paths are cold by definition, and f-string diagnostics there are the
dominant false-positive source.

Rules:

* **SL301** — constant-size allocation in a per-event hot path: each
  simulation event pays it, so at 10^5 peers it is the per-event
  garbage bill.
* **SL302** — an O(peers)/O(pieces)-scale copy, comprehension or
  slicing in a per-event region: the *size* of the allocation grows
  with the swarm.
* **SL303** — closure/partial creation per event: the code object is
  constant, so the closure should be hoisted to setup (a bound
  method, a module function, or a prebuilt partial).
* **SL304** — per-event construction of a *poolable* type (engine
  events, piece-pump messages) for which a free-list exists; use the
  pool instead of the constructor.

One finding per (rule, function), anchored at the function's first
offending site so an inline simlint ``disable=SL30x`` suppression on
that line covers it; the message lists up to three sites plus the
hot chain.  ``tests/``, ``examples/`` and ``benchmarks/`` trees are
out of scope — scenario builders allocate freely by design — and so
is ``devtools/`` itself: sanitizer/race-reporter observers run only
in opt-in diagnostic modes that deliberately trade allocation for
observability (the default fast path never invokes them).
"""

from __future__ import annotations

import ast
from typing import Dict, List, NamedTuple, Optional, Set

from .callgraph import FunctionInfo, ProjectIndex, render_chain
from .hotpath import FREQ_EVENT, HotRegion, infer_hot_regions
from .rules import Finding

#: Builtin calls that copy or build a container.
_CONTAINER_CALLS = frozenset({"list", "dict", "set", "tuple",
                              "frozenset", "sorted"})

#: Identifier substrings that mark an expression as swarm-scale
#: (peers/pieces populations); drives the SL301/SL302 split.
_SCALE_HINTS = ("peer", "neighbor", "member", "wanter", "candidate",
                "piece", "book", "obligation", "leecher", "seeder",
                "wanted", "offered", "completed", "ids")

#: Poolable types with an existing free-list, for SL304.
POOLABLE_TYPES: Dict[str, str] = {
    "EventHandle": "the engine's EventHandle free-list "
                   "(Simulator.schedule recycles handles)",
    "PlainPieceMessage": "the plain-piece message pool "
                         "(repro.core.messages.acquire_plain_piece)",
}

#: Caps keeping diagnostics readable and the real-tree inventory
#: reviewable.
_MAX_SITES_IN_MESSAGE = 3

_RULE_LABEL = {
    "SL301": "per-event allocation",
    "SL302": "O(swarm)-scale allocation in a per-event region",
    "SL303": "per-event closure creation",
    "SL304": "per-event construction of a poolable type",
}

#: Path segments outside the audit's scope (``devtools``: opt-in
#: diagnostic observers allocate for observability by design).
_SKIP_SEGMENTS = frozenset({"tests", "examples", "benchmarks",
                            "devtools"})


class AllocSite(NamedTuple):
    """One allocation expression inside a function body."""

    kind: str        # comprehension | copy | constructor | closure |
                     # format | slice
    desc: str        # human-readable, e.g. "list(self.peers) copy"
    line: int
    col: int
    linear: bool     # True when the size scales with the swarm
    type_name: str   # constructed type for kind == "constructor"


def _identifiers(node: ast.AST) -> List[str]:
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def _swarm_scale(node: ast.AST) -> bool:
    """Does the expression plausibly denote a peers/pieces-sized
    collection?"""
    for ident in _identifiers(node):
        low = ident.lower()
        if any(hint in low for hint in _SCALE_HINTS):
            return True
    return False


def _cold_nodes(info: FunctionInfo) -> Set[int]:
    """ids of nodes inside ``raise``/``assert`` statements (error
    paths: cold by definition, skipped by the audit)."""
    cold: Set[int] = set()
    for node in info.nodes:
        if isinstance(node, (ast.Raise, ast.Assert)):
            for sub in ast.walk(node):
                cold.add(id(sub))
    return cold


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _site_for(node: ast.AST) -> Optional[AllocSite]:
    """Classify one AST node as an allocation site (or not)."""
    line = getattr(node, "lineno", 0)
    col = getattr(node, "col_offset", 0)
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp)):
        label = {ast.ListComp: "list", ast.SetComp: "set",
                 ast.DictComp: "dict",
                 ast.GeneratorExp: "generator"}[type(node)]
        linear = any(_swarm_scale(gen.iter) for gen in node.generators)
        return AllocSite("comprehension", f"{label} comprehension",
                         line, col, linear, "")
    if isinstance(node, ast.Lambda):
        return AllocSite("closure", "lambda", line, col, False, "")
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return AllocSite("closure", f"nested def {node.name}",
                         line, col, False, "")
    if isinstance(node, ast.JoinedStr):
        if any(isinstance(v, ast.FormattedValue) for v in node.values):
            return AllocSite("format", "f-string", line, col, False, "")
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) \
            and isinstance(node.left, ast.Constant) \
            and isinstance(node.left.value, str):
        return AllocSite("format", "%-format", line, col, False, "")
    if isinstance(node, ast.Subscript) and isinstance(node.slice,
                                                      ast.Slice):
        return AllocSite("slice", "slicing copy", line, col,
                         _swarm_scale(node.value), "")
    if not isinstance(node, ast.Call):
        return None
    name = _call_name(node)
    if name is None:
        return None
    if name in _CONTAINER_CALLS:
        if not node.args and not node.keywords:
            return AllocSite("copy", f"fresh {name}()", line, col,
                             False, "")
        linear = any(_swarm_scale(a) for a in node.args)
        return AllocSite("copy", f"{name}(...) copy", line, col,
                         linear, "")
    if name == "partial":
        return AllocSite("closure", "functools.partial", line, col,
                         False, "")
    if name == "format" and isinstance(node.func, ast.Attribute):
        return AllocSite("format", ".format(...)", line, col, False, "")
    # CamelCase call: a type construction, resolved or not.
    if name[:1].isupper() and not name.isupper() and "_" not in name:
        return AllocSite("constructor", f"{name}(...) construction",
                         line, col, False, name)
    return None


def function_alloc_sites(info: FunctionInfo) -> List[AllocSite]:
    """This function's own allocation sites, in source order."""
    cold = _cold_nodes(info)
    sites: List[AllocSite] = []
    for node in info.nodes:
        if id(node) in cold:
            continue
        site = _site_for(node)
        if site is not None:
            sites.append(site)
    sites.sort(key=lambda s: (s.line, s.col, s.kind))
    return sites


def _rule_of(site: AllocSite) -> str:
    if site.kind == "closure":
        return "SL303"
    if site.kind == "constructor" and site.type_name in POOLABLE_TYPES:
        return "SL304"
    if site.linear:
        return "SL302"
    return "SL301"


def _skip_path(path: str) -> bool:
    parts = path.replace("\\", "/").split("/")
    return any(part in _SKIP_SEGMENTS for part in parts)


def _message(rule: str, qualname: str, sites: List[AllocSite],
             region: HotRegion) -> str:
    shown = "; ".join(f"{s.desc} (line {s.line})"
                      for s in sites[:_MAX_SITES_IN_MESSAGE])
    more = len(sites) - _MAX_SITES_IN_MESSAGE
    if more > 0:
        shown += f"; +{more} more"
    extra = ""
    if rule == "SL304":
        pools = sorted({POOLABLE_TYPES[s.type_name] for s in sites
                        if s.type_name in POOLABLE_TYPES})
        extra = f"; use {'; '.join(pools)}"
    elif rule == "SL303":
        extra = "; hoist to setup (bound method / module function)"
    return (f"{_RULE_LABEL[rule]} in {qualname}: {shown}{extra}; "
            f"hot via: {render_chain(region.chain)}")


def run_simheat(index: ProjectIndex) -> List[Finding]:
    """The whole-program allocation audit: SL301–SL304 findings."""
    regions = infer_hot_regions(index)
    findings: List[Finding] = []
    for qualname in sorted(regions):
        region = regions[qualname]
        if region.freq != FREQ_EVENT:
            continue
        info = index.functions.get(qualname)
        if info is None or _skip_path(info.path):
            continue
        sites = function_alloc_sites(info)
        if not sites:
            continue
        by_rule: Dict[str, List[AllocSite]] = {}
        for site in sites:
            by_rule.setdefault(_rule_of(site), []).append(site)
        for rule in sorted(by_rule):
            group = by_rule[rule]
            findings.append(Finding(
                rule=rule, path=info.path, line=group[0].line,
                col=group[0].col + 1,
                message=_message(rule, qualname, group, region)))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
