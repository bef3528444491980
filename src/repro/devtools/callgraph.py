"""The one project index behind ``simlint --deep``.

The per-file rules (:mod:`repro.devtools.rules`) see one module at a
time, so a handler's allocations reached through helper calls two
modules away are invisible to them.  Every deep pass
(per-file rules on a cache miss, hot regions/allocations) reads the
same :class:`ProjectIndex`, built from one
``ast.parse`` per file:

* a **module map** — every linted file named by the dotted module the
  import system would give it (``src/repro/bt/peer.py`` →
  ``repro.bt.peer``) and its import map, computed once per module;
* a **symbol table** — every function and method, keyed by qualified
  name (``repro.bt.peer.Peer.pump``), each carrying the list of AST
  nodes it owns (:attr:`FunctionInfo.nodes`, walked once);
* **call resolution** — for each call site, the qualified name of the
  target when it can be determined statically: direct names through
  the file's imports, ``self.method`` through the class hierarchy,
  ``Class.method``/``Class()`` constructors, and — because the event
  loop is the backbone of this codebase — the *callback* argument of
  ``schedule``/``schedule_at``/``call_now``/``after``, which is a call
  that merely happens later;
* the **schedule-site table** — every ``schedule`` / ``schedule_at``
  / ``call_now`` / ``after`` / ``PeriodicTask`` site with a resolved
  handler, once
  (:attr:`ProjectIndex.schedule_sites`); hot-region seeding is a
  small function over it.

Resolution is deliberately conservative-but-useful.  An attribute call
on an unknown receiver resolves by name only when exactly one class
hierarchy defines a method of that name, and never for a name the
builtin containers define (``append``, ``pop``, ``get``, ...): those
are far likelier to be list/dict calls than project calls.  A caller
under a source root (``src/``) resolves by name only among definitions
under a source root, so linting ``tests/`` beside ``src/`` cannot
change ``src``'s edges.  An ambiguous or out-of-project target stays
unresolved and the deep passes treat it as opaque: precision errs
toward *missing* exotic flows rather than inventing them.

The diagnostic chains every pass prints share one :class:`Step` type
and one :func:`render_chain`.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .rules import Finding, dotted_name, enclosing_scope

#: Engine calls whose callback argument becomes a schedule-site edge.
SCHEDULE_METHODS = {"schedule", "schedule_at", "call_now", "after"}

#: Path components that anchor dotted module names.  A file under any
#: of these roots is named relative to the root; anything else gets a
#: pseudo-module from its path (tests, examples, ad-hoc scripts).
_SOURCE_ROOTS = ("src",)

#: Method names the builtin containers and strings define: an
#: unknown-receiver ``.append()`` / ``.pop()`` / ``.get()`` is far
#: likelier a list/dict call than a project method, so these names
#: never resolve by name alone.
_BUILTIN_METHOD_NAMES = frozenset(
    name for kind in (list, dict, set, str, bytes, tuple)
    for name in dir(kind))


def module_name_for(path: str) -> str:
    """The dotted module name a file would import as.

    ``src/repro/bt/peer.py`` → ``repro.bt.peer``;
    ``tests/test_x.py`` → ``tests.test_x`` (a pseudo-module: good
    enough to key the symbol table, never actually imported).
    """
    norm = os.path.normpath(path).replace(os.sep, "/")
    parts = [p for p in norm.split("/") if p not in ("", ".")]
    for root in _SOURCE_ROOTS:
        if root in parts:
            parts = parts[parts.index(root) + 1:]
            break
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<root>"


def _under_source_root(path: str) -> bool:
    parts = os.path.normpath(path).replace(os.sep, "/").split("/")
    return any(root in parts for root in _SOURCE_ROOTS)


# ----------------------------------------------------------------------
# Diagnostic chains, shared by every deep pass
# ----------------------------------------------------------------------
class Step(NamedTuple):
    """One link of a diagnostic chain (a hot-region provenance)."""

    text: str
    path: str
    line: int


def render_chain(chain: Sequence[Step]) -> str:
    """``text (path:line) -> text (path:line) -> ...``"""
    return " -> ".join(f"{step.text} ({step.path}:{step.line})"
                       for step in chain)


def short(qualname: str) -> str:
    """``Class.method`` (or ``module.func``) for diagnostics."""
    return ".".join(qualname.split(".")[-2:])



# ----------------------------------------------------------------------
# Index records
# ----------------------------------------------------------------------
@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str                 # module.Class.method or module.func
    module: str
    path: str
    lineno: int
    node: ast.AST                 # FunctionDef / AsyncFunctionDef
    class_name: Optional[str] = None
    #: resolved call sites: (callee qualname, line, via_schedule)
    calls: List[Tuple[str, int, bool]] = field(default_factory=list)
    #: every AST node the function owns, walked once at index time
    nodes: List[ast.AST] = field(default_factory=list, repr=False)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ClassInfo:
    """One class definition: its methods and (textual) bases."""

    qualname: str                 # module.Class
    module: str
    bases: Tuple[str, ...] = ()   # dotted source text of base exprs
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


class ScheduleSite(NamedTuple):
    """One ``schedule`` / ``schedule_at`` / ``call_now`` / ``after`` /
    ``PeriodicTask`` site whose callback resolves in the project."""

    caller: FunctionInfo
    handler: str                  # resolved callback qualname
    method: str                   # the scheduling call's name
    line: int
    delay: Optional[ast.AST]      # schedule / schedule_at / after arg 0


def _own_nodes(node: ast.AST, module_level: bool) -> List[ast.AST]:
    """AST nodes belonging to one function.

    For the module pseudo-function this is every top-level statement
    *except* function/class definitions (those are indexed on their
    own); for a real function it is the whole body, nested closures
    included (closures are not indexed separately, so their hazards
    are attributed to the enclosing definition).
    """
    out: List[ast.AST] = []
    for stmt in node.body:
        if module_level and isinstance(stmt, (ast.FunctionDef,
                                              ast.AsyncFunctionDef,
                                              ast.ClassDef)):
            continue
        out.extend(ast.walk(stmt))
    return out


def _common_root(paths: Sequence[str]) -> Optional[str]:
    """Deepest directory containing every file, or None."""
    dirs = {os.path.dirname(os.path.abspath(p)) for p in paths}
    if not dirs:
        return None
    try:
        return os.path.commonpath(sorted(dirs))
    except ValueError:  # pragma: no cover - mixed drives on Windows
        return None


def _import_map(tree: ast.Module, module: str) -> Dict[str, str]:
    """Local name → fully dotted origin, resolving relative imports
    against ``module``'s package (``from . import x`` in
    ``repro.bt.peer`` binds ``x`` to ``repro.bt.x``)."""
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = \
                    alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                anchor = module.split(".")[:-node.level]
                base = ".".join(anchor)
                if node.module:
                    base = f"{base}.{node.module}" if base \
                        else node.module
            for alias in node.names:
                origin = f"{base}.{alias.name}" if base else alias.name
                mapping[alias.asname or alias.name] = origin
    return mapping


class ProjectIndex:
    """Symbol table, call graph and schedule sites over a file set."""

    def __init__(self) -> None:
        #: path → parsed module
        self.trees: Dict[str, ast.Module] = {}
        #: path → the error of a file that does not parse
        self.syntax_errors: Dict[str, SyntaxError] = {}
        #: path → source text
        self.sources: Dict[str, str] = {}
        #: path → dotted module name
        self.modules: Dict[str, str] = {}
        #: dotted module name → path
        self.module_paths: Dict[str, str] = {}
        #: qualname → FunctionInfo (functions and methods)
        self.functions: Dict[str, FunctionInfo] = {}
        #: module.Class qualname → ClassInfo
        self.classes: Dict[str, ClassInfo] = {}
        #: module → import map
        self.imports: Dict[str, Dict[str, str]] = {}
        #: every resolved schedule/timer site, in index order
        self.schedule_sites: List[ScheduleSite] = []
        #: method name → qualnames of every definition (for by-name
        #: resolution of unknown receivers)
        self._methods_by_name: Dict[str, List[str]] = {}
        self._common_root: Optional[str] = None

    def scoped(self, finding: Finding) -> Finding:
        """``finding`` with its :attr:`~Finding.scope` read off the
        indexed tree of its file."""
        return replace(finding, scope=enclosing_scope(
            self.trees[finding.path], finding.line))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, files: Sequence[Tuple[str, str]]) -> "ProjectIndex":
        """Index ``(path, source)`` pairs; a file that does not parse
        is recorded in :attr:`syntax_errors` and otherwise skipped."""
        index = cls()
        index._common_root = _common_root([path for path, _ in files])
        for path, source in files:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as exc:
                index.syntax_errors[path] = exc
                continue
            index._add_file(path, source, tree)
        index._resolve_calls()
        return index

    def _module_name(self, path: str) -> str:
        """Dotted module name; files outside any source root are named
        relative to the file set's common directory, so a project
        linted by absolute path (e.g. a tmp dir in tests) still gets
        ``helpers`` rather than ``tmp.xyz.helpers`` and its intra-
        project imports resolve."""
        if self._common_root and not _under_source_root(path):
            rel = os.path.relpath(path, self._common_root)
            if not rel.startswith(".."):
                return module_name_for(rel)
        return module_name_for(path)

    def _add_file(self, path: str, source: str,
                  tree: ast.Module) -> None:
        module = self._module_name(path)
        self.trees[path] = tree
        self.sources[path] = source
        self.modules[path] = module
        self.module_paths[module] = path
        self.imports[module] = _import_map(tree, module)
        # Module top-level code is modelled as a pseudo-function so
        # schedule sites at module scope participate too.
        top = FunctionInfo(qualname=f"{module}.<module>", module=module,
                           path=path, lineno=1, node=tree,
                           nodes=_own_nodes(tree, module_level=True))
        self.functions[top.qualname] = top
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, path, node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(module, path, node)

    def _add_function(self, module: str, path: str, node,
                      class_name: Optional[str]) -> None:
        if class_name is None:
            qualname = f"{module}.{node.name}"
        else:
            qualname = f"{module}.{class_name}.{node.name}"
        info = FunctionInfo(qualname=qualname, module=module, path=path,
                            lineno=node.lineno, node=node,
                            class_name=class_name,
                            nodes=_own_nodes(node, module_level=False))
        self.functions[qualname] = info
        if class_name is not None:
            self.classes[f"{module}.{class_name}"].methods[node.name] = \
                info
            self._methods_by_name.setdefault(node.name, []).append(
                qualname)

    def _add_class(self, module: str, path: str,
                   node: ast.ClassDef) -> None:
        bases = tuple(b for b in (dotted_name(base) for base in node.bases)
                      if b is not None)
        cls_qual = f"{module}.{node.name}"
        self.classes[cls_qual] = ClassInfo(qualname=cls_qual,
                                           module=module, bases=bases)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, path, item,
                                   class_name=node.name)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_class(self, module: str,
                      name: str) -> Optional[ClassInfo]:
        """A class named ``name`` as seen from ``module`` (local or
        imported)."""
        local = self.classes.get(f"{module}.{name}")
        if local is not None:
            return local
        origin = self.imports.get(module, {}).get(name.split(".")[0])
        if origin is None:
            return None
        if "." in name:
            origin = f"{origin}.{name.split('.', 1)[1]}"
        return self.classes.get(origin)

    def mro(self, cls: ClassInfo,
            seen: Optional[Set[str]] = None) -> List[ClassInfo]:
        """The class plus its in-project bases, depth-first."""
        if seen is None:
            seen = set()
        if cls.qualname in seen:
            return []
        seen.add(cls.qualname)
        out = [cls]
        for base in cls.bases:
            resolved = self.resolve_class(cls.module, base)
            if resolved is not None:
                out.extend(self.mro(resolved, seen))
        return out

    def resolve_method(self, cls: ClassInfo,
                       name: str) -> Optional[FunctionInfo]:
        """Look ``name`` up through the in-project class hierarchy."""
        for klass in self.mro(cls):
            info = klass.methods.get(name)
            if info is not None:
                return info
        return None

    def _unique_method(self, name: str,
                       caller: FunctionInfo) -> Optional[str]:
        """The sole definition of method ``name`` visible to
        ``caller`` by name alone, if any.

        Builtin container method names never resolve this way; a
        caller under a source root sees only definitions under a
        source root.  When several *unrelated* classes define the name
        the call stays unresolved; definitions that override each
        other within one hierarchy do not count as ambiguity (any of
        them keeps the chain going — we pick the first by qualname for
        determinism).
        """
        if name in _BUILTIN_METHOD_NAMES:
            return None
        qualnames = self._methods_by_name.get(name)
        if qualnames and _under_source_root(caller.path):
            qualnames = [q for q in qualnames if _under_source_root(
                self.functions[q].path)]
        if not qualnames:
            return None
        if len(qualnames) == 1:
            return qualnames[0]
        owners = []
        for qualname in qualnames:
            cls_qual = qualname.rsplit(".", 1)[0]
            cls = self.classes.get(cls_qual)
            if cls is None:
                return None
            owners.append(cls)
        # All definitions within a single hierarchy?  Find roots.
        root_names: Set[str] = set()
        for cls in owners:
            chain = self.mro(cls)
            root_names.add(chain[-1].qualname)
        if len(root_names) == 1:
            return sorted(qualnames)[0]
        return None

    def resolve_callable(self, func: FunctionInfo,
                         node: ast.AST) -> Optional[str]:
        """Qualname of the function a callable expression denotes, as
        seen from inside ``func`` — used both for call targets and for
        ``schedule(...)`` callback arguments."""
        module = func.module
        imports = self.imports.get(module, {})
        if isinstance(node, ast.Name):
            name = node.id
            origin = imports.get(name)
            if origin is not None:
                if origin in self.functions:
                    return origin
                if origin in self.classes:
                    ctor = self.resolve_method(self.classes[origin],
                                               "__init__")
                    return ctor.qualname if ctor else None
                return None
            if f"{module}.{name}" in self.functions:
                return f"{module}.{name}"
            if f"{module}.{name}" in self.classes:
                ctor = self.resolve_method(
                    self.classes[f"{module}.{name}"], "__init__")
                return ctor.qualname if ctor else None
            return None
        if not isinstance(node, ast.Attribute):
            return None
        attr = node.attr
        base = node.value
        if isinstance(base, ast.Name) and base.id in ("self", "cls") \
                and func.class_name is not None:
            cls = self.classes.get(f"{module}.{func.class_name}")
            if cls is not None:
                info = self.resolve_method(cls, attr)
                if info is not None:
                    return info.qualname
            return self._unique_method(attr, func)
        dotted = dotted_name(node)
        if dotted is not None:
            head, _, rest = dotted.partition(".")
            origin = imports.get(head)
            if origin is not None and rest:
                full = f"{origin}.{rest}"
                if full in self.functions:
                    return full
                # module.Class(...) constructor
                cls_qual, _, meth = full.rpartition(".")
                if cls_qual in self.classes:
                    info = self.resolve_method(self.classes[cls_qual],
                                               meth)
                    if info is not None:
                        return info.qualname
                if full in self.classes:
                    ctor = self.resolve_method(self.classes[full],
                                               "__init__")
                    return ctor.qualname if ctor else None
                if origin in self.module_paths:
                    return None  # in-project module, unknown attr
            # Class.method referenced directly
            cls = self.resolve_class(module, head)
            if cls is not None and rest:
                info = self.resolve_method(cls, rest.split(".")[-1])
                if info is not None:
                    return info.qualname
        # Unknown receiver: resolve by method name.
        return self._unique_method(attr, func)

    def _resolve_calls(self) -> None:
        for info in list(self.functions.values()):
            for sub in info.nodes:
                if not isinstance(sub, ast.Call):
                    continue
                target = self.resolve_callable(info, sub.func)
                if target is not None:
                    info.calls.append((target, sub.lineno, False))
                site = self._site_record(info, sub)
                if site is None:
                    continue
                self.schedule_sites.append(site)
                if site.method in SCHEDULE_METHODS:
                    info.calls.append((site.handler, sub.lineno, True))

    def _site_record(self, info: FunctionInfo,
                       node: ast.Call) -> Optional[ScheduleSite]:
        """The schedule-site record of one call, if it is one."""
        func = node.func
        delay = None
        if isinstance(func, ast.Attribute) \
                and func.attr in SCHEDULE_METHODS:
            method = func.attr
            cb_index = 0 if method == "call_now" else 1
            if len(node.args) <= cb_index:
                return None
            callback = node.args[cb_index]
            if method != "call_now":
                delay = node.args[0]
        else:
            method = (dotted_name(func) or "").rpartition(".")[2]
            if method != "PeriodicTask":
                return None
            args = dict(zip(("interval", "callback"), node.args[1:3]))
            for kw in node.keywords:
                if kw.arg in ("interval", "callback"):
                    args[kw.arg] = kw.value
            callback = args.get("callback")
            if "interval" not in args or callback is None:
                return None
        handler = self.resolve_callable(info, callback)
        if handler is None:
            return None
        return ScheduleSite(caller=info, handler=handler, method=method,
                            line=node.lineno, delay=delay)
