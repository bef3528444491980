"""Interprocedural nondeterminism taint analysis (``simlint --deep``).

The per-file rules flag a wall-clock *call* (SL002) or a global
``random`` *import* (SL001) wherever they appear, but they cannot see
a hazard laundered through a helper::

    # helpers.py
    def jitter():
        return time.time() % 1.0        # SL002 fires here, and only here

    # peer.py
    self.sim.schedule(jitter(), self._pump)   # invisible per-file

The deep pass follows values through the call graph
(:class:`repro.devtools.callgraph.ProjectIndex`) and reports any flow
from a **nondeterminism source** into a **determinism-critical sink**,
with the full source→sink call chain in the diagnostic:

**Sources** (the value differs between runs or hosts):

* wall-clock reads (``time.time``, ``datetime.now``, ...)        → SL101
* the global ``random`` module / unseeded ``Random()``           → SL102
* ambient environment: ``os.environ``/``os.getenv``, ``id()``    → SL103
* iteration order: ``set``/``frozenset`` iteration, unsorted
  ``os.listdir``/``os.scandir``                                  → SL104

**Sinks** (the value steers the simulation or its results):

* ``schedule``/``schedule_at``/``call_now`` arguments
* ``rng.<draw>()`` arguments and any ``.seed(...)``/``Random(x)``
* writes or calls into a ``metrics`` attribute path

**Sanitizers**: ``sorted``/``min``/``max``/``sum``/``len``/``any``/
``all`` erase *order* taint (their result no longer depends on
iteration order) while passing other kinds through.

The analysis is a classic summary-based fixpoint: each function gets a
summary (tainted returns, parameter→return and parameter→sink flows),
summaries propagate over the call graph until stable (the
:func:`~repro.devtools.callgraph.fixpoint` the effect pass shares),
then a reporting pass anchors findings at the sink (or at the call
that hands a tainted value to a sinking callee).  Dataflow is
flow-insensitive within a function and ignores attribute stores
(``self.x = time.time()`` is not tracked across methods — the
per-file SL002 still flags the source);
dict iteration is insertion-ordered on every supported interpreter and
is deliberately *not* an order source.
"""

from __future__ import annotations

import ast
from typing import (Dict, FrozenSet, Iterable, Iterator, List, NamedTuple,
                    Set, Tuple)

from .callgraph import (FunctionInfo, ProjectIndex, Step, fixpoint,
                        render_chain, short)
from .rules import (
    Finding,
    RNG_METHODS,
    SCHEDULE_METHODS,
    _GLOBAL_RANDOM_FUNCS,
    _WALL_CLOCK_CALLS,
    dotted_name,
    is_set_expr,
    resolve_call,
)

#: taint kind → deep rule id
KIND_RULES = {
    "wallclock": "SL101",
    "grandom": "SL102",
    "env": "SL103",
    "order": "SL104",
}

_KIND_WORDS = {
    "wallclock": "wall-clock",
    "grandom": "global-random",
    "env": "ambient-environment",
    "order": "iteration-order",
}

#: builtins whose result does not depend on the iteration order of
#: their argument — they erase "order" taint, pass the rest through.
_ORDER_SANITIZERS = {"sorted", "min", "max", "sum", "len", "any", "all"}

_GLOBAL_RANDOM_CALLS = {f"random.{f}" for f in _GLOBAL_RANDOM_FUNCS}

_MAX_CHAIN = 10        # steps kept per source→sink trace
_MAX_TAINTS = 8        # distinct taints kept per summary slot


class Taint(NamedTuple):
    """One tainted value: its kind and the source→here trace."""

    kind: str
    chain: Tuple[Step, ...]


class SinkTail(NamedTuple):
    """How a parameter reaches a sink inside (or below) a callee."""

    desc: str                      # sink description, e.g. "schedule()"
    chain: Tuple[Step, ...]        # here→sink steps


class Summary(NamedTuple):
    """Interprocedural summary of one function."""

    returns: Tuple[Taint, ...]
    param_returns: FrozenSet[int]
    param_sinks: Tuple[Tuple[int, SinkTail], ...]


_EMPTY_SUMMARY = Summary((), frozenset(), ())


class SourceSite(NamedTuple):
    kind: str
    line: int
    desc: str


class CallSite(NamedTuple):
    callee: str
    label: str                     # short display name
    line: int
    args: Tuple[Tuple[int, FrozenSet], ...]   # param index → atoms


class SinkSite(NamedTuple):
    desc: str
    line: int
    atoms: FrozenSet


class FunctionTaint(NamedTuple):
    """Per-function extraction: sites and local dataflow atoms."""

    info: FunctionInfo
    sources: Tuple[SourceSite, ...]
    calls: Tuple[CallSite, ...]
    sinks: Tuple[SinkSite, ...]
    return_atoms: FrozenSet


# ----------------------------------------------------------------------
# Per-function extraction
# ----------------------------------------------------------------------
class _Extractor:
    """Flow-insensitive atom extraction for one function.

    Atoms are hashable descriptions of where a value may come from:
    ``("src", i)`` — the i-th source site; ``("param", i)`` — the i-th
    parameter; ``("call", i)`` — the result of the i-th resolved
    in-project call; ``("nosort", frozenset)`` — the inner atoms with
    order taint erased (value passed through an order sanitizer).
    """

    def __init__(self, index: ProjectIndex, info: FunctionInfo):
        self.index = index
        self.info = info
        self.imports = index.imports[info.module]
        self.param_index = {p: i for i, p in enumerate(info.params)}
        self.sources: List[SourceSite] = []
        self.calls: List[CallSite] = []
        self.sinks: List[SinkSite] = []
        self.return_atoms: Set = set()
        self.name_atoms: Dict[str, Set] = {}
        self._site_ids: Dict[int, Tuple[str, int]] = {}  # id(node) → atom
        self.set_names: Set[str] = set()

    def run(self) -> FunctionTaint:
        own = self.info.nodes
        self._collect_set_names(own)
        # Name-binding fixpoint: flow-insensitive, so iterate until the
        # per-name atom sets stop growing (they only grow — bounded).
        for _ in range(10):
            before = {k: set(v) for k, v in self.name_atoms.items()}
            for node in own:
                self._bind_names(node)
            if self.name_atoms == before:
                break
        for node in own:
            self._collect_sinks_and_returns(node)
        return FunctionTaint(
            info=self.info,
            sources=tuple(self.sources),
            calls=tuple(self.calls),
            sinks=tuple(self.sinks),
            return_atoms=frozenset(self.return_atoms),
        )

    # -- forward passes -------------------------------------------------
    def _collect_set_names(self, own: Iterable[ast.AST]) -> None:
        for node in own:
            if isinstance(node, ast.Assign) \
                    and is_set_expr(node.value, self.set_names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.set_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) \
                    and node.value is not None \
                    and is_set_expr(node.value, self.set_names) \
                    and isinstance(node.target, ast.Name):
                self.set_names.add(node.target.id)

    def _bind_names(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            atoms = self._expr_atoms(node.value)
            for target in node.targets:
                self._bind_target(target, atoms)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._bind_target(node.target, self._expr_atoms(node.value))
        elif isinstance(node, ast.AugAssign):
            self._bind_target(node.target, self._expr_atoms(node.value))
        elif isinstance(node, ast.NamedExpr):
            self._bind_target(node.target, self._expr_atoms(node.value))
        elif isinstance(node, ast.For):
            atoms = self._expr_atoms(node.iter)
            if is_set_expr(node.iter, self.set_names):
                atoms = atoms | {self._source(
                    "order", node.iter, "set iteration order")}
            self._bind_target(node.target, atoms)
        elif isinstance(node, ast.withitem) and node.optional_vars:
            self._bind_target(node.optional_vars,
                              self._expr_atoms(node.context_expr))

    def _bind_target(self, target: ast.AST, atoms: Set) -> None:
        if not atoms:
            return
        if isinstance(target, ast.Name):
            self.name_atoms.setdefault(target.id, set()).update(atoms)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, atoms)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, atoms)
        elif isinstance(target, ast.Subscript) \
                and isinstance(target.value, ast.Name):
            # `d[k] = tainted` taints the container name.
            self.name_atoms.setdefault(target.value.id,
                                       set()).update(atoms)

    # -- sinks and returns ---------------------------------------------
    def _collect_sinks_and_returns(self, node: ast.AST) -> None:
        if isinstance(node, ast.Return) and node.value is not None:
            self.return_atoms |= self._expr_atoms(node.value)
        elif isinstance(node, (ast.Yield, ast.YieldFrom)) \
                and node.value is not None:
            self.return_atoms |= self._expr_atoms(node.value)
        elif isinstance(node, ast.Call):
            self._check_call_sink(node)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                dotted = dotted_name(target)
                if dotted and "metrics" in dotted.split(".")[:-1]:
                    atoms = self._expr_atoms(node.value)
                    if atoms:
                        self.sinks.append(SinkSite(
                            desc=f"metrics write `{dotted}`",
                            line=node.lineno, atoms=frozenset(atoms)))

    def _check_call_sink(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        arg_atoms = None
        desc = None
        if dotted is not None and "." in dotted:
            parts = dotted.split(".")
            if parts[-1] in SCHEDULE_METHODS:
                desc = f"{parts[-1]}()"
            elif "rng" in parts[:-1] and parts[-1] in RNG_METHODS:
                desc = f"rng.{parts[-1]}()"
            elif parts[-1] == "seed":
                desc = "seed()"
            elif "metrics" in parts[:-1]:
                desc = f"metrics call `{dotted}`"
        resolved = resolve_call(node, self.imports)
        if desc is None and resolved == "random.Random" and node.args:
            desc = "Random(seed)"
        if desc is None:
            return
        atoms: Set = set()
        for arg in node.args:
            atoms |= self._expr_atoms(arg)
        for kw in node.keywords:
            atoms |= self._expr_atoms(kw.value)
        if atoms:
            self.sinks.append(SinkSite(desc=desc, line=node.lineno,
                                       atoms=frozenset(atoms)))

    # -- expression atoms ----------------------------------------------
    def _source(self, kind: str, node: ast.AST, desc: str) -> Tuple:
        """Register (once) and return the atom for a source site."""
        key = id(node)
        if key not in self._site_ids:
            self.sources.append(SourceSite(kind=kind, line=node.lineno,
                                           desc=desc))
            self._site_ids[key] = ("src", len(self.sources) - 1)
        return self._site_ids[key]

    def _call_atom(self, node: ast.Call, callee: str) -> Tuple:
        key = id(node)
        if key in self._site_ids:
            return self._site_ids[key]
        params = self.index.functions[callee].params
        args: List[Tuple[int, FrozenSet]] = []
        star_atoms: Set = set()
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                star_atoms |= self._expr_atoms(arg.value)
            else:
                atoms = self._expr_atoms(arg)
                if atoms:
                    args.append((i, frozenset(atoms)))
        for kw in node.keywords:
            atoms = self._expr_atoms(kw.value)
            if not atoms:
                continue
            if kw.arg is None:
                star_atoms |= atoms
            elif kw.arg in params:
                args.append((params.index(kw.arg), frozenset(atoms)))
        if star_atoms:
            # A starred argument may land in any parameter.
            for i in range(len(params)):
                args.append((i, frozenset(star_atoms)))
        site = CallSite(callee=callee, label=short(callee),
                        line=node.lineno, args=tuple(args))
        self.calls.append(site)
        self._site_ids[key] = ("call", len(self.calls) - 1)
        return self._site_ids[key]

    def _expr_atoms(self, node: ast.AST) -> Set:
        if isinstance(node, ast.Call):
            return self._call_atoms(node)
        if isinstance(node, ast.Name):
            atoms = set(self.name_atoms.get(node.id, ()))
            if node.id in self.param_index:
                atoms.add(("param", self.param_index[node.id]))
            origin = self.imports.get(node.id)
            if origin == "os.environ":
                atoms.add(self._source("env", node, "`os.environ` read"))
            return atoms
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None:
                head, _, rest = dotted.partition(".")
                origin = self.imports.get(head, head)
                full = f"{origin}.{rest}" if rest else origin
                if full == "os.environ":
                    return {self._source("env", node,
                                         "`os.environ` read")}
            return self._expr_atoms(node.value)
        if isinstance(node, ast.Subscript):
            # A tainted index/slice taints the selection.
            return self._expr_atoms(node.value) \
                | self._expr_atoms(node.slice)
        if isinstance(node, ast.Slice):
            atoms: Set = set()
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    atoms |= self._expr_atoms(part)
            return atoms
        if isinstance(node, ast.BinOp):
            return self._expr_atoms(node.left) \
                | self._expr_atoms(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._expr_atoms(node.operand)
        if isinstance(node, ast.BoolOp):
            atoms: Set = set()
            for value in node.values:
                atoms |= self._expr_atoms(value)
            return atoms
        if isinstance(node, ast.Compare):
            atoms = self._expr_atoms(node.left)
            for comp in node.comparators:
                atoms |= self._expr_atoms(comp)
            return atoms
        if isinstance(node, ast.IfExp):
            return self._expr_atoms(node.body) \
                | self._expr_atoms(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            atoms = set()
            for elt in node.elts:
                atoms |= self._expr_atoms(elt)
            return atoms
        if isinstance(node, ast.Dict):
            atoms = set()
            for key in node.keys:
                if key is not None:
                    atoms |= self._expr_atoms(key)
            for value in node.values:
                atoms |= self._expr_atoms(value)
            return atoms
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp,
                             ast.DictComp)):
            return self._comprehension_atoms(node)
        if isinstance(node, ast.JoinedStr):
            atoms = set()
            for value in node.values:
                atoms |= self._expr_atoms(value)
            return atoms
        if isinstance(node, ast.FormattedValue):
            return self._expr_atoms(node.value)
        if isinstance(node, ast.Starred):
            return self._expr_atoms(node.value)
        if isinstance(node, ast.NamedExpr):
            return self._expr_atoms(node.value)
        if isinstance(node, (ast.Await,)):
            return self._expr_atoms(node.value)
        return set()

    def _comprehension_atoms(self, node: ast.AST) -> Set:
        atoms: Set = set()
        for gen in node.generators:
            atoms |= self._expr_atoms(gen.iter)
            if is_set_expr(gen.iter, self.set_names):
                atoms.add(self._source("order", gen.iter,
                                       "set iteration order"))
        if isinstance(node, ast.DictComp):
            atoms |= self._expr_atoms(node.key)
            atoms |= self._expr_atoms(node.value)
        else:
            atoms |= self._expr_atoms(node.elt)
        return atoms

    def _call_atoms(self, node: ast.Call) -> Set:
        resolved = resolve_call(node, self.imports)
        # Source calls.
        if resolved in _WALL_CLOCK_CALLS:
            return {self._source(
                "wallclock", node, f"`{resolved}()` wall-clock read")}
        if resolved in _GLOBAL_RANDOM_CALLS:
            return {self._source(
                "grandom", node, f"global `{resolved}()`")}
        if resolved == "random.Random" and not node.args \
                and not node.keywords:
            return {self._source(
                "grandom", node, "unseeded `Random()` (OS entropy)")}
        if resolved == "random.SystemRandom":
            return {self._source(
                "grandom", node, "`SystemRandom()` (OS entropy)")}
        if resolved in ("os.getenv", "os.environ.get"):
            return {self._source("env", node, f"`{resolved}()` read")}
        if resolved == "id" and isinstance(node.func, ast.Name):
            return {self._source(
                "env", node, "`id()` value (address-dependent)")}
        if resolved in ("os.listdir", "os.scandir"):
            return {self._source(
                "order", node, f"unsorted `{resolved}()`")}
        # Order sanitizers: strip order taint, keep everything else.
        if isinstance(node.func, ast.Name) \
                and node.func.id in _ORDER_SANITIZERS \
                and node.func.id not in self.imports:
            inner: Set = set()
            for arg in node.args:
                inner |= self._expr_atoms(arg)
            return {("nosort", frozenset(inner))} if inner else set()
        # list()/tuple()/iter() over a set is an order source.
        if isinstance(node.func, ast.Name) \
                and node.func.id in ("list", "tuple", "iter") \
                and node.args \
                and is_set_expr(node.args[0], self.set_names):
            return {self._source("order", node, "set iteration order")}
        # Resolved in-project call: summary lookup via a call atom.
        target = self.index.resolve_callable(self.info, node.func)
        if target is not None and target in self.index.functions:
            return {self._call_atom(node, target)}
        # Opaque call: propagate argument (and receiver) taint through.
        atoms: Set = set()
        for arg in node.args:
            atoms |= self._expr_atoms(arg)
        for kw in node.keywords:
            atoms |= self._expr_atoms(kw.value)
        if isinstance(node.func, ast.Attribute):
            atoms |= self._expr_atoms(node.func.value)
        return atoms


# ----------------------------------------------------------------------
# Whole-program fixpoint and reporting
# ----------------------------------------------------------------------
class TaintAnalysis:
    """Summary propagation over the call graph + finding generation."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        self.fts: Dict[str, FunctionTaint] = {}
        for qualname, info in index.functions.items():
            self.fts[qualname] = _Extractor(index, info).run()
        self.summaries: Dict[str, Summary] = {
            q: _EMPTY_SUMMARY for q in self.fts}
        fixpoint(self.summaries, self.fts, self._summarize)

    # -- atom resolution ------------------------------------------------
    def _resolve(self, ft: FunctionTaint, atoms: Iterable,
                 active: Set) -> Tuple[List[Taint], Set[int]]:
        taints: Dict[Tuple, Taint] = {}
        params: Set[int] = set()

        def add(taint: Taint) -> None:
            key = (taint.kind, taint.chain[0])
            old = taints.get(key)
            if old is None or len(taint.chain) < len(old.chain):
                taints[key] = taint

        for atom in atoms:
            if atom in active:
                continue
            tag = atom[0]
            if tag == "src":
                site = ft.sources[atom[1]]
                add(Taint(site.kind, (Step(
                    site.desc, ft.info.path, site.line),)))
            elif tag == "param":
                params.add(atom[1])
            elif tag == "nosort":
                sub_t, sub_p = self._resolve(ft, atom[1],
                                             active | {atom})
                for t in sub_t:
                    if t.kind != "order":
                        add(t)
                params |= sub_p
            elif tag == "call":
                site = ft.calls[atom[1]]
                summ = self.summaries.get(site.callee)
                if summ is None:
                    continue
                step = Step(f"returned by {site.label}",
                            ft.info.path, site.line)
                for t in summ.returns:
                    if len(t.chain) < _MAX_CHAIN:
                        add(Taint(t.kind, t.chain + (step,)))
                if summ.param_returns:
                    arg_map = dict(site.args)
                    through = Step(f"through {site.label}",
                                   ft.info.path, site.line)
                    for i in summ.param_returns:
                        sub = arg_map.get(i)
                        if not sub:
                            continue
                        sub_t, sub_p = self._resolve(
                            ft, sub, active | {atom})
                        for t in sub_t:
                            if len(t.chain) < _MAX_CHAIN:
                                add(Taint(t.kind, t.chain + (through,)))
                        params |= sub_p
        return sorted(taints.values()), params

    def _flows(self, ft: FunctionTaint
               ) -> Iterator[Tuple[int, str, FrozenSet, Tuple[Step, ...]]]:
        """``(line, sink, atoms, here→sink chain)`` for every value that
        reaches a sink in ``ft`` or, through a call, below it."""
        path = ft.info.path
        for sink in ft.sinks:
            yield sink.line, sink.desc, sink.atoms, (Step(
                f"feeds {sink.desc}", path, sink.line),)
        for site in ft.calls:
            summ = self.summaries.get(site.callee)
            if summ is None:
                continue
            arg_map = dict(site.args)
            step = Step(f"passed to {site.label}", path, site.line)
            for j, tail in summ.param_sinks:
                if arg_map.get(j):
                    yield (site.line, tail.desc, arg_map[j],
                           (step,) + tail.chain)

    # -- summaries ------------------------------------------------------
    def _summarize(self, ft: FunctionTaint) -> Summary:
        ret_taints, ret_params = self._resolve(ft, ft.return_atoms, set())
        sinks: Dict[Tuple[int, str], SinkTail] = {}
        for _, desc, atoms, chain in self._flows(ft):
            if len(chain) > _MAX_CHAIN:
                continue
            _, params = self._resolve(ft, atoms, set())
            for i in params:
                old = sinks.get((i, desc))
                if old is None or len(chain) < len(old.chain):
                    sinks[(i, desc)] = SinkTail(desc, chain)
        return Summary(
            returns=tuple(ret_taints[:_MAX_TAINTS]),
            param_returns=frozenset(ret_params),
            param_sinks=tuple((i, tail) for (i, _), tail
                              in sorted(sinks.items())),
        )

    # -- findings -------------------------------------------------------
    def run(self) -> List[Finding]:
        findings: Dict[Tuple, Finding] = {}
        for ft in self.fts.values():
            path = ft.info.path
            for line, desc, atoms, tail in self._flows(ft):
                taints, _ = self._resolve(ft, atoms, set())
                for t in taints:
                    chain = t.chain + tail
                    rule = KIND_RULES[t.kind]
                    message = self._message(t.kind, desc, chain)
                    key = (rule, path, line, chain[0])
                    old = findings.get(key)
                    if old is None or len(message) < len(old.message):
                        findings[key] = Finding(rule=rule, path=path,
                                                line=line, col=1,
                                                message=message)
        return sorted(findings.values(),
                      key=lambda f: (f.path, f.line, f.rule, f.message))

    @staticmethod
    def _message(kind: str, sink_desc: str,
                 chain: Tuple[Step, ...]) -> str:
        return (f"{_KIND_WORDS[kind]} value flows into {sink_desc}; "
                f"trace: {render_chain(chain)}")


def run_taint(index: ProjectIndex) -> List[Finding]:
    """All SL101–SL104 findings for an indexed project."""
    return TaintAnalysis(index).run()
