"""Interprocedural state-effect inference for ``simrace``.

The effect pass asks *"what state does this handler touch?"* — the
prerequisite for deciding whether two event handlers **commute** when the engine fires them at the same instant
(:mod:`repro.devtools.races`).

Every function in the project gets an **effect summary**: the set of
:class:`Effect` atoms it may perform, directly or through any resolved
call, each carrying a source→field trace for diagnostics.  An effect
is a ``(kind, owner, field)`` triple:

**kind** — how the state is touched:

* ``read``  — attribute load;
* ``write`` — attribute store, or a call of a known mutator method
  (``append``/``add``/``update``/...) on the attribute;
* ``accum`` — augmented assignment with a commutative operator
  (``+=``/``-=``/``*=``): two accumulations of the same field commute,
  so accum/accum pairs are *not* conflicts;
* ``rng``   — a draw from the simulation ``rng`` (consumes shared
  generator state: reordering draws changes every later value).

**owner** — whose state, as far as a purely static analysis can tell:

* ``self``   — reached through the method's own ``self``; two
  *different* instances of the class have disjoint ``self`` state, so
  self/self pairs across handlers are never reported (the analysis
  cannot prove both handlers are bound to the same instance);
* ``other``  — reached through a parameter, local, or a non-``self``
  receiver: identity unknown, so it *may* alias anything of matching
  shape;
* ``shared`` — process-of-the-simulation singletons: ``metrics``
  paths and the ``rng`` stream.

**field** — ``Class.attr[.sub]`` for ``self``-rooted accesses (the
class supplies the namespace), the bare dotted path for unknown
receivers, ``metrics.attr`` for metrics state, ``rng`` for the
generator.  Two fields *match* when they are equal, or when their
terminal attribute matches and at least one side's identity is
unknown (``other``-owned or unqualified) — conservative aliasing in
the same spirit as the call graph's unique-method heuristic.

Summaries propagate over the call graph with a receiver mapping: a
``self.helper()`` call keeps the callee's ``self`` effects as
``self``; a call on any other receiver demotes them to ``other``; a
constructor call drops them entirely (a freshly built object is
unreachable from any co-scheduled handler until published), iterated
to convergence by :func:`~repro.devtools.callgraph.fixpoint`.
"""

from __future__ import annotations

import ast
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .callgraph import (FunctionInfo, ProjectIndex, Step, fixpoint,
                        short)
from .rules import RNG_METHODS, dotted_name

#: Methods that mutate their receiver in place.  Calling one of these
#: on an attribute path is a write to that path.
MUTATOR_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "sort", "reverse",
    "appendleft", "popleft",
}

_MAX_CHAIN = 8         # steps kept per effect trace
_MAX_EFFECTS = 64      # distinct effects kept per summary

#: Kinds that change state (participate in conflicts as writers).
WRITE_KINDS = frozenset({"write", "accum"})


class Effect(NamedTuple):
    """One way a function may touch state (see module docstring)."""

    kind: str    # "read" | "write" | "accum" | "rng"
    owner: str   # "self" | "other" | "shared"
    field: str   # "Class.attr", bare path, "metrics.attr", or "rng"

    @property
    def terminal(self) -> str:
        return self.field.rsplit(".", 1)[-1]


class TracedEffect(NamedTuple):
    """An effect plus the call chain that reaches it."""

    effect: Effect
    chain: Tuple[Step, ...]


class EffectCall(NamedTuple):
    """A resolved call site and how its receiver maps ``self``."""

    callee: str
    line: int
    receiver: str   # "self" | "other" | "plain" | "ctor"


class FunctionEffects(NamedTuple):
    """Per-function extraction result."""

    info: FunctionInfo
    direct: Tuple[TracedEffect, ...]
    calls: Tuple[EffectCall, ...]


def fields_match(a: Effect, b: Effect) -> bool:
    """Could ``a`` and ``b`` denote the same storage location?

    Exact field equality always matches.  Terminal-attribute equality
    matches only when at least one side's object identity is unknown
    (``other``-owned, or an unqualified single-segment field) — two
    fully-qualified ``self`` fields of different classes are distinct
    namespaces and never alias.
    """
    if a.field == b.field:
        return True
    if a.terminal != b.terminal:
        return False
    return (a.owner == "other" or b.owner == "other"
            or "." not in a.field or "." not in b.field)


# ----------------------------------------------------------------------
# Per-function extraction
# ----------------------------------------------------------------------
class _EffectExtractor:
    """Collect the direct effects and resolved calls of one function."""

    def __init__(self, index: ProjectIndex, info: FunctionInfo):
        self.index = index
        self.info = info
        self.effects: Dict[Effect, TracedEffect] = {}
        self.calls: List[EffectCall] = []
        cls = None
        if info.class_name is not None:
            cls = index.classes.get(f"{info.module}.{info.class_name}")
        #: method names of the enclosing class (and in-project bases):
        #: ``self.method`` loads are lookups, not state reads.
        self.own_methods: Set[str] = set()
        if cls is not None:
            for klass in index.mro(cls):
                self.own_methods.update(klass.methods)

    def run(self) -> FunctionEffects:
        call_funcs = set()
        own = self.info.nodes
        for node in own:
            if isinstance(node, ast.Call):
                call_funcs.add(id(node.func))
                self._visit_call(node)
        for node in own:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    self._visit_store(target, node.lineno, kind="write")
            elif isinstance(node, ast.AugAssign):
                commutes = isinstance(node.op,
                                      (ast.Add, ast.Sub, ast.Mult))
                self._visit_store(node.target, node.lineno,
                                  kind="accum" if commutes else "write")
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load) \
                    and id(node) not in call_funcs:
                effect = self._classify(dotted_name(node) or "")
                if effect is not None:
                    self._add(effect, node.lineno, "reads")
        return FunctionEffects(info=self.info,
                               direct=tuple(self.effects.values()),
                               calls=tuple(self.calls))

    # -- classification helpers -----------------------------------------
    def _classify(self, dotted: str) -> Optional[Effect]:
        """Owner/field for an attribute path, or None to ignore."""
        parts = dotted.split(".")
        root, rest = parts[0], parts[1:]
        if not rest:
            return None  # bare name: local variable, not object state
        if "metrics" in parts[:-1]:
            return Effect("read", "shared", f"metrics.{parts[-1]}")
        if root in ("self", "cls"):
            if len(rest) == 1 and rest[0] in self.own_methods:
                return None  # method lookup, not state
            cls = self.info.class_name or "?"
            return Effect("read", "self", ".".join([cls] + rest))
        return Effect("read", "other", ".".join(rest))

    def _add(self, effect: Effect, line: int, verb: str) -> None:
        if effect in self.effects:
            return
        step = Step(f"{verb} `{effect.field}`", self.info.path, line)
        self.effects[effect] = TracedEffect(effect, (step,))

    # -- visitors --------------------------------------------------------
    def _visit_store(self, target: ast.AST, line: int,
                     kind: str) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._visit_store(elt, line, kind)
            return
        if isinstance(target, ast.Starred):
            self._visit_store(target.value, line, kind)
            return
        if isinstance(target, ast.Subscript):
            # `self.have[i] = x` writes the container `self.have`.
            target = target.value
        dotted = dotted_name(target)
        if dotted is None:
            return
        base = self._classify(dotted)
        if base is None:
            return
        verb = "accumulates into" if kind == "accum" else "writes"
        self._add(Effect(kind, base.owner, base.field), line, verb)

    def _visit_call(self, node: ast.Call) -> None:
        func = node.func
        dotted = dotted_name(func)
        if dotted is not None and "." in dotted:
            parts = dotted.split(".")
            # rng draw: consumes the shared generator stream.
            if "rng" in parts[:-1] and parts[-1] in RNG_METHODS:
                self._add(Effect("rng", "shared", "rng"), node.lineno,
                          "draws from")
                return
            # Mutator method on an attribute path: write to the path.
            if parts[-1] in MUTATOR_METHODS and len(parts) > 2:
                receiver = ".".join(parts[:-1])
                base = self._classify(receiver)
                if base is not None:
                    self._add(Effect("write", base.owner, base.field),
                              node.lineno,
                              f"mutates (`.{parts[-1]}()`)")
                # fall through: the mutator may also resolve in-project
        target = self.index.resolve_callable(self.info, func)
        if target is None or target not in self.index.functions:
            return
        if target.endswith(".__init__") and dotted is not None \
                and dotted.split(".")[-1][:1].isupper():
            receiver = "ctor"
        elif isinstance(func, ast.Attribute) and dotted is not None \
                and dotted.split(".")[0] in ("self", "cls") \
                and len(dotted.split(".")) == 2:
            receiver = "self"
        elif isinstance(func, ast.Attribute):
            receiver = "other"
        else:
            receiver = "plain"
        self.calls.append(EffectCall(callee=target, line=node.lineno,
                                     receiver=receiver))


# ----------------------------------------------------------------------
# Whole-program fixpoint
# ----------------------------------------------------------------------
def _map_effect(te: TracedEffect, receiver: str
                ) -> Optional[TracedEffect]:
    """A callee effect as seen by the caller through ``receiver``."""
    effect = te.effect
    if effect.owner != "self" or receiver == "self":
        return te
    if receiver == "other":
        return TracedEffect(Effect(effect.kind, "other", effect.field),
                            te.chain)
    # "ctor": the fresh object is unpublished; "plain": a module-level
    # function has no self (defensive — such effects cannot exist).
    return None


#: Summary ranking under the size cap: state-changing effects and rng
#: draws must survive before reads (reads only matter opposite a
#: write, which the writer's summary still carries).
_KIND_PRIORITY = {"write": 0, "accum": 1, "rng": 2, "read": 3}


def infer_effects(index: ProjectIndex
                  ) -> Dict[str, Tuple[TracedEffect, ...]]:
    """Effect summary for every function in an indexed project."""
    fes = {qualname: _EffectExtractor(index, info).run()
           for qualname, info in index.functions.items()}
    summaries: Dict[str, Tuple[TracedEffect, ...]] = {q: () for q in fes}

    def summarize(fe: FunctionEffects) -> Tuple[TracedEffect, ...]:
        merged: Dict[Effect, TracedEffect] = {}

        def add(te: TracedEffect) -> None:
            old = merged.get(te.effect)
            if old is None or len(te.chain) < len(old.chain):
                merged[te.effect] = te

        for te in fe.direct:
            add(te)
        for call in fe.calls:
            callee_summary = summaries.get(call.callee, ())
            if not callee_summary:
                continue
            step = Step(f"via {short(call.callee)}()", fe.info.path,
                        call.line)
            for te in callee_summary:
                if len(te.chain) >= _MAX_CHAIN:
                    continue
                mapped = _map_effect(te, call.receiver)
                if mapped is not None:
                    add(TracedEffect(mapped.effect,
                                     (step,) + mapped.chain))
        ranked = sorted(
            merged.values(),
            key=lambda te: (_KIND_PRIORITY.get(te.effect.kind, 9),
                            te.effect.owner, te.effect.field))
        return tuple(ranked[:_MAX_EFFECTS])

    return fixpoint(summaries, fes, summarize)
