"""The ``simlint`` rule set.

Each rule targets one way a change can silently break the repository's
determinism contract ("same scenario + same seed = bit-identical event
trace", :mod:`repro.sim.engine`) or its per-event cost budget:

========  ==========================================================
SL001     use of the global ``random`` module (unseeded global state)
SL002     wall-clock reads (``time.time``, ``datetime.now``, ...)
SL008     multiprocessing/ProcessPoolExecutor outside the one
          sanctioned choke point, the fabric supervisor
          (``experiments/fabric/supervisor.py``)
SL009     stale ``# simlint: disable=...`` comment that no longer
          suppresses any finding (warning; see
          ``--strict-suppressions``)
SL013     stale baseline entry: a ``--baseline`` fingerprint whose
          finding no longer fires (warning; prune with
          ``--prune-baseline``)
SL201     simrace: co-schedulable handlers write conflicting state
          (same-instant firing order changes the final value)
SL202     simrace: co-schedulable read/write overlap (what one
          handler observes depends on seq order)
SL203     simrace: periodic handler provably unsafe to coalesce
          (its instances' same-tick invocations do not commute)
SL301     simheat: allocation in a per-event hot path (each event
          pays it; the per-event garbage bill at 10^5 peers)
SL302     simheat: O(peers)/O(pieces)-scale copy or rescan in a
          per-event region
SL303     simheat: closure/partial created per event — the code
          object is constant, hoist it to setup
========  ==========================================================

Rules are small classes registered in :data:`RULES`; adding a rule is
``@register`` plus a ``check`` method, and it is immediately available
to the CLI, the ``[tool.simlint]`` config block and the suppression
comments — no other wiring.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Type


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``scope`` is the dotted name of the innermost class or function
    around ``line`` (``""`` at module level, see
    :func:`enclosing_scope`); the baseline fingerprint uses it instead
    of the line, so a finding keeps its identity when code above it
    moves.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    scope: str = ""

    def format(self) -> str:
        """``path:line:col: RULE message`` (clickable in most UIs)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class FileContext:
    """Everything a rule needs to inspect one file."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        return Finding(rule=rule.id, path=self.path, line=line,
                       col=getattr(node, "col_offset", 0) + 1,
                       message=message,
                       scope=enclosing_scope(self.tree, line))


class Rule:
    """Base class: subclasses set ``id``/``name`` and implement
    :meth:`check`."""

    id: str = ""
    name: str = ""
    description: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError


#: Registry of all known rules, id -> instance.
RULES: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`RULES`."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls()
    return cls


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
_SCOPE_NODES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def enclosing_scope(tree: ast.AST, line: int) -> str:
    """``Class.method`` (dotted, nested defs included) of the innermost
    class or function whose source spans ``line``; ``""`` at module
    level."""
    names: List[str] = []
    node = tree
    while True:
        for child in ast.iter_child_nodes(node):
            end = getattr(child, "end_lineno", None)
            if end is not None and child.lineno <= line <= end:
                if isinstance(child, _SCOPE_NODES):
                    names.append(child.name)
                node = child
                break
        else:
            return ".".join(names)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> fully dotted origin, for every import in the file.

    ``import time`` -> {"time": "time"};
    ``from datetime import datetime as dt`` -> {"dt": "datetime.datetime"}.
    """
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = \
                    alias.name
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                mapping[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return mapping


def resolve_call(node: ast.Call, imports: Dict[str, str]) -> Optional[str]:
    """The fully dotted name a call resolves to, through the file's
    imports (``dt.now()`` -> ``datetime.datetime.now``)."""
    name = dotted_name(node.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = imports.get(head)
    if origin is None:
        return name
    return f"{origin}.{rest}" if rest else origin


# ----------------------------------------------------------------------
# SL001 — global random module
# ----------------------------------------------------------------------
#: ``random``-module functions that draw from the *global*, unseeded
#: generator.  ``Random``/``SystemRandom`` (classes the caller seeds or
#: explicitly opts into OS entropy with) are exempt.
_GLOBAL_RANDOM_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "seed",
    "getrandbits", "getstate", "setstate", "randbytes",
}


@register
class GlobalRandomRule(Rule):
    """SL001: the global ``random`` module must never be used.

    Every stochastic decision must flow through a seeded
    ``random.Random`` (``Simulator.rng`` or one derived via
    :class:`repro.sim.randomness.SeedSequence`); the global module is
    process-wide mutable state that any import can perturb, destroying
    trace reproducibility.
    """

    id = "SL001"
    name = "global-random"
    description = ("use of the global random module instead of "
                   "Simulator.rng / SeedSequence")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield ctx.finding(
                            self, node,
                            "import of the global `random` module; "
                            "use `from random import Random` and seed "
                            "an instance (Simulator.rng / SeedSequence)")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    for alias in node.names:
                        if alias.name in _GLOBAL_RANDOM_FUNCS:
                            yield ctx.finding(
                                self, node,
                                f"`from random import {alias.name}` binds "
                                f"the global generator; use a seeded "
                                f"random.Random instance")


# ----------------------------------------------------------------------
# SL002 — wall-clock reads
# ----------------------------------------------------------------------
_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


@register
class WallClockRule(Rule):
    """SL002: simulation code must use ``Simulator.now``, never the
    host's clock — wall-clock values differ run to run and leak host
    load into results."""

    id = "SL002"
    name = "wall-clock"
    description = ("wall-clock call (time.time, datetime.now, ...) "
                   "inside simulation code")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_call(node, imports)
            if resolved in _WALL_CLOCK_CALLS:
                yield ctx.finding(
                    self, node,
                    f"wall-clock call `{resolved}`; simulation code "
                    f"must use Simulator.now")


# ----------------------------------------------------------------------
# SL008 — ad-hoc process fan-out outside the sanctioned choke point
# ----------------------------------------------------------------------
@register
class AdHocParallelismRule(Rule):
    """SL008: process-based parallelism must route through
    ``run_specs`` and the sweep fabric.

    The fabric supervisor (``experiments/fabric/supervisor.py``) owns
    the only process pool: it guarantees spec-order results, per-run
    seeding, picklable work units, checkpointed recovery from worker
    death, and the ``REPRO_WORKERS`` knob.  A ``ProcessPoolExecutor``
    (or raw ``multiprocessing``) spun up anywhere else re-derives
    those guarantees ad hoc — or, more likely, silently lacks one of
    them (results in completion order, shared mutable state, a hang on
    worker death).  The rule flags any import or attribute reference to
    ``multiprocessing`` or ``ProcessPoolExecutor`` outside that one
    module.
    """

    id = "SL008"
    name = "adhoc-parallelism"
    description = ("ProcessPoolExecutor/multiprocessing outside the "
                   "fabric supervisor; route fan-out through "
                   "repro.experiments.parallel.run_specs")

    _GUIDANCE = ("process fan-out belongs in the sweep fabric: call "
                 "repro.experiments.parallel.run_specs (or "
                 "run_specs_fabric), whose supervisor guarantees "
                 "spec-order results, per-run seeding and worker-death "
                 "recovery")

    @staticmethod
    def _is_choke_point(path: str) -> bool:
        parts = path.replace("\\", "/").split("/")
        return (parts[-1] == "supervisor.py" and "fabric" in parts
                and "experiments" in parts)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if self._is_choke_point(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "multiprocessing":
                        yield ctx.finding(
                            self, node,
                            f"`import {alias.name}`: {self._GUIDANCE}")
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[0] == "multiprocessing":
                    yield ctx.finding(
                        self, node,
                        f"`from {module} import ...`: {self._GUIDANCE}")
                    continue
                for alias in node.names:
                    if alias.name == "ProcessPoolExecutor":
                        yield ctx.finding(
                            self, node,
                            f"`from {module} import "
                            f"ProcessPoolExecutor`: {self._GUIDANCE}")
            elif (isinstance(node, ast.Attribute)
                    and node.attr == "ProcessPoolExecutor"):
                name = dotted_name(node) or f"<expr>.{node.attr}"
                yield ctx.finding(
                    self, node, f"`{name}`: {self._GUIDANCE}")


# ----------------------------------------------------------------------
# Metadata-only rules: produced by other passes, registered here so the
# CLI (`--list-rules`, `--enable`), config validation and suppression
# comments know them.  Their ``check`` yields nothing — the analyzer
# (SL009), the CLI's baseline bookkeeping (SL013) and the --deep
# driver (SL2xx, SL3xx) emit the findings.
# ----------------------------------------------------------------------
class MetaRule(Rule):
    """A rule id whose findings come from a pass outside the per-file
    rule loop."""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())


@register
class UnusedSuppressionRule(MetaRule):
    """SL009: a ``# simlint: disable=SLxxx`` comment that suppressed
    nothing this run.

    A stale suppression is invisible until the day a *real* finding
    appears on that line and is silently swallowed.  Reported as a
    warning by default; ``--strict-suppressions`` turns it into an
    error.  Emitted by the analyzer's suppression-usage tracking.
    """

    id = "SL009"
    name = "unused-suppression"
    description = ("suppression comment that no longer matches any "
                   "finding; remove it (warning unless "
                   "--strict-suppressions)")


@register
class StaleBaselineEntryRule(MetaRule):
    """SL013: a baseline fingerprint whose finding no longer fires.

    The mirror image of SL009 for ``--baseline`` files: an entry that
    matches nothing is invisible until the day a *new* finding with
    the same fingerprint lands and is silently swallowed by the stale
    grant.  Reported as a warning whenever ``--baseline`` is
    given; ``repro lint --deep --prune-baseline`` rewrites the file
    without the stale entries.  Emitted by the CLI's baseline
    bookkeeping.
    """

    id = "SL013"
    name = "stale-baseline-entry"
    description = ("baseline fingerprint that matches no current "
                   "finding; prune with --prune-baseline (warning)")


@register
class RaceConflictingWritesRule(MetaRule):
    """SL201: two handlers that can fire at the same instant both
    write a matching state field (and the writes do not commute).

    The engine's ``(time, seq)`` tie-break makes the outcome
    deterministic *today*, but the order is load-bearing: coalescing,
    batching, or any reordering of same-instant events changes the
    final value.  Emitted by the simrace pass of ``repro lint
    --deep``; the diagnostic carries both schedule-site→field effect
    chains.
    """

    id = "SL201"
    name = "race-conflicting-writes"
    description = ("co-schedulable handlers write conflicting state "
                   "(--deep, simrace)")


@register
class RaceReadWriteOverlapRule(MetaRule):
    """SL202: a handler reads state that a co-schedulable handler
    writes — what the reader observes depends on the same-instant
    ``seq`` order.

    Relies on the engine's same-time FIFO contract (pinned by the
    property tests in ``tests/test_engine_ordering.py``); any
    transform that breaks that contract flips these reads.  Emitted
    by the simrace pass of ``repro lint --deep``.
    """

    id = "SL202"
    name = "race-read-write-overlap"
    description = ("co-schedulable handler reads state another "
                   "writes at the same instant (--deep, simrace)")


@register
class RaceUncoalescableTimerRule(MetaRule):
    """SL203: a periodic timer handler is provably unsafe to coalesce.

    Collapsing N same-tick invocations into one batch, or permuting
    them, is only trace-safe when the invocations commute with each
    other: a handler that draws from the shared rng, plainly writes
    shared/unknown-receiver state, or reads what another instance's
    invocation writes, does not.  Emitted by the simrace pass of
    ``repro lint --deep``; a baselined SL203 is the checked-in
    inventory of timers whose same-instant order the trace depends
    on.
    """

    id = "SL203"
    name = "race-uncoalescable-timer"
    description = ("periodic handler provably unsafe to coalesce "
                   "(--deep, simrace)")


@register
class HeatPerEventAllocationRule(MetaRule):
    """SL301: an allocation sits in a per-event hot path.

    The hot-region inference marks every function reachable from
    same-instant/event-driven schedule sites and protocol message
    handlers; an allocation there (fresh container, tuple/dataclass
    construction, string formatting) is paid once per simulation
    event — the per-event garbage bill that caps 10^5→10^6-peer
    swarms.  Emitted by the simheat pass of ``repro lint --deep``;
    the diagnostic lists the sites and the seed→function chain.
    """

    id = "SL301"
    name = "heat-per-event-allocation"
    description = ("allocation in a per-event hot path (--deep, "
                   "simheat)")


@register
class HeatSwarmScaleAllocationRule(MetaRule):
    """SL302: an O(peers)/O(pieces)-scale copy, comprehension or
    slicing executes in a per-event region.

    The allocation's *size* grows with the swarm, so per-event cost
    is O(N) where the engine budget is O(1).  Emitted by the simheat
    pass of ``repro lint --deep``.
    """

    id = "SL302"
    name = "heat-swarm-scale-allocation"
    description = ("O(swarm)-scale copy/rescan allocation in a "
                   "per-event region (--deep, simheat)")


@register
class HeatPerEventClosureRule(MetaRule):
    """SL303: a closure, lambda, nested ``def`` or
    ``functools.partial`` is created inside a per-event region.

    The code object never changes — only the cell bindings do — so
    the per-event function-object churn should be hoisted to setup: a
    bound method, a module-level function, or a partial built once.
    Emitted by the simheat pass of ``repro lint --deep``.
    """

    id = "SL303"
    name = "heat-per-event-closure"
    description = ("closure/partial created per event; hoist to setup "
                   "(--deep, simheat)")


def all_rule_ids() -> List[str]:
    """Sorted ids of every registered rule."""
    return sorted(RULES)
