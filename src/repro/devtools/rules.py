"""The ``simlint`` rule set.

Each rule targets one way a change can silently break the repository's
determinism contract ("same scenario + same seed = bit-identical event
trace", :mod:`repro.sim.engine`) or the almost-fair-exchange protocol
invariants (:mod:`repro.core.exchange`):

========  ==========================================================
SL001     use of the global ``random`` module (unseeded global state)
SL002     wall-clock reads (``time.time``, ``datetime.now``, ...)
SL003     iteration over a ``set``/``frozenset`` feeding ``schedule``
          or ``rng`` calls (hash-order nondeterminism)
SL004     float ``==``/``!=`` on simulation-time values
SL007     direct ``rng`` use inside a ``faults/`` package (fault
          injection must draw from its own named substream)
SL008     multiprocessing/ProcessPoolExecutor outside the one
          sanctioned choke point, the fabric supervisor
          (``experiments/fabric/supervisor.py``)
SL009     stale ``# simlint: disable=...`` comment that no longer
          suppresses any finding (warning; see
          ``--strict-suppressions``)
SL011     ad-hoc checkpoint/manifest/state-file writes under
          ``experiments/`` outside the ``fabric/`` package (bypasses
          atomic, verified sweep persistence)
SL012     per-peer Python-object iteration (``... in peers.values()``
          / ``.items()``) inside ``bt/`` (bypasses the columnar
          swarm state; O(N) object walks on hot paths)
SL013     stale baseline entry: a ``--baseline`` fingerprint whose
          finding no longer fires (warning; prune with
          ``--prune-baseline``)
SL014     ad-hoc cross-peer message delivery inside ``bt/``: another
          object's method scheduled directly instead of going through
          ``Swarm.send_control`` / the uplink (bypasses latency,
          fault injection and the network substrate)
SL201     simrace: co-schedulable handlers write conflicting state
          (same-instant firing order changes the final value)
SL202     simrace: co-schedulable read/write overlap (what one
          handler observes depends on seq order)
SL203     simrace: periodic handler provably unsafe to coalesce
          (its instances' same-tick invocations do not commute)
SL301     simheat: allocation in a per-event hot path (each event
          pays it; the per-event garbage bill at 10^5 peers)
SL302     simheat: O(peers)/O(pieces)-scale copy or rescan in a
          per-event region (interprocedural counterpart of SL012)
SL303     simheat: closure/partial created per event — the code
          object is constant, hoist it to setup
SL304     simheat: per-event construction of a poolable type for
          which a free-list exists (engine events, piece messages)
========  ==========================================================

Rules are small classes registered in :data:`RULES`; adding a rule is
``@register`` plus a ``check`` method, and it is immediately available
to the CLI, the ``[tool.simlint]`` config block and the suppression
comments — no other wiring.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Type


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

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
        return Finding(rule=rule.id, path=self.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       message=message)


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


def is_set_expr(node: ast.AST, set_names: Set[str] = frozenset()) -> bool:
    """Is ``node`` syntactically a set/frozenset value?

    ``set_names`` carries local variable names known (by simple
    forward assignment tracking) to hold sets.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return is_set_expr(node.left, set_names) \
            or is_set_expr(node.right, set_names)
    return False


SCHEDULE_METHODS = {"schedule", "schedule_at", "call_now"}
RNG_METHODS = {"choice", "choices", "sample", "shuffle", "randint",
               "randrange", "random", "uniform", "expovariate", "gauss",
               "getrandbits"}


def _uses_schedule_or_rng(node: ast.AST) -> bool:
    """Does the subtree call ``schedule``/``schedule_at``/``call_now``
    or anything reached through an ``rng`` attribute/name?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            name = dotted_name(sub.func)
            if name is None:
                continue
            parts = name.split(".")
            if parts[-1] in SCHEDULE_METHODS:
                return True
            if "rng" in parts[:-1] and parts[-1] in RNG_METHODS:
                return True
        elif isinstance(sub, (ast.Name, ast.Attribute)):
            if (sub.id if isinstance(sub, ast.Name) else sub.attr) == "rng":
                return True
    return False


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
# SL003 — set iteration feeding schedule/rng
# ----------------------------------------------------------------------
@register
class SetIterationRule(Rule):
    """SL003: iterating a set in a path that schedules events or draws
    randomness makes event order depend on hash seeds and insertion
    history.  Sort first (``sorted(the_set)``)."""

    id = "SL003"
    name = "set-iteration"
    description = ("iteration over a set/frozenset feeding schedule() "
                   "or rng calls; sort it first")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for scope in ast.walk(ctx.tree):
            if not isinstance(scope, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.Module)):
                continue
            yield from self._check_scope(ctx, scope)

    def _check_scope(self, ctx: FileContext,
                     scope: ast.AST) -> Iterator[Finding]:
        # Forward pass: names assigned set-valued expressions in this
        # scope (no flow analysis — one function is small enough that a
        # name once bound to a set is treated as a set throughout).
        set_names: Set[str] = set()
        body = scope.body if hasattr(scope, "body") else []
        for node in body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign) \
                        and is_set_expr(sub.value, set_names):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            set_names.add(target.id)
                elif isinstance(sub, ast.AnnAssign) \
                        and sub.value is not None \
                        and is_set_expr(sub.value, set_names) \
                        and isinstance(sub.target, ast.Name):
                    set_names.add(sub.target.id)

        for node in body:
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)) \
                        and sub is not scope:
                    continue
                yield from self._check_node(ctx, sub, set_names)

    def _check_node(self, ctx: FileContext, node: ast.AST,
                    set_names: Set[str]) -> Iterator[Finding]:
        if isinstance(node, ast.For) \
                and is_set_expr(node.iter, set_names):
            loop_uses = any(_uses_schedule_or_rng(stmt)
                            for stmt in node.body)
            if loop_uses:
                yield ctx.finding(
                    self, node.iter,
                    "iteration over a set feeds schedule()/rng; "
                    "iterate sorted(...) for deterministic order")
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                               ast.SetComp, ast.DictComp)):
            for gen in node.generators:
                if is_set_expr(gen.iter, set_names) \
                        and _uses_schedule_or_rng(node):
                    yield ctx.finding(
                        self, gen.iter,
                        "comprehension over a set feeds schedule()/rng; "
                        "iterate sorted(...) for deterministic order")
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                return
            parts = name.split(".")
            if "rng" not in parts[:-1] or parts[-1] not in RNG_METHODS:
                return
            for arg in node.args:
                inner = arg
                if isinstance(arg, ast.Call) \
                        and isinstance(arg.func, ast.Name) \
                        and arg.func.id in ("list", "tuple"):
                    inner = arg.args[0] if arg.args else arg
                if is_set_expr(inner, set_names):
                    yield ctx.finding(
                        self, arg,
                        f"set passed to rng.{parts[-1]}(); convert "
                        f"with sorted(...) for deterministic order")


# ----------------------------------------------------------------------
# SL004 — float equality on simulation time
# ----------------------------------------------------------------------
def _is_time_like(node: ast.AST) -> Optional[str]:
    """The name of a simulation-time-ish operand, or None."""
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return None
    if name == "now" or name == "time" or name.endswith("_time") \
            or name.endswith("_at") or name.startswith("time_") \
            or name in ("deadline", "timestamp"):
        return name
    return None


@register
class TimeEqualityRule(Rule):
    """SL004: simulation times are accumulated floats — exact
    ``==``/``!=`` comparisons flip with summation order.  Compare with
    a tolerance, or order (``<=``/``>=``)."""

    id = "SL004"
    name = "time-float-eq"
    description = "float ==/!= comparison on simulation-time values"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                name = _is_time_like(left) or _is_time_like(right)
                if name is None:
                    continue
                other = right if _is_time_like(left) else left
                # `x == None` is an identity mistake, not a float one;
                # and equality against a literal 0 sentinel is common
                # and exact.
                if isinstance(other, ast.Constant) \
                        and (other.value is None
                             or isinstance(other.value, (int, bool))
                             and not isinstance(other.value, float)):
                    continue
                yield ctx.finding(
                    self, node,
                    f"float equality on simulation time `{name}`; "
                    f"use a tolerance or an ordering comparison")


# ----------------------------------------------------------------------
# SL007 — direct rng use inside fault-injection code
# ----------------------------------------------------------------------
@register
class FaultsRngRule(Rule):
    """SL007: fault-injection code must never touch the simulation's
    main ``rng``.

    The determinism contract of :mod:`repro.faults` is that attaching
    an idle :class:`~repro.faults.plan.FaultPlan` leaves traces
    bit-identical — which holds only if the injector draws from its
    own named substream (``repro.sim.randomness.substream``) and the
    main generator's draw order is untouched.  One ``rng.random()``
    inside ``faults/`` silently perturbs every scenario that attaches
    an injector.  The rule flags *any* read of a name or attribute
    called ``rng`` in files under a ``faults`` package directory.
    """

    id = "SL007"
    name = "faults-direct-rng"
    description = ("direct `rng` use inside a faults/ package; draw "
                   "from a named substream instead")

    @staticmethod
    def _in_faults_package(path: str) -> bool:
        parts = path.replace("\\", "/").split("/")
        return "faults" in parts[:-1]

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self._in_faults_package(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Name) and node.id == "rng":
                name = "rng"
            elif isinstance(node, ast.Attribute) and node.attr == "rng":
                name = dotted_name(node) or f"<expr>.{node.attr}"
            else:
                continue
            yield ctx.finding(
                self, node,
                f"`{name}` referenced inside a faults/ package; fault "
                f"injection must draw from its own substream "
                f"(repro.sim.randomness.substream), never the "
                f"simulation rng")


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
# SL011 — ad-hoc sweep-state writes outside the fabric choke point
# ----------------------------------------------------------------------
@register
class AdHocSweepStateRule(Rule):
    """SL011: sweep state must persist through the fabric.

    The fabric (``experiments/fabric/``) is the single sanctioned
    place where experiment code writes checkpoints, manifests and
    journals: its writes are atomic (temp-then-rename), sha256-
    verified on load, and content-addressed — which is what makes
    ``repro sweep --resume`` trustworthy after any kind of death.  A
    plain ``open(path, "w")`` (or ``os.replace``/``os.rename``/
    ``Path.write_text``) elsewhere under ``experiments/`` re-invents
    that persistence ad hoc — typically non-atomically, so a SIGKILL
    mid-write leaves a torn file that a later resume happily merges.
    Mirrors SL008's choke-point pattern: route state through
    ``repro.experiments.fabric.checkpoint`` (``atomic_write_bytes`` /
    ``write_shard_checkpoint``) and ``write_manifest`` instead.
    """

    id = "SL011"
    name = "adhoc-sweep-state"
    description = ("file writes under experiments/ outside fabric/; "
                   "persist sweep state via "
                   "repro.experiments.fabric.checkpoint")

    _GUIDANCE = ("sweep/experiment state writes belong in "
                 "repro.experiments.fabric (atomic_write_bytes / "
                 "write_shard_checkpoint / write_manifest): atomic, "
                 "sha256-verified, resume-safe")

    _WRITE_MODES = frozenset("wax+")

    @staticmethod
    def _in_scope(path: str) -> bool:
        parts = path.replace("\\", "/").split("/")
        return "experiments" in parts[:-1] and "fabric" not in parts

    @classmethod
    def _open_write_mode(cls, node: ast.Call) -> Optional[str]:
        """The mode string when this is ``open(...)`` for writing."""
        mode: Optional[ast.AST] = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if mode is None or not isinstance(mode, ast.Constant) \
                or not isinstance(mode.value, str):
            return None
        if set(mode.value) & cls._WRITE_MODES:
            return mode.value
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self._in_scope(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = self._open_write_mode(node)
                if mode is not None:
                    yield ctx.finding(
                        self, node,
                        f"`open(..., {mode!r})` under experiments/: "
                        f"{self._GUIDANCE}")
            elif isinstance(func, ast.Attribute):
                name = dotted_name(func)
                if name in ("os.replace", "os.rename"):
                    yield ctx.finding(
                        self, node, f"`{name}(...)` under "
                                    f"experiments/: {self._GUIDANCE}")
                elif func.attr in ("write_text", "write_bytes"):
                    yield ctx.finding(
                        self, node,
                        f"`.{func.attr}(...)` under experiments/: "
                        f"{self._GUIDANCE}")


# ----------------------------------------------------------------------
# SL012 — per-peer object iteration inside bt/ (columnar bypass)
# ----------------------------------------------------------------------
@register
class PerPeerObjectScanRule(Rule):
    """SL012: swarm-scale code must not walk peer objects one by one.

    ``for p in self.peers.values()`` (and its comprehension/``items()``
    variants) materializes every live ``Peer`` object per call — the
    exact O(N)-objects-per-event shape the columnar swarm state
    (:mod:`repro.bt.columnar`) exists to replace with flat row arrays
    and piece bitmasks.  At flash-crowd scale (100k peers) one such
    walk on a hot path dominates the whole event loop.  Route scans
    through ``swarm.columnar`` (``wanters`` / ``availability`` /
    ``has_provider`` / the adjacency rows) instead; consistency
    checkers and cold-path accessors that genuinely need the objects
    carry an explicit suppression with a justification.
    """

    id = "SL012"
    name = "per-peer-object-scan"
    description = ("`... in peers.values()/items()` iteration inside "
                   "bt/; use the columnar swarm state "
                   "(repro.bt.columnar)")

    @staticmethod
    def _in_bt_package(path: str) -> bool:
        parts = path.replace("\\", "/").split("/")
        return "bt" in parts[:-1]

    @staticmethod
    def _is_peers_scan(node: ast.AST) -> Optional[str]:
        """The offending dotted spelling, if ``node`` iterates a
        ``peers`` mapping's ``.values()``/``.items()``."""
        if not isinstance(node, ast.Call) \
                or not isinstance(node.func, ast.Attribute) \
                or node.func.attr not in ("values", "items"):
            return None
        target = node.func.value
        if isinstance(target, ast.Name) and target.id == "peers":
            return f"peers.{node.func.attr}()"
        if isinstance(target, ast.Attribute) and target.attr == "peers":
            base = dotted_name(target)
            base = base if base is not None else "<expr>.peers"
            return f"{base}.{node.func.attr}()"
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self._in_bt_package(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                spelling = self._is_peers_scan(it)
                if spelling is not None:
                    yield ctx.finding(
                        self, it,
                        f"per-peer object iteration `{spelling}` in "
                        f"bt/; walk the columnar swarm state "
                        f"(repro.bt.columnar) instead of live Peer "
                        f"objects")


# ----------------------------------------------------------------------
# SL014 — ad-hoc cross-peer delivery bypassing send_control / uplink
# ----------------------------------------------------------------------
@register
class AdHocDeliveryRule(Rule):
    """SL014: protocol messages must travel through the choke points.

    ``Swarm.send_control`` is where control-plane latency, fault
    injection (loss/delay) and the network substrate (routing, per-link
    loss/jitter, partitions) are applied; piece payloads go through the
    uplink transfer path for the same reason.  Scheduling *another
    object's* method directly (``sim.schedule(d, receiver.on_foo,
    ...)``) inside ``bt/`` smuggles a message past all of them: it
    arrives even across a partition, never drops, and pays no latency.
    Schedule only your own callbacks (``self.…``, including attributes
    reached through ``self``) or module-level timer functions; hand
    anything destined for another peer to ``send_control`` or the
    uplink.  ``bt/swarm.py`` is exempt — ``send_control`` itself is
    the choke point that schedules the receiver's handler.
    """

    id = "SL014"
    name = "ad-hoc-delivery"
    description = ("another object's method scheduled directly in "
                   "bt/; route messages through Swarm.send_control "
                   "or the uplink transfer path")

    @staticmethod
    def _in_scope(path: str) -> bool:
        parts = path.replace("\\", "/").split("/")
        return "bt" in parts[:-1] and parts[-1] != "swarm.py"

    @staticmethod
    def _attribute_root(node: ast.AST) -> Optional[ast.AST]:
        while isinstance(node, ast.Attribute):
            node = node.value
        return node

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self._in_scope(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute) \
                    or node.func.attr not in SCHEDULE_METHODS:
                continue
            cb_index = 0 if node.func.attr == "call_now" else 1
            if len(node.args) <= cb_index \
                    or any(isinstance(a, ast.Starred)
                           for a in node.args[:cb_index + 1]):
                continue
            cb = node.args[cb_index]
            if not isinstance(cb, ast.Attribute):
                # Bare names (module-level timers) and lambdas are
                # local control flow, not cross-peer delivery.
                continue
            root = self._attribute_root(cb)
            if isinstance(root, ast.Name) and root.id == "self":
                continue
            spelling = dotted_name(cb) or "<expr>." + cb.attr
            yield ctx.finding(
                self, node,
                f"`{spelling}` scheduled directly in bt/; deliver "
                f"cross-peer messages through Swarm.send_control or "
                f"the uplink transfer path")


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
    matches nothing is invisible until the day a *new* finding lands
    on the same ``rule:path:line`` and is silently swallowed by the
    stale grant.  Reported as a warning whenever ``--baseline`` is
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

    The interprocedural counterpart of the file-local SL012 rescan
    rule: the allocation's *size* grows with the swarm, so
    per-event cost is O(N) where the engine budget is O(1).  Emitted
    by the simheat pass of ``repro lint --deep``.
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


@register
class HeatPoolableConstructionRule(MetaRule):
    """SL304: a per-event region constructs a poolable type directly
    although a free-list exists for it.

    Engine event handles and piece-pump messages are acquired and
    dropped once per event; the engine's EventHandle free-list and
    the plain-piece message pool recycle them.  A direct
    constructor call in a hot path bypasses the pool and re-opens the
    allocation bill the pool closed.  Emitted by the simheat pass of
    ``repro lint --deep``.
    """

    id = "SL304"
    name = "heat-poolable-construction"
    description = ("hot-path construction of a poolable type; use its "
                   "free-list (--deep, simheat)")


def all_rule_ids() -> List[str]:
    """Sorted ids of every registered rule."""
    return sorted(RULES)
