"""T-Chain protocol state-machine conformance (``simlint --deep``).

:class:`repro.core.exchange.ExchangeLedger` enforces the exchange
lifecycle at *runtime* — ``release_key`` raises unless a reception
report arrived first.  That guard fires deep inside a simulation, long
after the handler bug that drove the illegal edge.  This checker moves
the contract to lint time: a **declarative spec** of the lifecycle
(:data:`EXCHANGE_SPEC`, whose states and legal edges are *read from*
:class:`repro.core.transaction.TransactionState` and its
``successors``, so spec and runtime cannot drift) plus a symbolic
walk of every handler that tracks, per transaction variable,
the set of states it can be in:

* ``tx = ledger.get(i)`` / ``prev = ledger.mark_delivered(i, now)``
  bind transaction variables (``mark_delivered``'s return is the
  reciprocated predecessor — RECIPROCATED by contract);
* ``if tx.state is [not] TransactionState.X`` (also ``in``/``not in``
  tuples, ``and``/``or``, ``assert``, early ``return``) refine the
  state set along each branch;
* ledger operations apply their spec'd postcondition (after
  ``report_reciprocation`` the transaction *is* REPORTED);
* passing a transaction to an opaque call forgets its facts.

Three rule ids come out of the walk:

========  ===========================================================
SL110     ``release_key`` on a path with no proof of REPORTED — the
          fair-exchange core ("no report, no key") must be *evident*
          in protocol code, not assumed
SL111     ``reopen`` outside the plead path, or without proof of
          RECIPROCATED — reopen exists solely for the requestor-plead
          recovery flow (Sec. II-B4)
SL112     any ledger operation whose spec'd legal source states are
          provably disjoint from the tracked state set
========  ===========================================================

SL110/SL111 are *strict* — they demand positive evidence — but only
inside protocol driver code (paths containing ``protocols`` or
``replication``); elsewhere (tests, examples, experiments) only the
provable-contradiction rule SL112 applies, and operations inside a
``pytest.raises(...)`` block are exempt (tests deliberately drive
illegal edges).  The ledger/transaction implementation itself is
excluded — it *is* the runtime contract the spec is read from.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.transaction import TransactionState

from .rules import Finding, dotted_name

# ----------------------------------------------------------------------
# The declarative spec
# ----------------------------------------------------------------------
STATES = tuple(state.name for state in TransactionState)

#: States with a way out: the ones an open transaction can be in.
_OPEN_STATES = frozenset(state.name for state in TransactionState
                         if state.successors)


@dataclass(frozen=True)
class OpSpec:
    """Conformance contract of one :class:`ExchangeLedger` operation."""

    #: states the operation is legal from (None: any)
    legal_from: Optional[Tuple[str, ...]] = None
    #: states the argument transaction can be in afterwards
    #: (None: unchanged)
    post: Optional[Tuple[str, ...]] = None
    #: states of the *returned* transaction (None: returns no tx)
    returns_states: Optional[Tuple[str, ...]] = None
    #: the return value is ``(tx, ...)`` rather than a bare tx
    returns_tuple: bool = False
    #: the op returns the transaction named by its first argument
    binds_arg: bool = False
    #: ``(from, to)`` side effect on *other* transactions — e.g.
    #: ``mark_delivered`` advances the reciprocated predecessor
    ripples: Optional[Tuple[str, str]] = None
    #: strict rule id enforced in protocol paths (None: SL112 only)
    strict_rule: Optional[str] = None
    #: substrings, one of which must appear in the enclosing function's
    #: name inside protocol paths (the reopen/plead coupling)
    allowed_callers: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class ProtocolSpec:
    """A protocol lifecycle: states, legal edges, operation contracts."""

    states: Tuple[str, ...]
    #: state → states reachable in one step
    transitions: Dict[str, Tuple[str, ...]]
    ops: Dict[str, OpSpec]
    #: receiver attribute naming the ledger in driver code
    receiver: str = "ledger"
    #: a path containing any of these parts gets the strict rules
    strict_path_parts: Tuple[str, ...] = ()
    #: paths containing any of these substrings are skipped entirely
    exclude_paths: Tuple[str, ...] = ()

    def is_strict_path(self, path: str) -> bool:
        parts = path.replace("\\", "/").split("/")
        return any(p in parts for p in self.strict_path_parts)

    def is_excluded(self, path: str) -> bool:
        norm = path.replace("\\", "/")
        return any(s in norm for s in self.exclude_paths)


EXCHANGE_SPEC = ProtocolSpec(
    states=STATES,
    transitions={state.name: tuple(s.name for s in state.successors)
                 for state in TransactionState},
    ops={
        "get": OpSpec(binds_arg=True),
        "create_transaction": OpSpec(returns_states=("CREATED",),
                                     returns_tuple=True),
        "mark_delivered": OpSpec(
            legal_from=("CREATED",),
            post=("DELIVERED", "COMPLETED"),        # unencrypted jump
            returns_states=("RECIPROCATED",),       # the predecessor
            ripples=("DELIVERED", "RECIPROCATED")),
        "report_reciprocation": OpSpec(
            legal_from=("RECIPROCATED", "DELIVERED"),
            post=("REPORTED",)),
        "release_key": OpSpec(
            legal_from=("REPORTED",), post=("COMPLETED",),
            strict_rule="SL110"),
        "reopen": OpSpec(
            legal_from=("RECIPROCATED",), post=("DELIVERED",),
            strict_rule="SL111", allowed_callers=("plead",)),
        "forgive": OpSpec(
            legal_from=("DELIVERED",), post=("COMPLETED",)),
        "abort": OpSpec(post=("ABORTED", "COMPLETED")),
        "reassign_payee": OpSpec(legal_from=("DELIVERED",)),
        "peek_key": OpSpec(),
    },
    strict_path_parts=("protocols", "replication"),
    exclude_paths=("core/exchange.py", "core/transaction.py",
                   "devtools/sanitizer.py"),
)


def spec_consistency_errors(spec: ProtocolSpec) -> List[str]:
    """Internal sanity: every op's ``legal_from → post`` must be an
    edge (or identity) of the transition table."""
    errors = []
    for name, op in spec.ops.items():
        if op.legal_from is None or op.post is None:
            continue
        for src in op.legal_from:
            reachable = set(spec.transitions.get(src, ())) | {src}
            # Multi-step ops (forgive: DELIVERED→REPORTED→COMPLETED)
            # are closed over one extra hop.
            for mid in spec.transitions.get(src, ()):
                reachable |= set(spec.transitions.get(mid, ()))
            for dst in op.post:
                if dst not in reachable:
                    errors.append(
                        f"op {name}: {src} cannot reach {dst}")
    return errors


# ----------------------------------------------------------------------
# Symbolic state tracking
# ----------------------------------------------------------------------
class _Env:
    """Per-path facts: transaction cell → possible states (None =
    unknown), plus variable→cell aliases."""

    __slots__ = ("cells", "aliases")

    def __init__(self) -> None:
        self.cells: Dict[str, Optional[FrozenSet[str]]] = {}
        self.aliases: Dict[str, str] = {}

    def copy(self) -> "_Env":
        env = _Env()
        env.cells = dict(self.cells)
        env.aliases = dict(self.aliases)
        return env

    def get(self, cell: str) -> Optional[FrozenSet[str]]:
        return self.cells.get(cell)

    def set(self, cell: str, states: Optional[Iterable[str]]) -> None:
        self.cells[cell] = None if states is None \
            else frozenset(states)

    @staticmethod
    def join(a: Optional["_Env"],
             b: Optional["_Env"]) -> Optional["_Env"]:
        """Merge two branch outcomes (None = path diverged)."""
        if a is None:
            return b
        if b is None:
            return a
        out = _Env()
        for cell in set(a.cells) | set(b.cells):
            sa, sb = a.cells.get(cell), b.cells.get(cell)
            out.cells[cell] = sa | sb \
                if sa is not None and sb is not None else None
        out.aliases = {name: cell for name, cell in a.aliases.items()
                       if b.aliases.get(name) == cell}
        return out


_PROTOCOL_ERRORS = ("ExchangeError", "InvalidTransition",
                    "RuntimeError", "Exception", "BaseException")


def _catches_protocol_error(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts \
        if isinstance(handler.type, ast.Tuple) else [handler.type]
    for t in types:
        dotted = dotted_name(t)
        if dotted is not None \
                and dotted.split(".")[-1] in _PROTOCOL_ERRORS:
            return True
    return False


def _is_raises_context(node: ast.withitem) -> bool:
    expr = node.context_expr
    if not isinstance(expr, ast.Call):
        return False
    dotted = dotted_name(expr.func)
    return dotted is not None \
        and dotted.split(".")[-1] in ("raises", "assertRaises")


class ProtocolChecker:
    """Walk one file's handlers against a :class:`ProtocolSpec`."""

    def __init__(self, spec: ProtocolSpec, path: str, tree: ast.Module):
        self.spec = spec
        self.path = path
        self.tree = tree
        self.strict = spec.is_strict_path(path)
        self.findings: List[Finding] = []
        self._func_name = "<module>"

    # -- entry ----------------------------------------------------------
    def run(self) -> List[Finding]:
        if self.spec.is_excluded(self.path):
            return []
        self._walk_scope(self.tree.body)
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._func_name = node.name
                self._walk_body(node.body, _Env(), exempt=False)
        return sorted(self.findings,
                      key=lambda f: (f.line, f.rule, f.message))

    def _walk_scope(self, body: List[ast.stmt]) -> None:
        """Module-level statements (everything except defs)."""
        stmts = [s for s in body
                 if not isinstance(s, (ast.FunctionDef,
                                       ast.AsyncFunctionDef,
                                       ast.ClassDef))]
        self._func_name = "<module>"
        self._walk_body(stmts, _Env(), exempt=False)

    # -- cells ----------------------------------------------------------
    def _cell_for(self, env: _Env, node: ast.AST) -> Optional[str]:
        dotted = dotted_name(node)
        if dotted is None:
            return None
        if dotted in env.aliases:
            return env.aliases[dotted]
        if dotted.endswith(".transaction_id"):
            base = dotted[: -len(".transaction_id")]
            if base in env.aliases:
                return env.aliases[base]
            return base
        return dotted

    def _bind(self, env: _Env, name: str, cell: str,
              states: Optional[Iterable[str]]) -> None:
        env.aliases[name] = cell
        env.set(cell, states)

    # -- guard refinement ----------------------------------------------
    def _state_tests(self, env: _Env, test: ast.AST
                     ) -> Optional[Tuple[str, FrozenSet[str], bool]]:
        """``(cell, states, negated)`` when ``test`` is a recognizable
        transaction-state comparison."""
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return None
        left, op, right = test.left, test.ops[0], test.comparators[0]
        cell = self._state_operand(env, left)
        if cell is None:
            return None
        if isinstance(op, (ast.Is, ast.Eq, ast.IsNot, ast.NotEq)):
            state = self._state_literal(right)
            if state is None:
                return None
            negated = isinstance(op, (ast.IsNot, ast.NotEq))
            return cell, frozenset((state,)), negated
        if isinstance(op, (ast.In, ast.NotIn)) \
                and isinstance(right, (ast.Tuple, ast.List, ast.Set)):
            states = [self._state_literal(e) for e in right.elts]
            if any(s is None for s in states):
                return None
            return cell, frozenset(states), isinstance(op, ast.NotIn)
        return None

    def _state_operand(self, env: _Env,
                       node: ast.AST) -> Optional[str]:
        """The cell behind a ``<tx>.state`` expression."""
        if isinstance(node, ast.Attribute) and node.attr == "state":
            return self._cell_for(env, node.value)
        return None

    @staticmethod
    def _state_literal(node: ast.AST) -> Optional[str]:
        dotted = dotted_name(node)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[-1] in STATES and (len(parts) == 1
                                    or parts[-2] == "TransactionState"):
            return parts[-1]
        return None

    def _refine(self, env: _Env,
                test: ast.AST) -> Tuple[_Env, _Env]:
        """Branch environments for a guard's true and false arms."""
        true_env, false_env = env.copy(), env.copy()
        self._apply_test(true_env, test, value=True)
        self._apply_test(false_env, test, value=False)
        return true_env, false_env

    def _apply_test(self, env: _Env, test: ast.AST,
                    value: bool) -> None:
        if isinstance(test, ast.UnaryOp) \
                and isinstance(test.op, ast.Not):
            self._apply_test(env, test.operand, not value)
            return
        if isinstance(test, ast.BoolOp):
            # `A and B` is known true ⇒ both hold; `A or B` known
            # false ⇒ both fail.  The other polarities prove nothing.
            conjunctive = isinstance(test.op, ast.And)
            if conjunctive == value:
                for operand in test.values:
                    self._apply_test(env, operand, value)
            return
        parsed = self._state_tests(env, test)
        if parsed is None:
            return
        cell, states, negated = parsed
        holds = value != negated        # the membership itself
        current = env.get(cell)
        universe = current if current is not None \
            else frozenset(self.spec.states)
        env.set(cell, universe & states if holds
                else universe - states)

    # -- statement walk -------------------------------------------------
    def _walk_body(self, body: List[ast.stmt], env: _Env,
                   exempt: bool) -> Optional[_Env]:
        """Returns the fall-through environment, or None when every
        path diverges (return/raise/continue/break)."""
        current: Optional[_Env] = env
        for stmt in body:
            if current is None:
                break
            current = self._walk_stmt(stmt, current, exempt)
        return current

    def _walk_stmt(self, stmt: ast.stmt, env: _Env,
                   exempt: bool) -> Optional[_Env]:
        if isinstance(stmt, ast.If):
            self._scan_ops(stmt.test, env, exempt)
            true_env, false_env = self._refine(env, stmt.test)
            after_true = self._walk_body(stmt.body, true_env, exempt)
            after_false = self._walk_body(stmt.orelse, false_env,
                                          exempt)
            return _Env.join(after_true, after_false)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                self._scan_ops(stmt.value, env, exempt)
            if isinstance(stmt, ast.Raise) and stmt.exc is not None:
                self._scan_ops(stmt.exc, env, exempt)
            return None
        if isinstance(stmt, (ast.Continue, ast.Break)):
            return None
        if isinstance(stmt, ast.Assert):
            self._scan_ops(stmt.test, env, exempt)
            refined, _ = self._refine(env, stmt.test)
            return refined
        if isinstance(stmt, ast.Assign):
            return self._walk_assign(stmt, env, exempt)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_ops(stmt.iter, env, exempt)
            loop_env = env.copy()
            self._bind_loop_target(loop_env, stmt)
            after = self._walk_body(stmt.body, loop_env, exempt)
            merged = _Env.join(env.copy(), after)
            else_env = self._walk_body(stmt.orelse,
                                       merged or env.copy(), exempt)
            return else_env
        if isinstance(stmt, ast.While):
            self._scan_ops(stmt.test, env, exempt)
            after = self._walk_body(stmt.body, env.copy(), exempt)
            return _Env.join(env.copy(), after)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            body_exempt = exempt or any(_is_raises_context(item)
                                        for item in stmt.items)
            for item in stmt.items:
                self._scan_ops(item.context_expr, env, exempt)
            after = self._walk_body(stmt.body, env, body_exempt)
            return after if after is not None else env
        if isinstance(stmt, ast.Try):
            # `try: op() except ExchangeError: ...` probes an illegal
            # edge on purpose, exactly like `pytest.raises`.
            body_exempt = exempt or any(
                _catches_protocol_error(h) for h in stmt.handlers)
            after_try = self._walk_body(stmt.body, env.copy(),
                                        body_exempt)
            outcomes = [after_try]
            for handler in stmt.handlers:
                outcomes.append(self._walk_body(handler.body,
                                                env.copy(), exempt))
            merged: Optional[_Env] = None
            for outcome in outcomes:
                merged = _Env.join(merged, outcome)
            if stmt.finalbody:
                merged = self._walk_body(stmt.finalbody,
                                         merged or env.copy(), exempt)
            return merged
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return env      # nested defs walked on their own
        # Leaf statement: scan for ledger ops and invalidations.
        self._scan_ops(stmt, env, exempt)
        return env

    def _bind_loop_target(self, env: _Env, stmt: ast.For) -> None:
        if not isinstance(stmt.target, ast.Name) \
                or not isinstance(stmt.iter, ast.Call):
            return
        dotted = dotted_name(stmt.iter.func)
        if dotted is None:
            return
        attr = dotted.split(".")[-1]
        if attr == "open_transactions_involving":
            self._bind(env, stmt.target.id,
                       f"<loop@{stmt.lineno}>", _OPEN_STATES)
        elif attr == "transactions_involving":
            self._bind(env, stmt.target.id,
                       f"<loop@{stmt.lineno}>", None)

    def _walk_assign(self, stmt: ast.Assign, env: _Env,
                     exempt: bool) -> _Env:
        value = stmt.value
        op_name = self._ledger_op(value)
        handled = False
        if op_name is not None:
            op = self.spec.ops[op_name]
            self._apply_op(value, op_name, op, env, exempt)
            target = stmt.targets[0] if len(stmt.targets) == 1 else None
            if op.binds_arg and isinstance(target, ast.Name) \
                    and value.args:
                cell = self._cell_for(env, value.args[0])
                if cell is not None:
                    current = env.get(cell)
                    self._bind(env, target.id, cell, current)
                    handled = True
            elif op.returns_states is not None:
                bind_to = target
                if op.returns_tuple \
                        and isinstance(target, (ast.Tuple, ast.List)) \
                        and target.elts:
                    bind_to = target.elts[0]
                if isinstance(bind_to, ast.Name):
                    self._bind(env, bind_to.id,
                               f"<ret@{stmt.lineno}>",
                               op.returns_states)
                    handled = True
        else:
            self._scan_ops(value, env, exempt)
        if not handled:
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.aliases.pop(target.id, None)
        return env

    # -- ledger operations ----------------------------------------------
    def _ledger_op(self, node: ast.AST) -> Optional[str]:
        if not isinstance(node, ast.Call) \
                or not isinstance(node.func, ast.Attribute):
            return None
        if node.func.attr not in self.spec.ops:
            return None
        receiver = dotted_name(node.func.value)
        if receiver is None \
                or receiver.split(".")[-1] != self.spec.receiver:
            return None
        return node.func.attr

    def _scan_ops(self, node: ast.AST, env: _Env,
                  exempt: bool) -> None:
        """Apply every ledger op (and alias invalidation) inside an
        expression/statement subtree, in source order."""
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            op_name = self._ledger_op(sub)
            if op_name is not None:
                self._apply_op(sub, op_name, self.spec.ops[op_name],
                               env, exempt)
            else:
                # A transaction handed to an opaque call may be
                # mutated arbitrarily: forget its facts.
                for arg in sub.args:
                    if not isinstance(arg, ast.Name):
                        continue
                    if arg.id in env.aliases:
                        env.set(env.aliases[arg.id], None)
                    elif arg.id in env.cells:
                        env.set(arg.id, None)

    def _apply_op(self, call: ast.Call, op_name: str, op: OpSpec,
                  env: _Env, exempt: bool) -> None:
        cell = self._cell_for(env, call.args[0]) if call.args else None
        facts = env.get(cell) if cell is not None else None
        if not exempt:
            self._check_op(call, op_name, op, facts)
        if op.ripples is not None:
            src, dst = op.ripples
            for other, states in env.cells.items():
                if other != cell and states is not None \
                        and src in states:
                    env.set(other, states | {dst})
        if cell is not None and op.post is not None:
            env.set(cell, None if exempt else op.post)

    def _check_op(self, call: ast.Call, op_name: str, op: OpSpec,
                  facts: Optional[FrozenSet[str]]) -> None:
        if op.legal_from is None:
            return
        legal = frozenset(op.legal_from)
        strict = self.strict and op.strict_rule is not None
        if strict and op.allowed_callers is not None \
                and not any(part in self._func_name
                            for part in op.allowed_callers):
            self.findings.append(Finding(
                rule=op.strict_rule, path=self.path, line=call.lineno,
                col=call.col_offset + 1,
                message=(f"`{op_name}()` called from "
                         f"`{self._func_name}`, outside the "
                         f"{'/'.join(op.allowed_callers)} path it is "
                         f"reserved for")))
            return
        if strict and (facts is None or not facts <= legal):
            proven = "unproven state" if facts is None else \
                "proven state {%s}" % ", ".join(sorted(facts))
            self.findings.append(Finding(
                rule=op.strict_rule, path=self.path, line=call.lineno,
                col=call.col_offset + 1,
                message=(f"`{op_name}()` without evidence of "
                         f"{{{', '.join(op.legal_from)}}} "
                         f"({proven}); protocol handlers must prove "
                         f"the transition before driving it")))
            return
        if not strict and facts is not None and not (facts & legal):
            self.findings.append(Finding(
                rule="SL112", path=self.path, line=call.lineno,
                col=call.col_offset + 1,
                message=(f"`{op_name}()` on a transaction proven to "
                         f"be in {{{', '.join(sorted(facts))}}} — "
                         f"legal only from "
                         f"{{{', '.join(op.legal_from)}}} per "
                         f"EXCHANGE_SPEC")))


def check_file(path: str, tree: ast.Module,
               spec: ProtocolSpec = EXCHANGE_SPEC) -> List[Finding]:
    """All SL110–SL112 findings for one parsed file."""
    return ProtocolChecker(spec, path, tree).run()
