"""Same-instant commutativity checking (``simrace``, SL201–SL203).

The engine's ``(time, seq)`` tie-break makes same-instant event order
deterministic but *silently load-bearing*: two handlers that can land
on the same timestamp and do not commute have a well-defined outcome
today, yet any reordering — batching same-interval timers, or a
schedule fuzzer permuting events that share a timestamp — changes the
trace.  This pass finds those pairs statically:

1. collect every **schedule site** whose firing instant is statically
   characterizable, and bucket the ones that can coincide:

   * ``("now",)`` — ``call_now(...)`` and ``schedule(0, ...)``: all
     such events scheduled from the same firing instant share it;
   * ``("const", NAME)`` — delays/deadlines named by a shared
     ALL-CAPS constant: two sites anchored to the same constant from
     the same instant coincide;
   * ``("at", value)`` — ``schedule_at`` with a literal time;
   * ``("period", key)`` — :class:`~repro.sim.events.PeriodicTask`
     construction sites with the same interval (and first-delay)
     expression: every instance's ticks align, which is exactly the
     population a coalescing optimizer would batch;

2. intersect the handlers' **effect summaries**
   (:mod:`repro.devtools.effects`) pairwise within each bucket:

   * both write a matching field (and not accum/accum, which
     commutes) → **SL201** — conflicting writes;
   * one writes what the other reads → **SL202** — the reader's
     outcome depends on seq order;

   self/self pairs are skipped (different handler *instances* have
   disjoint ``self`` state and the analysis cannot prove both
   handlers are bound to the same object) and rng draws are excluded
   here — every pair of rng-using handlers would otherwise conflict;

3. check each periodic handler *against itself across instances* —
   the coalescing transform collapses N same-tick invocations into
   one batch, which is only trace-safe if invocations commute with
   each other.  A handler that draws from the shared rng, plainly
   writes ``shared``/``other`` state, or writes a ``self`` field it
   also reads through another instance, is provably unsafe to
   coalesce → **SL203**, the inventory of order-dependent timers.

Findings anchor at the schedule (or timer-construction) site, so a
``simlint: disable=SL20x -- reason`` comment there suppresses the
pair, and diagnostics carry the full schedule-site → handler → field
chain from the effect traces.
"""

from __future__ import annotations

import ast
from typing import Dict, List, NamedTuple, Optional, Tuple

from .callgraph import (FunctionInfo, ProjectIndex, SCHEDULE_METHODS,
                        iter_own_nodes)
from .effects import (TracedEffect, WRITE_KINDS, fields_match,
                      infer_effects, render_chain)
from .rules import Finding, dotted_name

#: Cap on findings emitted per handler pair (the first conflicts are
#: the diagnosis; fifty more fields of the same pair are noise).
_MAX_PER_PAIR = 2

#: Cap on reasons listed in one SL203 message.
_MAX_REASONS = 3


class ScheduleSite(NamedTuple):
    """One statically characterized schedule/timer site."""

    handler: str               # resolved callback qualname
    path: str
    line: int
    bucket: Tuple[object, ...]
    desc: str                  # how this site pins its instant
    periodic: bool


def _short(qualname: str) -> str:
    return ".".join(qualname.split(".")[-2:])


def _const_key(node: ast.AST) -> Optional[Tuple[str, str]]:
    """(key, display) when ``node`` names an ALL-CAPS constant."""
    dotted = dotted_name(node)
    if dotted is None:
        return None
    terminal = dotted.split(".")[-1]
    if terminal.isupper() and len(terminal) > 1:
        return terminal, dotted
    return None


def _interval_key(node: ast.AST) -> Optional[Tuple[str, str]]:
    """Bucket key for a timer-interval expression: literal values and
    named intervals bucket; arbitrary arithmetic stays unbucketed
    (different phases / jittered periods never provably align)."""
    if isinstance(node, ast.Constant) \
            and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return repr(float(node.value)), repr(node.value)
    dotted = dotted_name(node)
    if dotted is not None:
        terminal = dotted.split(".")[-1]
        return terminal, dotted
    if isinstance(node, ast.UnaryOp):
        return _interval_key(node.operand)
    return None


# ----------------------------------------------------------------------
# Site collection
# ----------------------------------------------------------------------
def _collect_sites(index: ProjectIndex) -> List[ScheduleSite]:
    sites: List[ScheduleSite] = []
    for info in index.functions.values():
        for node in iter_own_nodes(info):
            if not isinstance(node, ast.Call):
                continue
            site = _schedule_site(index, info, node) \
                or _periodic_site(index, info, node)
            if site is not None:
                sites.append(site)
    sites.sort(key=lambda s: (s.path, s.line, s.handler))
    return sites


def _schedule_site(index: ProjectIndex, info: FunctionInfo,
                   node: ast.Call) -> Optional[ScheduleSite]:
    func = node.func
    if not isinstance(func, ast.Attribute) \
            or func.attr not in SCHEDULE_METHODS:
        return None
    method = func.attr
    cb_index = 0 if method == "call_now" else 1
    if len(node.args) <= cb_index:
        return None
    handler = index.resolve_callable(info, node.args[cb_index])
    if handler is None or handler not in index.functions:
        return None
    bucket: Optional[Tuple[object, ...]] = None
    desc = ""
    if method == "call_now":
        bucket = ("now",)
        desc = "scheduled for the current instant (call_now)"
    else:
        delay = node.args[0]
        if isinstance(delay, ast.Constant) and delay.value in (0, 0.0) \
                and not isinstance(delay.value, bool):
            if method == "schedule":
                bucket = ("now",)
                desc = "scheduled for the current instant (delay 0)"
        elif method == "schedule_at" and isinstance(delay, ast.Constant) \
                and isinstance(delay.value, (int, float)):
            bucket = ("at", repr(float(delay.value)))
            desc = f"scheduled at the literal time {delay.value!r}"
        else:
            const = _const_key(delay)
            if const is not None:
                key, display = const
                bucket = ("const", method, key)
                desc = (f"{method}() anchored to the shared constant "
                        f"`{display}`")
    if bucket is None:
        return None
    return ScheduleSite(handler=handler, path=info.path,
                        line=node.lineno, bucket=bucket, desc=desc,
                        periodic=False)


def _periodic_site(index: ProjectIndex, info: FunctionInfo,
                   node: ast.Call) -> Optional[ScheduleSite]:
    dotted = dotted_name(node.func)
    if dotted is None or dotted.split(".")[-1] != "PeriodicTask":
        return None
    args: Dict[str, Optional[ast.AST]] = {
        "interval": node.args[1] if len(node.args) > 1 else None,
        "callback": node.args[2] if len(node.args) > 2 else None,
        "first_delay": None,
    }
    for kw in node.keywords:
        if kw.arg in args:
            args[kw.arg] = kw.value
    if args["interval"] is None or args["callback"] is None:
        return None
    handler = index.resolve_callable(info, args["callback"])
    if handler is None or handler not in index.functions:
        return None
    interval = _interval_key(args["interval"])
    if interval is None:
        return None
    key, display = interval
    first = args["first_delay"]
    first_key = ""
    if first is not None and not (isinstance(first, ast.Constant)
                                  and first.value is None):
        first_interval = _interval_key(first)
        if first_interval is None:
            return None  # unknown phase: ticks never provably align
        first_key = first_interval[0]
    return ScheduleSite(
        handler=handler, path=info.path, line=node.lineno,
        bucket=("period", key, first_key),
        desc=f"on a periodic timer with interval `{display}`",
        periodic=True)


# ----------------------------------------------------------------------
# Pairwise conflict analysis
# ----------------------------------------------------------------------
def _pair_conflicts(sum_a: Tuple[TracedEffect, ...],
                    sum_b: Tuple[TracedEffect, ...]
                    ) -> List[Tuple[str, TracedEffect, TracedEffect]]:
    """(rule, effect_a, effect_b) conflicts between two handlers."""
    out = []
    for ta in sum_a:
        ea = ta.effect
        if ea.kind == "rng":
            continue  # rng/rng pairs are SL203's cross-instance story
        for tb in sum_b:
            eb = tb.effect
            if eb.kind == "rng":
                continue
            a_writes = ea.kind in WRITE_KINDS
            b_writes = eb.kind in WRITE_KINDS
            if not (a_writes or b_writes):
                continue
            if ea.kind == "accum" and eb.kind == "accum":
                continue  # commutative accumulation
            if ea.owner == "self" and eb.owner == "self":
                continue  # provably-distinct instances may not alias
            if not fields_match(ea, eb):
                continue
            rule = "SL201" if (a_writes and b_writes) else "SL202"
            out.append((rule, ta, tb))
    return out


def _conflict_severity(item: Tuple[str, TracedEffect, TracedEffect]
                       ) -> Tuple:
    rule, ta, tb = item
    return (rule, ta.effect.field, len(ta.chain) + len(tb.chain))


def _pair_findings(site_a: ScheduleSite, site_b: ScheduleSite,
                   summaries: Dict[str, Tuple[TracedEffect, ...]]
                   ) -> List[Finding]:
    conflicts = _pair_conflicts(summaries.get(site_a.handler, ()),
                                summaries.get(site_b.handler, ()))
    conflicts.sort(key=_conflict_severity)
    findings = []
    for rule, ta, tb in conflicts[:_MAX_PER_PAIR]:
        a, b = _short(site_a.handler), _short(site_b.handler)
        if rule == "SL201":
            what = (f"conflicting writes to `{ta.effect.field}`: "
                    f"firing order changes the final value")
        else:
            reader, writer = (a, b) \
                if ta.effect.kind == "read" else (b, a)
            what = (f"read/write overlap on `{ta.effect.field}`: what "
                    f"`{reader}` observes depends on whether "
                    f"`{writer}` fired first")
        findings.append(Finding(
            rule=rule, path=site_a.path, line=site_a.line, col=1,
            message=(
                f"handlers `{a}` and `{b}` can fire at the same "
                f"instant — `{a}` {site_a.desc} "
                f"({site_a.path}:{site_a.line}); `{b}` {site_b.desc} "
                f"({site_b.path}:{site_b.line}) — with {what}; "
                f"`{a}`: {render_chain(ta.chain)}; "
                f"`{b}`: {render_chain(tb.chain)}")))
    return findings


# ----------------------------------------------------------------------
# SL203: coalescing safety per periodic handler
# ----------------------------------------------------------------------
def _coalesce_reasons(summary: Tuple[TracedEffect, ...]
                      ) -> List[Tuple[str, TracedEffect]]:
    """Why collapsing N same-tick invocations of this handler into one
    batch could change the trace."""
    reasons = []
    self_writes = [te for te in summary
                   if te.effect.kind in WRITE_KINDS
                   and te.effect.owner == "self"]
    for te in summary:
        effect = te.effect
        if effect.kind == "rng":
            reasons.append((
                "draws from the simulation rng (a coalesced batch "
                "consumes the stream in a different order)", te))
        elif effect.kind == "write" and effect.owner in ("shared",
                                                         "other"):
            reasons.append((
                f"plainly writes {effect.owner} state "
                f"`{effect.field}` (last-writer-wins across "
                f"coalesced instances)", te))
        elif effect.kind == "read" and effect.owner in ("shared",
                                                        "other"):
            for wt in self_writes:
                if fields_match(effect, wt.effect):
                    reasons.append((
                        f"reads `{effect.field}` which another "
                        f"instance's invocation writes "
                        f"(`{wt.effect.field}`)", te))
                    break
    return reasons


def _periodic_findings(site: ScheduleSite,
                       summaries: Dict[str, Tuple[TracedEffect, ...]]
                       ) -> List[Finding]:
    reasons = _coalesce_reasons(summaries.get(site.handler, ()))
    if not reasons:
        return []
    handler = _short(site.handler)
    listed = "; ".join(
        f"{text} [{render_chain(te.chain)}]"
        for text, te in reasons[:_MAX_REASONS])
    more = len(reasons) - _MAX_REASONS
    if more > 0:
        listed += f"; and {more} more"
    return [Finding(
        rule="SL203", path=site.path, line=site.line, col=1,
        message=(
            f"periodic handler `{handler}` ({site.desc}, "
            f"{site.path}:{site.line}) is unsafe to coalesce: "
            f"same-tick invocations across instances do not commute "
            f"— {listed}"))]


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_races(index: ProjectIndex) -> List[Finding]:
    """All SL201–SL203 findings for an indexed project."""
    sites = _collect_sites(index)
    if not sites:
        return []
    summaries = infer_effects(index)
    findings: List[Finding] = []
    by_bucket: Dict[Tuple[object, ...], List[ScheduleSite]] = {}
    for site in sites:
        by_bucket.setdefault(site.bucket, []).append(site)
    seen_pairs = set()
    for bucket_sites in by_bucket.values():
        for i, site_a in enumerate(bucket_sites):
            for site_b in bucket_sites[i + 1:]:
                if site_a.handler == site_b.handler:
                    continue  # cross-instance stories are SL203's
                pair = (site_a.path, site_a.line,
                        tuple(sorted((site_a.handler,
                                      site_b.handler))))
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                findings.extend(_pair_findings(site_a, site_b,
                                               summaries))
    seen_periodic = set()
    for site in sites:
        if not site.periodic:
            continue
        key = (site.path, site.line, site.handler)
        if key in seen_periodic:
            continue
        seen_periodic.add(key)
        findings.extend(_periodic_findings(site, summaries))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings
