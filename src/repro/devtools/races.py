"""Same-instant commutativity checking (``simrace``, SL201–SL203).

The engine's ``(time, seq)`` tie-break makes same-instant event order
deterministic but *silently load-bearing*: two handlers that can land
on the same timestamp and do not commute have a well-defined outcome
today, yet any reordering — batching same-interval timers, or a
schedule fuzzer permuting events that share a timestamp — changes the
trace.  This pass finds those pairs statically:

1. take every **schedule site** of the index's schedule-site table
   (:attr:`~repro.devtools.callgraph.ProjectIndex.schedule_sites`)
   whose firing instant is statically characterizable, and bucket the
   ones that can coincide:

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

from .callgraph import ProjectIndex, ScheduleSite, render_chain, short
from .effects import TracedEffect, WRITE_KINDS, fields_match, infer_effects
from .rules import Finding, dotted_name

#: Cap on findings emitted per handler pair (the first conflicts are
#: the diagnosis; fifty more fields of the same pair are noise).
_MAX_PER_PAIR = 2

#: Cap on reasons listed in one SL203 message.
_MAX_REASONS = 3


class _Pinned(NamedTuple):
    """A schedule site whose firing instant is statically pinned."""

    site: ScheduleSite
    bucket: Tuple[object, ...]
    desc: str                  # how this site pins its instant


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


def _pin(site: ScheduleSite) -> Optional[_Pinned]:
    """The bucket of sites that can fire at the same instant as this
    one, or None when its instant is not statically characterizable."""
    method, delay = site.method, site.delay
    if method == "after":
        method = "schedule"  # a laned timer: same seq, same instant
    if method == "PeriodicTask":
        interval = _interval_key(site.interval)
        if interval is None:
            return None
        key, display = interval
        first = site.first_delay
        first_key = ""
        if first is not None and not (isinstance(first, ast.Constant)
                                      and first.value is None):
            first_interval = _interval_key(first)
            if first_interval is None:
                return None  # unknown phase: ticks never provably align
            first_key = first_interval[0]
        return _Pinned(site, ("period", key, first_key),
                       f"on a periodic timer with interval `{display}`")
    if method == "call_now":
        return _Pinned(site, ("now",),
                       "scheduled for the current instant (call_now)")
    if isinstance(delay, ast.Constant) and delay.value in (0, 0.0) \
            and not isinstance(delay.value, bool):
        if method != "schedule":
            return None
        return _Pinned(site, ("now",),
                       "scheduled for the current instant (delay 0)")
    if method == "schedule_at" and isinstance(delay, ast.Constant) \
            and isinstance(delay.value, (int, float)):
        return _Pinned(site, ("at", repr(float(delay.value))),
                       f"scheduled at the literal time {delay.value!r}")
    const = _const_key(delay)
    if const is None:
        return None
    key, display = const
    return _Pinned(site, ("const", method, key),
                   f"{method}() anchored to the shared constant "
                   f"`{display}`")


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


def _pair_findings(pin_a: _Pinned, pin_b: _Pinned,
                   summaries: Dict[str, Tuple[TracedEffect, ...]]
                   ) -> List[Finding]:
    site_a, site_b = pin_a.site, pin_b.site
    conflicts = _pair_conflicts(summaries.get(site_a.handler, ()),
                                summaries.get(site_b.handler, ()))
    conflicts.sort(key=_conflict_severity)
    findings = []
    for rule, ta, tb in conflicts[:_MAX_PER_PAIR]:
        a, b = short(site_a.handler), short(site_b.handler)
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
            rule=rule, path=site_a.caller.path, line=site_a.line, col=1,
            message=(
                f"handlers `{a}` and `{b}` can fire at the same "
                f"instant — `{a}` {pin_a.desc} "
                f"({site_a.caller.path}:{site_a.line}); `{b}` {pin_b.desc} "
                f"({site_b.caller.path}:{site_b.line}) — with {what}; "
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


def _periodic_findings(pin: _Pinned,
                       summaries: Dict[str, Tuple[TracedEffect, ...]]
                       ) -> List[Finding]:
    site = pin.site
    reasons = _coalesce_reasons(summaries.get(site.handler, ()))
    if not reasons:
        return []
    handler = short(site.handler)
    listed = "; ".join(
        f"{text} [{render_chain(te.chain)}]"
        for text, te in reasons[:_MAX_REASONS])
    more = len(reasons) - _MAX_REASONS
    if more > 0:
        listed += f"; and {more} more"
    return [Finding(
        rule="SL203", path=site.caller.path, line=site.line, col=1,
        message=(
            f"periodic handler `{handler}` ({pin.desc}, "
            f"{site.caller.path}:{site.line}) is unsafe to coalesce: "
            f"same-tick invocations across instances do not commute "
            f"— {listed}"))]


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_races(index: ProjectIndex) -> List[Finding]:
    """All SL201–SL203 findings for an indexed project."""
    pins = sorted((pin for pin in map(_pin, index.schedule_sites)
                   if pin is not None),
                  key=lambda p: (p.site.caller.path, p.site.line,
                                 p.site.handler))
    if not pins:
        return []
    summaries = infer_effects(index)
    findings: List[Finding] = []
    by_bucket: Dict[Tuple[object, ...], List[_Pinned]] = {}
    for pin in pins:
        by_bucket.setdefault(pin.bucket, []).append(pin)
    seen_pairs = set()
    for bucket_pins in by_bucket.values():
        for i, pin_a in enumerate(bucket_pins):
            for pin_b in bucket_pins[i + 1:]:
                a, b = pin_a.site, pin_b.site
                if a.handler == b.handler:
                    continue  # cross-instance stories are SL203's
                pair = (a.caller.path, a.line,
                        tuple(sorted((a.handler, b.handler))))
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                findings.extend(_pair_findings(pin_a, pin_b, summaries))
    seen_periodic = set()
    for pin in pins:
        site = pin.site
        if site.method != "PeriodicTask":
            continue
        key = (site.caller.path, site.line, site.handler)
        if key in seen_periodic:
            continue
        seen_periodic.add(key)
        findings.extend(_periodic_findings(pin, summaries))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return [index.scoped(f) for f in findings]
