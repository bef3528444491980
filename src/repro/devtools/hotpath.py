"""Hot-region inference for the simheat allocation audit (SL3xx).

Every function in the project is assigned a **static frequency
class** — how often it runs relative to the simulation's event loop —
by seeding the call graph (:mod:`repro.devtools.callgraph`) from the
index's schedule-site table and propagating along call and
schedule-callback edges:

* ``event`` — runs once per simulation event (or a constant multiple
  of it).  Seeds: ``call_now(...)`` / ``schedule(0, ...)`` sites,
  schedule sites whose delay is a *computed* expression (transfer
  completions, data-driven backoff — those fire as often as the
  events that schedule them), and protocol message handlers
  (``on_*`` / ``receive_*`` / ``handle_*`` methods, the entry points
  control-plane delivery invokes per message).
* ``round`` — runs once per timer round.  Seeds:
  :class:`~repro.sim.events.PeriodicTask` callbacks and schedule
  sites whose delay is a literal or an ALL-CAPS constant (rechoke
  intervals, retry backoff bases).
* ``setup`` — everything else: module import, constructors and
  wiring reached only from them.  Setup regions are never reported.

Frequency is monotone along calls: a callee inherits the fastest
class of any caller (a helper called from one handler and one
constructor is ``event``).  A ``round`` function *upgrades* to
``event`` when an event-class region reaches it, because scheduling
*from* a hot region makes the callback hot regardless of its delay:
a 30 s timeout armed per piece upload still allocates one timer per
event.

Each classified function carries the shortest seed→function **chain**
so SL3xx diagnostics can show *why* the analysis considers a region
hot.
"""

from __future__ import annotations

import ast
from typing import Dict, List, NamedTuple, Optional, Tuple

from .callgraph import ProjectIndex, ScheduleSite, Step, short
from .rules import dotted_name

#: Frequency classes, fastest first.
FREQ_EVENT = "event"
FREQ_ROUND = "round"
FREQ_SETUP = "setup"

_RANK = {FREQ_EVENT: 2, FREQ_ROUND: 1, FREQ_SETUP: 0}

#: Method-name prefixes that mark protocol message handlers (the
#: receive-side per-event entry points control delivery invokes).
HANDLER_PREFIXES = ("on_", "_on_", "receive_", "handle_")

#: ``on_*`` names that are *lifecycle* hooks, not message handlers:
#: they fire per join/leave/round, so they must not seed the event
#: class (propagation still upgrades them if a hot region calls in).
LIFECYCLE_HANDLERS = frozenset({
    "on_join", "on_leave", "on_rescan", "on_whitewash", "on_rebranded",
    "on_download_complete", "on_neighbor_connected",
    "on_neighbor_disconnected", "on_peer_finished",
})

#: Cap on chain length carried in diagnostics.
_MAX_CHAIN = 10


class HotRegion(NamedTuple):
    """A function with its inferred frequency class and provenance."""

    qualname: str
    freq: str
    chain: Tuple[Step, ...]


def _is_const_delay(node: ast.AST) -> bool:
    """Literal number, ALL-CAPS constant, or attribute chain ending in
    one (``self.swarm.config.rechoke_interval_s`` counts:
    config-pinned, not event-data-driven)."""
    if isinstance(node, ast.Constant) \
            and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_const_delay(node.operand)
    return dotted_name(node) is not None


def _site_seed(site: ScheduleSite) -> Optional[HotRegion]:
    """The frequency a schedule site gives its handler, if not setup."""
    if site.method == "PeriodicTask":
        freq, how = FREQ_ROUND, "is a PeriodicTask callback"
    elif site.method == "call_now":
        freq, how = FREQ_EVENT, "scheduled same-instant (call_now)"
    elif site.method == "schedule_at":
        # Absolute deadlines are one-shot setup unless the scheduling
        # region itself is hot (propagation covers that case).
        return None
    elif isinstance(site.delay, ast.Constant) and site.delay.value == 0:
        freq, how = FREQ_EVENT, "scheduled same-instant (delay 0)"
    elif _is_const_delay(site.delay):
        freq, how = FREQ_ROUND, "timer with a constant delay"
    else:
        freq, how = FREQ_EVENT, "scheduled with an event-driven delay"
    step = Step(f"{short(site.handler)} {how} in "
                f"{short(site.caller.qualname)}", site.caller.path,
                site.line)
    return HotRegion(site.handler, freq, (step,))


def _handler_seeds(index: ProjectIndex) -> List[HotRegion]:
    """Protocol message handlers: per-event by convention."""
    seeds: List[HotRegion] = []
    for qualname, info in index.functions.items():
        if info.class_name is None:
            continue
        if not any(info.name.startswith(p) for p in HANDLER_PREFIXES):
            continue
        if info.name in LIFECYCLE_HANDLERS:
            continue
        step = Step(f"{short(qualname)} is a protocol message handler",
                    info.path, info.lineno)
        seeds.append(HotRegion(qualname, FREQ_EVENT, (step,)))
    return seeds


def _override_map(index: ProjectIndex) -> Dict[str, List[str]]:
    """Base-method qualname → subclass overrides of it.

    A hot call site ``self.next_upload()`` resolves statically to the
    *base* definition, but at runtime it dispatches to whichever
    override the object carries — so hotness must flow from a method
    to every override beneath it in the project's class hierarchy.
    """
    out: Dict[str, List[str]] = {}
    for cls in index.classes.values():
        for base in index.mro(cls)[1:]:
            for name, info in cls.methods.items():
                base_info = base.methods.get(name)
                if base_info is not None \
                        and base_info.qualname != info.qualname:
                    out.setdefault(base_info.qualname,
                                   []).append(info.qualname)
    return {key: sorted(set(value)) for key, value in out.items()}


def infer_hot_regions(index: ProjectIndex) -> Dict[str, HotRegion]:
    """Frequency class + provenance chain for every non-setup function.

    Returns only ``event`` and ``round`` regions; anything absent from
    the mapping is setup-frequency and outside the audit's scope.
    """
    seeds = [seed for seed in map(_site_seed, index.schedule_sites)
             if seed is not None] + _handler_seeds(index)
    # Deterministic worklist: process event seeds before round seeds
    # and sort ties so chains are stable across runs.
    seeds.sort(key=lambda s: (-_RANK[s.freq], s.qualname,
                              s.chain[0].path, s.chain[0].line))
    regions: Dict[str, HotRegion] = {}
    work: List[str] = []

    def assign(qualname: str, freq: str, chain: Tuple[Step, ...]) -> None:
        have = regions.get(qualname)
        if have is not None and _RANK[have.freq] >= _RANK[freq]:
            return
        regions[qualname] = HotRegion(qualname, freq, chain)
        work.append(qualname)

    overrides = _override_map(index)
    for seed in seeds:
        if seed.qualname in index.functions:
            assign(seed.qualname, seed.freq, seed.chain)
    while work:
        qualname = work.pop(0)
        region = regions[qualname]
        info = index.functions.get(qualname)
        if info is None or len(region.chain) >= _MAX_CHAIN:
            continue
        for callee, line, _via_schedule in sorted(info.calls):
            if callee not in index.functions:
                continue
            step = Step(f"{short(qualname)} calls {short(callee)}",
                        info.path, line)
            assign(callee, region.freq, region.chain + (step,))
        # Virtual dispatch: a hot base method heats every override.
        for override in overrides.get(qualname, ()):
            target = index.functions.get(override)
            if target is None:
                continue
            step = Step(f"{short(override)} overrides "
                        f"{short(qualname)} (virtual dispatch)",
                        target.path, target.lineno)
            assign(override, region.freq, region.chain + (step,))
    return regions
