"""Charge a cProfile run to the simulator's layers.

A function belongs to the layer whose source-path prefix (under
``src/repro/``) matches longest.  Frames outside the package — C
built-ins such as ``dict.get`` or ``heapq.heappop``, and stdlib helpers
such as ``random.shuffle`` — are charged to the layers of the package
frames that called them, through the profile's caller edges; what has
no package caller (interpreter start-up, the harness's own frames) is
``python``.

Named entry points are resolved by ``(module, qualname)`` when the
trace is read.  One that no longer exists yields ``None``, never an
error, so a PR that deletes a class does not break the benchmark.
"""

from __future__ import annotations

import importlib
import os
from typing import Any, Dict, Optional, Tuple

#: Source-path prefix under ``src/repro/`` -> layer; longest wins.
LAYER_PATHS: Tuple[Tuple[str, str], ...] = (
    ("sim/", "sim"),
    ("bt/swarm.py", "bt.swarm"),
    ("bt/tracker.py", "bt.swarm"),
    ("net/topology.py", "bt.swarm"),
    ("workloads/", "bt.swarm"),
    ("bt/columnar.py", "bt.columnar"),
    ("bt/interest.py", "bt.interest"),
    ("bt/peer.py", "bt.peer"),
    ("bt/torrent.py", "bt.peer"),
    ("bt/piece_selection.py", "bt.peer"),
    ("bt/choking.py", "bt.peer"),
    ("bt/config.py", "bt.peer"),
    ("bt/protocols/", "bt.protocols"),
    ("attacks/", "bt.protocols"),
    ("core/", "core"),
    ("core/crypto.py", "core.crypto"),
    ("net/bandwidth.py", "net.bandwidth"),
    ("net/link.py", "net.link"),
    ("net/routing.py", "net.link"),
    ("net/topogen.py", "net.link"),
    ("faults/", "faults"),
    ("analysis/", "analysis"),
    ("experiments/", "experiments"),
)

LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer in LAYER_PATHS)) + ("python",)

#: Entry points the per-layer metrics name: key -> (module, qualname).
ENTRY_POINTS: Dict[str, Tuple[str, str]] = {
    "schedule": ("repro.sim.engine", "Simulator.schedule"),
    "schedule_at": ("repro.sim.engine", "Simulator.schedule_at"),
    "call_now": ("repro.sim.engine", "Simulator.call_now"),
    "cancel": ("repro.sim.engine", "EventHandle.cancel"),
    "compact": ("repro.sim.engine", "Simulator._compact"),
    "connect": ("repro.bt.swarm", "Swarm.connect"),
    "interest_add_peer": ("repro.bt.interest", "InterestIndex.add_peer"),
    "cooperative": ("repro.bt.protocols.tchain", "_TChainNode.cooperative"),
    "eligible": ("repro.core.flow_control", "FlowController.eligible"),
    "payee_scan": ("repro.bt.protocols.tchain",
                   "_TChainNode._payee_candidates"),
    "create_transaction": ("repro.core.exchange",
                           "ExchangeLedger.create_transaction"),
    "release_key": ("repro.core.exchange", "ExchangeLedger.release_key"),
    "transfer_start": ("repro.net.bandwidth", "Uplink.try_start"),
    "transfer_complete": ("repro.net.bandwidth", "Uplink._complete"),
    "transfer_abort": ("repro.net.bandwidth", "Uplink._abort"),
}

_PACKAGE_MARK = os.sep + os.path.join("src", "repro") + os.sep

#: A profiled function: its code object, or the name of a C built-in.
FrameKey = Any


class Frame:
    """What one function did in a traced pass."""

    __slots__ = ("filename", "calls", "self_s", "cum_s", "callers")

    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.calls = 0
        self.self_s = 0.0
        self.cum_s = 0.0
        #: caller key -> [calls, self seconds spent here on its behalf]
        self.callers: Dict[FrameKey, list] = {}


def snapshot(profile: Any) -> Dict[FrameKey, Frame]:
    """``{code object or built-in name: Frame}`` from a ``cProfile.Profile``.

    Read from ``getstats()`` rather than ``pstats``: pstats keys frames
    by (file, line, name), under which every dataclass-generated
    ``__init__`` ("<string>", 2) is one entry and the last one read wins,
    so call counts would change from run to run.
    """
    frames: Dict[FrameKey, Frame] = {}

    def frame(code: Any) -> Frame:
        found = frames.get(code)
        if found is None:
            found = frames[code] = Frame(
                getattr(code, "co_filename", "~"))
        return found

    for entry in profile.getstats():
        row = frame(entry.code)
        row.calls += entry.callcount
        row.self_s += entry.inlinetime
        row.cum_s += entry.totaltime
        for callee in entry.calls or ():
            edge = frame(callee.code).callers.setdefault(entry.code,
                                                          [0, 0.0])
            edge[0] += callee.callcount
            edge[1] += callee.inlinetime
    return frames


def layer_of(filename: str) -> Optional[str]:
    """The layer of a source file, or ``None`` outside the package."""
    _, mark, relative = filename.rpartition(_PACKAGE_MARK)
    if not mark:
        return None
    relative = relative.replace(os.sep, "/")
    best: Optional[str] = None
    best_len = -1
    for prefix, layer in LAYER_PATHS:
        if relative.startswith(prefix) and len(prefix) > best_len:
            best, best_len = layer, len(prefix)
    return best or "python"


def attribute(frames: Dict[FrameKey, Frame]) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "calls"}}`` for a :func:`snapshot`.

    Self time of a frame outside the package follows the caller edges
    up to the nearest package frames (``shuffle`` -> ``_randbelow`` ->
    ``getrandbits`` all land on whoever called ``shuffle``), split by
    the time each edge carries.  Calls are counted one edge deep only,
    so every ``calls`` figure stays an exact integer: calls between two
    outside frames count as ``python``.
    """
    bill = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    spread_memo: Dict[FrameKey, Dict[str, float]] = {}

    def spread(key: FrameKey) -> Dict[str, float]:
        """How an outside frame's self time divides among the layers."""
        if key in spread_memo:
            return spread_memo[key]
        spread_memo[key] = {"python": 1.0}      # a call cycle ends here
        callers = frames[key].callers
        carried = sum(edge[1] for edge in callers.values())
        if carried <= 0:
            return spread_memo[key]
        shares: Dict[str, float] = {}
        for caller, edge in callers.items():
            layer = layer_of(frames[caller].filename)
            above = {layer: 1.0} if layer else spread(caller)
            for name, part in above.items():
                shares[name] = shares.get(name, 0.0) \
                    + part * edge[1] / carried
        spread_memo[key] = shares
        return shares

    for key, row in frames.items():
        layer = layer_of(row.filename)
        if layer is not None:
            bill[layer]["self_s"] += row.self_s
            bill[layer]["calls"] += row.calls
            continue
        for name, part in spread(key).items():
            bill[name]["self_s"] += part * row.self_s
        if not row.callers:
            bill["python"]["calls"] += row.calls
        for caller, edge in row.callers.items():
            owner = layer_of(frames[caller].filename) or "python"
            bill[owner]["calls"] += edge[0]
    return bill


def resolve(module: str, qualname: str) -> Optional[FrameKey]:
    """The code object of ``module.qualname``, or ``None`` if missing."""
    try:
        target: Any = importlib.import_module(module)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError):
        return None
    target = getattr(target, "fget", target)          # property
    target = getattr(target, "__func__", target)      # class/static method
    return getattr(target, "__code__", None)


def entry_stats(frames: Dict[FrameKey, Frame],
                entry_points: Optional[Dict[str, Tuple[str, str]]] = None,
                ) -> Dict[str, Optional[Dict[str, float]]]:
    """``{key: {"calls", "cum_s"}}`` per entry point.

    ``None`` for one that cannot be resolved; zero calls for one that
    exists but never ran on this workload.
    """
    found: Dict[str, Optional[Dict[str, float]]] = {}
    for key, (module, qualname) in (entry_points or ENTRY_POINTS).items():
        code = resolve(module, qualname)
        if code is None:
            found[key] = None
            continue
        row = frames.get(code)
        found[key] = ({"calls": row.calls, "cum_s": row.cum_s} if row
                      else {"calls": 0, "cum_s": 0.0})
    return found
