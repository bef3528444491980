"""Network substrate: per-edge links with latency, jitter, loss and
FIFO queueing (ROADMAP item 4).

The flat model charges every control message one fixed
``control_latency_s`` and every piece one uplink-slot time; *where*
peers sit is invisible.  This module adds an optional substrate — a
graph of :class:`Link` edges between named network nodes, with peers
placed onto nodes — so WAN swarms, multi-DC latency matrices and lossy
links become expressible:

* **control plane** — every ``Swarm.send_control`` crosses the
  shortest-latency route between the endpoints' nodes; each hop adds
  latency (+ seeded jitter) and may drop the message (seeded per-link
  loss).  Lost messages exercise exactly the retransmit/plead recovery
  machinery the fault injector does.
* **data plane** — piece delivery time is floored at the path time
  (propagation + bottleneck serialization, degraded by path loss the
  way a loss-bound TCP flow would be), threaded through
  ``Uplink.try_start(min_duration_s=...)``.  Payload loss is modeled
  as deterministic throughput degradation, not probabilistic piece
  drop: a silently vanishing piece would wedge the exchange ledger in
  ways no real transport (which retransmits) exhibits.

Determinism contract: all randomness comes from
``substream(seed, "net")`` and a draw happens **only** when the
configured probability/jitter is nonzero, so an idle substrate (all
zeros) is bit-trace-neutral — verified by the equivalence suite in
``tests/test_net_substrate.py``.

Enable via ``run_swarm(..., extra={"net": spec})`` where ``spec`` is a
:class:`NetGraph` or a plain dict handed to
:func:`repro.net.topogen.graph_from_spec` (JSON-able, so sweep
manifests and the CLI can carry it); each run builds its own model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.randomness import substream

NET_STREAM_LABEL = "net"
"""Substream label for all substrate randomness."""


def link_key(a: str, b: str) -> Tuple[str, str]:
    """Canonical undirected edge key."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class LinkSpec:
    """Declarative description of one undirected link.

    ``bandwidth_kbps=None`` means unconstrained (no serialization and
    no FIFO queueing on this hop); zero latency/jitter/loss hops are
    free and draw no randomness.
    """

    a: str
    b: str
    latency_s: float = 0.0
    bandwidth_kbps: Optional[float] = None
    jitter_s: float = 0.0
    loss_prob: float = 0.0

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"self-link {self.a!r}")
        if self.latency_s < 0 or self.jitter_s < 0:
            raise ValueError("latency/jitter must be >= 0")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")
        if self.bandwidth_kbps is not None and self.bandwidth_kbps <= 0:
            raise ValueError("bandwidth_kbps must be positive or None")


@dataclass(frozen=True)
class NetGraph:
    """A generated topology: nodes, links, and the subset of nodes
    peers may be placed on (e.g. the leaves of a star)."""

    nodes: Tuple[str, ...]
    links: Tuple[LinkSpec, ...]
    attach: Tuple[str, ...] = ()

    def __post_init__(self):
        known = set(self.nodes)
        for spec in self.links:
            if spec.a not in known or spec.b not in known:
                raise ValueError(
                    f"link {spec.a!r}-{spec.b!r} references unknown "
                    f"node")
        for node in self.attach:
            if node not in known:
                raise ValueError(f"attach node {node!r} unknown")

    @property
    def attach_nodes(self) -> Tuple[str, ...]:
        """Placement candidates: ``attach`` if given, else all nodes,
        always in sorted order (placement must not depend on
        generator emission order)."""
        return tuple(sorted(self.attach or self.nodes))


class Link:
    """One live undirected link with a FIFO transmission queue.

    ``busy_until`` is the store-and-forward cursor: a sized message
    arriving at ``now`` starts serializing at ``max(now,
    busy_until)`` and occupies the link for ``size·8/bandwidth``
    seconds.  Zero-size messages (the control plane; Sec. III-C notes
    control overhead is negligible) skip the queue entirely.
    """

    __slots__ = ("a", "b", "latency_s", "bandwidth_kbps", "jitter_s",
                 "loss_prob", "busy_until", "messages", "dropped",
                 "kb_carried")

    def __init__(self, spec: LinkSpec):
        self.a = spec.a
        self.b = spec.b
        self.latency_s = spec.latency_s
        self.bandwidth_kbps = spec.bandwidth_kbps
        self.jitter_s = spec.jitter_s
        self.loss_prob = spec.loss_prob
        self.busy_until = 0.0
        self.messages = 0
        self.dropped = 0
        self.kb_carried = 0.0

    @property
    def key(self) -> Tuple[str, str]:
        return link_key(self.a, self.b)

    def traverse(self, now: float, size_kb: float,
                 rng) -> Optional[float]:
        """Seconds this hop adds, or ``None`` if the message is lost.

        Draws from ``rng`` only for nonzero loss/jitter so an
        all-zero link is trace-neutral.
        """
        if self.loss_prob > 0.0 and rng.random() < self.loss_prob:
            self.dropped += 1
            return None
        delay = self.latency_s
        if self.jitter_s > 0.0:
            delay += rng.uniform(0.0, self.jitter_s)
        if self.bandwidth_kbps is not None and size_kb > 0.0:
            serialization = size_kb * 8.0 / self.bandwidth_kbps
            start = self.busy_until if self.busy_until > now else now
            self.busy_until = start + serialization
            delay += (start - now) + serialization
        self.messages += 1
        self.kb_carried += size_kb
        return delay

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"Link({self.a}-{self.b}, {self.latency_s * 1e3:g}ms, "
                f"bw={self.bandwidth_kbps}, loss={self.loss_prob:g})")


@dataclass
class NetCounters:
    """Substrate-level accounting, surfaced in chaos reports and the
    ``benchmarks/perf`` layer bill."""

    control_sent: int = 0
    control_dropped: int = 0
    control_unroutable: int = 0
    transfers_priced: int = 0
    transfers_unroutable: int = 0
    partitions_applied: int = 0
    partitions_healed: int = 0
    links_severed: int = 0
    links_restored: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(vars(self))


class NetworkModel:
    """The live substrate: links + routing + peer placement.

    Parameters
    ----------
    graph:
        The :class:`NetGraph` to instantiate.
    seed:
        Root seed; loss/jitter draws come from
        ``substream(seed, "net")`` so the substrate never perturbs
        protocol or fault randomness.
    placement:
        Optional explicit ``peer_id -> node`` pins.  Unpinned peers
        are placed round-robin over ``graph.attach_nodes`` in
        registration order (deterministic: registration order is).
    control_size_kb:
        Size attributed to control messages on constrained links.
        Zero (the default, per the paper's negligible-overhead
        argument) keeps the control plane off the FIFO queues.
    """

    def __init__(self, graph: NetGraph, seed: int = 0,
                 placement: Optional[Dict[str, str]] = None,
                 control_size_kb: float = 0.0):
        self.graph = graph
        self._rng = substream(seed, NET_STREAM_LABEL)
        self.control_size_kb = control_size_kb
        self.sim: Optional[Any] = None
        self.links: Dict[Tuple[str, str], Link] = {}
        self._adj: Dict[str, Dict[str, Link]] = {
            node: {} for node in graph.nodes}
        for spec in graph.links:
            self._add_link(Link(spec))
        self._placement: Dict[str, str] = dict(placement or {})
        for peer_id, node in self._placement.items():
            if node not in self._adj:
                raise ValueError(
                    f"placement pins {peer_id!r} to unknown node "
                    f"{node!r}")
        self._attach_nodes = graph.attach_nodes
        if not self._attach_nodes:
            raise ValueError("graph has no nodes to place peers on")
        self._rr = 0
        self.counters = NetCounters()
        # Severed links (NetworkPartition faults) keyed like .links.
        self._severed: Dict[Tuple[str, str], Link] = {}
        # Route tables are built lazily and invalidated wholesale on
        # any edge change (sever/heal/add/remove).
        from repro.net.routing import RouteTable
        self.routes = RouteTable(self._adj)
        self._update_inert()

    def _update_inert(self) -> None:
        """Maintain the idle fast path: an all-zero, fully-connected,
        unsevered substrate adds exactly 0.0 to every message and
        transfer, so :meth:`control_fate` / :meth:`transfer_floor`
        skip routing and per-link bookkeeping entirely (model-level
        counters still advance; per-link ``messages``/``kb_carried``
        do not — there is no traffic shaping to account for).  The
        swarm choke points go one step further and skip the calls
        wholesale while the flag is set, so an inert substrate stays
        within wall-clock noise of the flat model and its counters
        stay at zero."""
        self._inert = False
        if self._severed:
            return
        for link in self.links.values():
            if (link.latency_s or link.jitter_s or link.loss_prob
                    or link.bandwidth_kbps is not None):
                return
        nodes = list(self._adj)
        if nodes:
            seen = {nodes[0]}
            stack = [nodes[0]]
            while stack:
                for neighbor in self._adj[stack.pop()]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            if len(seen) != len(nodes):
                return
        self._inert = True

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, swarm: Any) -> None:
        """Bind to a swarm's simulator (for the FIFO clock)."""
        self.sim = swarm.sim

    @property
    def now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def _add_link(self, link: Link) -> None:
        key = link.key
        if key in self.links:
            raise ValueError(f"duplicate link {key}")
        self.links[key] = link
        self._adj[link.a][link.b] = link
        self._adj[link.b][link.a] = link

    def _drop_link(self, link: Link) -> None:
        del self.links[link.key]
        del self._adj[link.a][link.b]
        del self._adj[link.b][link.a]

    def sever(self, groups: Sequence[Sequence[str]]) -> List[Link]:
        """Cut every link whose endpoints fall in different partition
        groups; returns the severed links (for :meth:`restore`).

        Nodes not named in any group form an implicit final group, so
        ``groups=[("dc2",)]`` isolates ``dc2`` from everything else.
        """
        side: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for node in group:
                if node not in self._adj:
                    raise ValueError(f"partition names unknown node "
                                     f"{node!r}")
                side[node] = index
        rest = len(groups)  # implicit group for unlisted nodes
        cut: List[Link] = []
        for key in sorted(self.links):
            link = self.links[key]
            if side.get(link.a, rest) != side.get(link.b, rest):
                cut.append(link)
        for link in cut:
            self._drop_link(link)
            self._severed[link.key] = link
        if cut:
            self.counters.links_severed += len(cut)
            self.routes.invalidate()
            self._update_inert()
        self.counters.partitions_applied += 1
        return cut

    def restore(self, links: Sequence[Link]) -> int:
        """Re-add previously severed links (partition heal)."""
        healed = 0
        for link in links:
            if self._severed.pop(link.key, None) is None:
                continue
            self._add_link(link)
            healed += 1
        if healed:
            self.counters.links_restored += healed
            self.routes.invalidate()
            self._update_inert()
        self.counters.partitions_healed += 1
        return healed

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place(self, peer_id: str) -> str:
        """The peer's network node, assigning one if unseen."""
        node = self._placement.get(peer_id)
        if node is None:
            node = self._attach_nodes[self._rr % len(self._attach_nodes)]
            self._rr += 1
            self._placement[peer_id] = node
        return node

    def rename(self, old_id: str, new_id: str) -> None:
        """Keep a whitewashing peer on its physical node: a rebrand
        changes identity, not geography."""
        node = self._placement.pop(old_id, None)
        if node is not None and new_id not in self._placement:
            self._placement[new_id] = node

    def node_of(self, peer_id: str) -> Optional[str]:
        """The peer's node, or None if never placed."""
        return self._placement.get(peer_id)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def control_fate(self, sender_id: str,
                     receiver_id: str) -> Optional[float]:
        """Route latency for one control message, or ``None`` when it
        is lost (per-link loss draw) or unroutable (partition)."""
        self.counters.control_sent += 1
        if self._inert:
            return 0.0
        src = self.place(sender_id)
        dst = self.place(receiver_id)
        if src == dst:
            return 0.0
        path = self.routes.path(src, dst)
        if path is None:
            self.counters.control_unroutable += 1
            return None
        now = self.now
        total = 0.0
        adj = self._adj
        for index in range(len(path) - 1):
            link = adj[path[index]][path[index + 1]]
            hop = link.traverse(now + total, self.control_size_kb,
                                self._rng)
            if hop is None:
                self.counters.control_dropped += 1
                return None
            total += hop
        return total

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def transfer_floor(self, sender_id: str, receiver_id: str,
                       size_kb: float) -> Optional[float]:
        """Minimum seconds for a piece to cross the substrate, or
        ``None`` when no route exists (partition): propagation along
        the path plus serialization at the bottleneck link, degraded
        by the path loss rate the way a loss-bound flow's goodput is.

        Deterministic by design — no draws — so the payload path stays
        bit-stable and a lossy link slows pieces down rather than
        silently discarding them (real transports retransmit).
        """
        if self._inert:
            self.counters.transfers_priced += 1
            return 0.0
        src = self.place(sender_id)
        dst = self.place(receiver_id)
        if src == dst:
            return 0.0
        path = self.routes.path(src, dst)
        if path is None:
            self.counters.transfers_unroutable += 1
            return None
        latency = 0.0
        bottleneck: Optional[float] = None
        survival = 1.0
        adj = self._adj
        for index in range(len(path) - 1):
            link = adj[path[index]][path[index + 1]]
            latency += link.latency_s
            if link.bandwidth_kbps is not None:
                if bottleneck is None \
                        or link.bandwidth_kbps < bottleneck:
                    bottleneck = link.bandwidth_kbps
            if link.loss_prob > 0.0:
                survival *= (1.0 - link.loss_prob)
        self.counters.transfers_priced += 1
        floor = latency
        if bottleneck is not None and size_kb > 0.0:
            floor += (size_kb * 8.0 / bottleneck) / survival
        return floor

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """Summary for reports and the CLI."""
        return {
            "nodes": len(self._adj),
            "links": len(self.links),
            "severed": len(self._severed),
            "placed_peers": len(self._placement),
            **self.counters.snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"NetworkModel(nodes={len(self._adj)}, "
                f"links={len(self.links)}, "
                f"severed={len(self._severed)})")


def build_network(spec: Any, seed: int = 0) -> NetworkModel:
    """Build a fresh :class:`NetworkModel` from a config value.

    Accepts a :class:`NetGraph` or a plain dict forwarded to
    :func:`repro.net.topogen.graph_from_spec` (which also extracts
    ``placement`` / ``control_kb`` keys).  A live model is refused: its
    rng, link cursors, placements and counters would carry from one
    run into the next, so the same seed would not give the same run.
    """
    if isinstance(spec, NetGraph):
        return NetworkModel(spec, seed=seed)
    if isinstance(spec, dict):
        from repro.net.topogen import graph_from_spec
        graph, placement, control_kb = graph_from_spec(spec)
        return NetworkModel(graph, seed=seed, placement=placement,
                            control_size_kb=control_kb)
    raise TypeError(
        f"extra['net'] must be a NetGraph or dict spec, not "
        f"{type(spec).__name__} (a live NetworkModel keeps state "
        f"between runs)")
