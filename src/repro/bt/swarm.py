"""Swarm orchestration.

A :class:`Swarm` owns the simulator, torrent, tracker, swarm state
(peer rows and the neighbour graph) and the peer population, and
provides the experiment-facing run loop.  It is protocol-agnostic:
protocols are peer subclasses added through :meth:`add_peer` (usually
by an arrival workload).

The run loop stops when every leecher able to finish has left, or at
``max_time``.  Free-riders that can never finish (the T-Chain outcome
of Fig. 7(b)) do not keep the simulation alive forever.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.metrics import SwarmMetrics
from repro.bt.columnar import ColumnarState
from repro.bt.config import SwarmConfig
from repro.bt.peer import Peer
from repro.bt.torrent import Torrent
from repro.bt.tracker import Tracker
from repro.sim.engine import Simulator


class Swarm:
    """One simulated file-sharing swarm."""

    def __init__(self, config: SwarmConfig, sanitize: object = False,
                 profile: object = False):
        self.config = config
        # The raw value flows through so ``"races"`` selects the
        # order-sensitivity reporter, not just the boolean sanitizer.
        # ``profile="alloc"`` attaches the per-event allocation
        # profiler.
        self.sim = Simulator(seed=config.seed, sanitize=sanitize,
                             profile=profile)
        self.torrent = Torrent(config.n_pieces, config.piece_size_kb)
        self.tracker = Tracker(self.sim.rng, config.tracker_list_size)
        #: Peer rows over bitmask books and the neighbour graph between
        #: them (see :mod:`repro.bt.columnar`): the one swarm state
        #: every interest scan reads.  ``topology`` names the same
        #: object where it is used as the graph.
        self.columnar = self.topology = ColumnarState(
            config.n_pieces, config.max_neighbors,
            config.refill_threshold, swarm=self)
        self.columnar.on_disconnect = self._notify_disconnect
        self.metrics = SwarmMetrics()
        self.peers: Dict[str, Peer] = {}
        self.departed: Dict[str, Peer] = {}
        self.active_leechers = 0
        self.finished_leechers = 0
        self.on_finished: Optional[Callable[[Peer], None]] = None
        self.last_activity = 0.0
        #: Why the last :meth:`run` ended (``None`` before the first).
        self.stop_reason: Optional[str] = None
        self._next_auto_id = 0
        # Per-instance: a class-level counter would alias arrival
        # bookkeeping across swarms sharing one process (sweeps,
        # side-by-side protocol comparisons).
        self._pending_arrivals = 0
        #: optional :class:`repro.faults.injector.FaultInjector`;
        #: installed via ``FaultInjector.attach``, never constructed
        #: here (the swarm stays importable without the faults package)
        self.fault_injector = None
        #: Optional network substrate (:mod:`repro.net.link`).  Off by
        #: default — ``extra={"net": spec}`` enables it; the flat model
        #: then only pays ``self.net is None`` checks, keeping default
        #: runs bit-identical (tests/test_net_substrate.py).
        self.net = None
        net_spec = config.extra.get("net")
        if net_spec is not None:
            from repro.net.link import build_network
            self.net = build_network(net_spec, seed=config.seed)
            self.net.attach(self)

    # ------------------------------------------------------------------
    # Peer management
    # ------------------------------------------------------------------
    def new_peer_id(self, prefix: str = "L") -> str:
        """A fresh unique peer id."""
        self._next_auto_id += 1
        return f"{prefix}{self._next_auto_id}"

    def add_peer(self, peer: Peer) -> Peer:
        """Join a constructed peer into the swarm now."""
        peer.join()
        return peer

    def register(self, peer: Peer) -> None:
        """Called by ``Peer.join``; wires topology and counters."""
        if peer.id in self.peers:
            raise ValueError(f"duplicate peer id {peer.id!r}")
        self.peers[peer.id] = peer
        self.columnar.adopt(peer)
        if self.net is not None:
            # Place onto the substrate at registration: join order is
            # deterministic, so round-robin placement is too.
            self.net.place(peer.id)
        if peer.kind != "seeder":
            self.active_leechers += 1

    def note_deactivated(self, peer: Peer) -> None:
        """A peer flipped ``active = False`` (leave/crash/whitewash).

        Fired *immediately* after deactivation, before transfer
        cancellations pump other peers, so the swarm state drops the
        peer in the same instant ``neighbor_peers()`` stops returning
        it.
        """
        self.columnar.on_deactivated(peer)

    def deregister(self, peer: Peer) -> None:
        """Called by ``Peer.leave``."""
        self.peers.pop(peer.id, None)
        self.columnar.remove_peer(peer.id)
        self.departed[peer.id] = peer
        if peer.kind != "seeder":
            self.active_leechers -= 1
        self.metrics.record_peer(peer, self.sim.now)

    def find_peer(self, peer_id: str) -> Optional[Peer]:
        """Active peer by id, else None."""
        return self.peers.get(peer_id)

    def connect(self, a: str, b: str) -> bool:
        """Create a neighbor edge and fire both connection hooks.

        Re-connecting an existing edge is a no-op: the hooks fire only
        for genuinely new neighbors (tracker refills mostly return
        peers we already know; re-firing would stampede the pumps).
        """
        made = self.columnar.link(a, b, self._admits)
        if made:
            peer_a, peer_b = self.peers[a], self.peers[b]
            peer_a.on_neighbor_connected(b)
            peer_b.on_neighbor_connected(a)
        return made is not None

    def _admits(self, a: str, b: str) -> bool:
        """Both endpoints of a would-be new edge accept each other
        (asked by ``ColumnarState.link`` after its membership search;
        a graph row is always a registered peer)."""
        peers = self.peers
        return peers[a].accepts_connection_from(b) \
            and peers[b].accepts_connection_from(a)

    def _notify_disconnect(self, remaining: str, departed: str) -> None:
        peer = self.peers.get(remaining)
        if peer is not None:
            peer.on_neighbor_disconnected(departed)

    def rebrand(self, peer: Peer) -> str:
        """Give a peer a fresh identity (whitewashing support).

        The old id vanishes from the tracker and topology — neighbors
        are notified exactly as for a departure — and the same peer
        object rejoins under a new id with a fresh neighbor draw.  No
        metrics record is written: the peer never really left.
        """
        old_id = peer.id
        # Unregister before severing edges: disconnect notifications
        # can re-enter (refills, pumps) and must not resolve the old id.
        self.tracker.leave(old_id)
        self.peers.pop(old_id, None)
        self.columnar.remove_peer(old_id)
        new_id = self.new_peer_id("W")
        if self.net is not None:
            # A rebrand changes identity, not geography.
            self.net.rename(old_id, new_id)
        peer.id = new_id
        self.peers[new_id] = peer
        self.columnar.adopt(peer)
        # A fresh identity has no neighbours to leave out.
        strangers = self.tracker.announce(new_id)
        self.tracker.join(new_id)
        for member in strangers:
            self.connect(new_id, member)
        return new_id

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def send_control(self, sender_id: str, receiver: Peer,
                     callback: Callable[..., Any], *args: Any,
                     kind: str = "control",
                     latency: Optional[float] = None):
        """Deliver a control message (report, key release, plead, ...).

        The single choke point every control message crosses: the
        fault injector (when attached) decides drop / extra delay
        here, and delivery is suppressed for receivers that *crashed*
        (a dead host processes nothing — unlike a clean departure,
        after which e.g. ``on_report`` deliberately still works,
        Sec. II-B4).  Returns the event handle, or ``None`` when the
        message was dropped.
        """
        delay = latency if latency is not None \
            else self.config.control_latency_s
        if self.net is not None and not self.net._inert:
            # The substrate speaks first: route latency + per-link
            # loss fate, before the fault injector piles its own
            # drops/delays on top.  None = lost in the network
            # (per-link loss draw) or unroutable (severed partition).
            # An inert model (all-zero links, nothing severed) is
            # bypassed wholesale — no call, no counters — so an idle
            # substrate stays within noise of the flat model.
            fate = self.net.control_fate(sender_id, receiver.id)
            if fate is None:
                return None
            delay += fate
        if self.fault_injector is not None:
            fate = self.fault_injector.control_fate(
                kind, sender_id, receiver.id)
            if fate is None:
                return None
            delay += fate
        return self.sim.schedule(delay, self._deliver_control,
                                 receiver, callback, args)

    def _deliver_control(self, receiver: Peer,
                         callback: Callable[..., Any],
                         args: Tuple[Any, ...]) -> None:
        if receiver.crashed:
            return
        callback(*args)

    def on_peer_finished(self, peer: Peer) -> None:
        """A leecher completed its download."""
        self.finished_leechers += 1
        if self.on_finished is not None:
            self.on_finished(peer)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, max_time: Optional[float] = None,
            stop_when_drained: bool = True) -> None:
        """Advance the simulation and record why it ended.

        Stops at ``max_time`` (when given), when the event queue
        empties, or — with ``stop_when_drained`` — when no leecher that
        could still finish remains active.

        Additionally, a swarm that has been *quiet* (no piece upload
        started, no arrival) for ``config.quiet_window_s`` simulated
        seconds is declared done: only bookkeeping timers are left
        (e.g. starved T-Chain free-riders re-announcing forever).

        The loop is the engine's: these rules are the ``stop``
        predicate of ``Simulator.run``, asked before each event.
        :attr:`stop_reason` names the one that hit: ``"max_time"``,
        ``"drained"``, ``"quiescent"`` or ``"heap_empty"``.
        """
        quiet = self.config.quiet_window_s
        sim = self.sim
        self.stop_reason = None

        def stop(head_time: Optional[float]) -> bool:
            # ``None``: the heap ran dry (asked once, after the loop).
            # The quiet rule stays a subtraction: the stall watchdog
            # lands exactly on ``last_activity + 300.0``, where
            # ``head_time > last_activity + quiet`` rounds differently.
            if max_time is not None and sim.now >= max_time:
                reason = "max_time"
            elif stop_when_drained and self.active_leechers == 0 \
                    and self._pending_arrivals <= 0:
                reason = "drained"
            elif head_time is None:
                reason = "heap_empty"
            elif max_time is not None and head_time > max_time:
                reason = "max_time"
            elif quiet and self._pending_arrivals <= 0 \
                    and head_time - self.last_activity > quiet:
                reason = "quiescent"
            else:
                return False
            self.stop_reason = reason
            return True

        sim.run(stop=stop)
        if self.stop_reason is None:
            stop(None)
        if self.stop_reason == "max_time" and sim.now < max_time:
            sim.now = max_time

    def note_arrival_scheduled(self) -> None:
        """A workload scheduled a future join."""
        self._pending_arrivals += 1

    def note_arrival_happened(self) -> None:
        """A scheduled join executed."""
        self._pending_arrivals -= 1
        self.last_activity = self.sim.now

    def note_activity(self) -> None:
        """A piece upload started somewhere (quiet-window bookkeeping)."""
        self.last_activity = self.sim.now

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    def leechers(self) -> List[Peer]:
        """Active non-seeder peers."""
        return [p for p in self.peers.values() if p.kind != "seeder"]

    def seeders(self) -> List[Peer]:
        """Active seeders."""
        return [p for p in self.peers.values() if p.kind == "seeder"]
