"""Neighbor topology.

An undirected graph of peer connections maintained the BitTorrent way
(Sec. II-A / IV-A): on arrival a peer receives up to 50 random swarm
members from the tracker and connects to them; peers keep at most 55
neighbors and ask the tracker for more when they drop below 30.

The topology is a swarm-wide object so departures can atomically sever
all of a peer's edges and notify its former neighbors.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Set

DEFAULT_MAX_NEIGHBORS = 55
DEFAULT_REFILL_THRESHOLD = 30


class Topology:
    """Undirected neighbor graph with per-peer caps.

    Parameters
    ----------
    max_neighbors:
        Hard cap per peer (55 in the paper).  Free-riders mounting the
        large-view exploit register with ``unlimited=True`` to bypass
        the cap.
    """

    def __init__(self, max_neighbors: int = DEFAULT_MAX_NEIGHBORS,
                 refill_threshold: int = DEFAULT_REFILL_THRESHOLD):
        self.max_neighbors = max_neighbors
        self.refill_threshold = refill_threshold
        self._adj: Dict[str, Set[str]] = {}
        # The same neighborhoods as sorted lists, edited in place on
        # every edge change (bisect + insert/del): every deterministic
        # iteration over a neighborhood needs sorted order, and one
        # memmove per edge is cheaper than re-sorting at the next read.
        self._sorted: Dict[str, List[str]] = {}
        self._unlimited: Set[str] = set()
        self.on_disconnect: Optional[Callable[[str, str], None]] = None
        # Edge-change notifications for the swarm state's adjacency
        # and availability columns: ``hook(a, b, pos_b, pos_a)`` where
        # ``pos_b`` is the index ``b`` was inserted at / deleted from in
        # ``a``'s sorted list and ``pos_a`` the same for ``a`` in
        # ``b``'s, so the subscriber keeps a parallel list without
        # bisecting again.  A removal passes ``None`` for an endpoint
        # with no entry to delete (the peer being removed, or a
        # half-recorded edge).  Unlike on_disconnect (a protocol-facing
        # hook fired only from remove_peer), these fire on *every* edge
        # mutation, and on_edge_removed fires *before* on_disconnect so
        # the columns are consistent when disconnect handlers re-enter
        # (refills, pumps).
        self.on_edge_added: Optional[
            Callable[[str, str, int, int], None]] = None
        self.on_edge_removed: Optional[
            Callable[[str, str, Optional[int], Optional[int]], None]] = None

    def add_peer(self, peer_id: str, unlimited: bool = False) -> None:
        """Register a peer with no neighbors yet."""
        if peer_id in self._adj:
            raise ValueError(f"duplicate peer {peer_id!r}")
        self._adj[peer_id] = set()
        self._sorted[peer_id] = []
        if unlimited:
            self._unlimited.add(peer_id)

    def remove_peer(self, peer_id: str) -> List[str]:
        """Remove a peer and all its edges; returns its ex-neighbors.

        Neighbors are notified in sorted order so simulations do not
        depend on per-process string hashing.
        """
        self._adj.pop(peer_id, None)
        neighbors = self._sorted.pop(peer_id, [])
        for other in neighbors:
            self._adj[other].discard(peer_id)
            pos = self._delete(other, peer_id)
            if self.on_edge_removed is not None:
                self.on_edge_removed(peer_id, other, None, pos)
            if self.on_disconnect is not None:
                self.on_disconnect(other, peer_id)
        self._unlimited.discard(peer_id)
        return neighbors

    def connect(self, a: str, b: str) -> bool:
        """Create the edge a—b if both sides have capacity.

        Returns True when the edge exists afterwards.
        """
        adj_a = self._adj.get(a)
        adj_b = self._adj.get(b)
        if a == b or adj_a is None or adj_b is None:
            return False
        if b in adj_a:
            return True
        cap = self.max_neighbors
        if (len(adj_a) >= cap and a not in self._unlimited) \
                or (len(adj_b) >= cap and b not in self._unlimited):
            return False
        adj_a.add(b)
        adj_b.add(a)
        sorted_a = self._sorted[a]
        pos_b = bisect_left(sorted_a, b)
        sorted_a.insert(pos_b, b)
        sorted_b = self._sorted[b]
        pos_a = bisect_left(sorted_b, a)
        sorted_b.insert(pos_a, a)
        if self.on_edge_added is not None:
            self.on_edge_added(a, b, pos_b, pos_a)
        return True

    def _delete(self, peer_id: str, neighbor_id: str) -> Optional[int]:
        """Drop ``neighbor_id`` from ``peer_id``'s sorted list; returns
        the index it held, ``None`` if it was not there."""
        neighbors = self._sorted.get(peer_id, ())
        pos = bisect_left(neighbors, neighbor_id)
        if pos == len(neighbors) or neighbors[pos] != neighbor_id:
            return None
        del neighbors[pos]
        return pos

    def disconnect(self, a: str, b: str) -> None:
        """Remove the edge a—b if present.

        Deliberately does *not* fire ``on_disconnect`` (snubbing a
        neighbor is not a departure), but does report the edge change.
        """
        # An edge counts as existing if *either* side records it:
        # asymmetric state (a half-removed edge, a peer mid-departure)
        # must still produce exactly one on_edge_removed so the
        # swarm state and route caches don't drift.
        if a in self._adj:
            self._adj[a].discard(b)
        if b in self._adj:
            self._adj[b].discard(a)
        pos_b = self._delete(a, b)
        pos_a = self._delete(b, a)
        if (pos_b is not None or pos_a is not None) \
                and self.on_edge_removed is not None:
            self.on_edge_removed(a, b, pos_b, pos_a)

    def neighbors(self, peer_id: str) -> Set[str]:
        """The peer's current neighbor set (live view, do not mutate)."""
        return self._adj[peer_id]

    def sorted_neighbors(self, peer_id: str) -> List[str]:
        """The peer's neighbor ids in sorted order.  A live view,
        edited in place by every edge change: do not mutate it, and
        copy it before a loop that connects or disconnects."""
        return self._sorted[peer_id]

    def degree(self, peer_id: str) -> int:
        """Number of neighbors."""
        return len(self._adj[peer_id])

    def are_neighbors(self, a: str, b: str) -> bool:
        """True if the edge a—b exists."""
        return b in self._adj.get(a, ())

    def needs_refill(self, peer_id: str) -> bool:
        """True when the peer should ask the tracker for more members."""
        return len(self._adj[peer_id]) < self.refill_threshold

    def __contains__(self, peer_id: str) -> bool:
        return peer_id in self._adj

    def __len__(self) -> int:
        return len(self._adj)
