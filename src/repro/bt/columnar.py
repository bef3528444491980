"""The swarm state: dense peer rows over bitmask piece books.

Every upload decision in every protocol asks some variant of one
question: *which neighbours want a piece that some peer holds?*  With
piece books stored as bitmasks (:class:`~repro.bt.torrent.PieceBook`)
the answer for one pair is ``wanter.wmask & holder.cmask``, and for a
neighbourhood it is that AND walked over a flat, sorted adjacency
column.  :class:`ColumnarState` is that table — one per swarm, always
on, the only acceleration structure the protocols consult:

* rows: peer id -> dense row index, with parallel columns for the peer
  object, its book, liveness and the neighbour rows in sorted-id order;
* one *maintained* column, ``avail``: per chooser row, the number of
  live neighbours holding each piece — the Local-Rarest-First input —
  packed into one int of ``COUNT_BITS``-wide fields.  It is the single
  count kept instead of recomputed, because LRF reads it on every plan
  while it changes by one big-int addition per live neighbour on a
  completion and two per edge (docs/PERF.md has the measurement).

Nothing here is swarm-wide: joining costs O(1) per edge, a completion
costs O(degree), and no map is keyed by piece.

Trace neutrality is the contract: every scan iterates neighbours in
``topology.sorted_neighbors()`` order and applies predicates equal to
the set intersections they replace, so candidate lists come out
element for element what a naive rescan over ``neighbor_peers()``
yields and no rng draw moves (``tests/test_golden_traces.py`` pins
this against traces taken from that naive rescan).

Books are referenced, never copied: a book replaced after peer
construction (the runner pre-seeds partial books) is picked up at
registration, and a book *shared* by several identities (a Sybil
group) occupies several rows — a completion through any of them counts
at the neighbours of every one.
"""

from __future__ import annotations

from struct import Struct
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.bt.torrent import COUNT_BITS, PieceBook

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.peer import Peer
    from repro.bt.swarm import Swarm


class ColumnarState:
    """Dense per-peer rows with flat columns for wholesale scans.

    Rows are allocated at :meth:`adopt` (``Swarm.register`` /
    ``rebrand``) and recycled at :meth:`release`; ``alive`` mirrors
    ``peer.active`` through ``Swarm.note_deactivated``, so a row filter
    on ``alive`` equals the ``neighbor_peers()`` activity filter at
    every scan instant.  Adjacency is one list of neighbour rows per
    row, parallel to ``topology.sorted_neighbors()`` element for
    element: the topology's edge hooks carry the list positions, so
    the two are edited in lockstep and the ids are stored once.
    """

    def __init__(self, swarm: "Swarm"):
        self.swarm = swarm
        self.n_pieces = swarm.torrent.n_pieces
        self.row_of: Dict[str, int] = {}
        self.ids: List[Optional[str]] = []
        self.objs: List[Optional["Peer"]] = []
        self.books: List[Optional[PieceBook]] = []
        self.alive: List[bool] = []
        self.adj_rows: List[List[int]] = []
        #: Live neighbours of ``row`` holding each piece: the count for
        #: ``piece`` is the ``COUNT_BITS``-wide field at bit
        #: ``COUNT_BITS * piece``.  One copy of a book is its
        #: ``spread``, so edges and completions are plain additions; a
        #: field never borrows from the next because a count is only
        #: taken back from where it was added.
        self.avail: List[int] = []
        # "I" is COUNT_BITS wide; explicit little-endian on both sides
        # puts piece 0 first on any host.
        fields = Struct(f"<{self.n_pieces}I")
        self._packed_bytes, self._unpack = fields.size, fields.unpack
        self._free: List[int] = []

    def __len__(self) -> int:
        return len(self.row_of)

    # ------------------------------------------------------------------
    # Lifecycle (driven by Swarm.register / note_deactivated /
    # deregister / rebrand)
    # ------------------------------------------------------------------
    def adopt(self, peer: "Peer") -> int:
        """Allocate a row for a registering peer (no edges yet)."""
        pid = peer.id
        row = self.row_of.get(pid)
        if row is not None:
            return row
        book = peer.book
        if self._free:
            row = self._free.pop()
            self.ids[row] = pid
            self.objs[row] = peer
            self.books[row] = book
            self.alive[row] = True
            self.avail[row] = 0
        else:
            row = len(self.ids)
            self.ids.append(pid)
            self.objs.append(peer)
            self.books.append(book)
            self.alive.append(True)
            self.adj_rows.append([])
            self.avail.append(0)
        self.row_of[pid] = row
        book._state = self
        book._rows.append(row)
        return row

    def on_deactivated(self, peer: "Peer") -> None:
        """Mirror ``active = False`` the instant it happens: the peer
        stops counting as a copy at its neighbours (its edges are
        severed later, and are then ignored by the column)."""
        row = self.row_of.get(peer.id)
        if row is None or not self.alive[row]:
            return
        self.alive[row] = False
        self._count_at_neighbors(row, -self.books[row].spread)

    def release(self, peer_id: str) -> None:
        """Free a departed peer's row (edges were already severed by
        ``topology.remove_peer``).  The book keeps its masks and stays
        fully functional detached — metrics and late ``unexpect`` calls
        read it after deregistration."""
        row = self.row_of.pop(peer_id, None)
        if row is None:
            return
        book = self.books[row]
        book._rows.remove(row)
        if not book._rows:
            book._state = None
        self.ids[row] = None
        self.objs[row] = None
        self.books[row] = None
        self.alive[row] = False
        self.adj_rows[row].clear()
        self._free.append(row)

    # ------------------------------------------------------------------
    # Writes to the availability column
    # ------------------------------------------------------------------
    def on_completed(self, rows: List[int], one_copy: int) -> None:
        """A book completed a piece (``one_copy`` is its count field's
        unit); ``rows`` are the rows holding that book (several for a
        shared Sybil book — the piece becomes a copy at the neighbours
        of every live identity)."""
        for row in rows:
            if self.alive[row]:
                self._count_at_neighbors(row, one_copy)

    def _count_at_neighbors(self, row: int, delta: int) -> None:
        """Add ``delta`` (a signed ``spread``) to the counts of the
        live neighbours of ``row``."""
        if not delta:
            return
        alive = self.alive
        avail = self.avail
        for nrow in self.adj_rows[row]:
            if alive[nrow]:
                avail[nrow] += delta

    # ------------------------------------------------------------------
    # Topology events (Topology.on_edge_added / on_edge_removed; the
    # positions index the endpoints' sorted neighbour lists)
    # ------------------------------------------------------------------
    def on_edge_added(self, a: str, b: str, pos_b: int,
                      pos_a: int) -> None:
        row_a = self.row_of[a]
        row_b = self.row_of[b]
        self.adj_rows[row_a].insert(pos_b, row_b)
        self.adj_rows[row_b].insert(pos_a, row_a)
        if self.alive[row_a] and self.alive[row_b]:
            # Both endpoints live: each holds the other's pieces.
            self.avail[row_a] += self.books[row_b].spread
            self.avail[row_b] += self.books[row_a].spread

    def on_edge_removed(self, a: str, b: str, pos_b: Optional[int],
                        pos_a: Optional[int]) -> None:
        row_a = self.row_of[a]
        row_b = self.row_of[b]
        # ``None``: that endpoint is leaving the topology wholesale
        # (its list is cleared at release) or never recorded the edge.
        if pos_b is not None:
            del self.adj_rows[row_a][pos_b]
        if pos_a is not None:
            del self.adj_rows[row_b][pos_a]
        # A deactivated endpoint already left the counts.
        if self.alive[row_a] and self.alive[row_b]:
            self.avail[row_a] -= self.books[row_b].spread
            self.avail[row_b] -= self.books[row_a].spread

    # ------------------------------------------------------------------
    # Wholesale scans (trace-equal to the naive object walks)
    # ------------------------------------------------------------------
    def has_provider(self, peer: "Peer") -> bool:
        """Does any live neighbour hold a piece ``peer`` wants?

        Equals ``any(wanted & p.book.completed for p in
        peer.neighbor_peers())``.
        """
        row = self.row_of.get(peer.id)
        if row is None:
            return False
        wmask = peer.book.wmask
        books = self.books
        alive = self.alive
        for nrow in self.adj_rows[row]:
            if alive[nrow] and books[nrow].cmask & wmask:
                return True
        return False

    def wanters(self, peer: "Peer", offer_mask: int) -> List[str]:
        """Live neighbours of ``peer`` wanting >=1 piece of
        ``offer_mask``, in sorted-id order.

        With ``offer_mask = peer.book.cmask`` this is "who is
        interested in us"; with a requestor's ``cmask`` plus the piece
        about to be uploaded it is the Sec. II-B2 payee-candidacy
        scan.  Equals ``[p.id for p in peer.neighbor_peers() if
        p.book.wanted() & offer]`` element for element.
        """
        row = self.row_of.get(peer.id)
        if row is None or not offer_mask:
            return []
        books = self.books
        alive = self.alive
        ids = self.ids
        return [ids[nrow] for nrow in self.adj_rows[row]
                if alive[nrow] and books[nrow].wmask & offer_mask]

    def availability(self, peer: "Peer") -> Sequence[int]:
        """``copies[piece]`` among ``peer``'s live neighbours: the
        maintained column unpacked into one tuple (one C call per LRF
        choice).  All zeros for a peer that is not registered."""
        row = self.row_of.get(peer.id)
        if row is None:
            return (0,) * self.n_pieces
        return self._unpack(
            self.avail[row].to_bytes(self._packed_bytes, "little"))

    # ------------------------------------------------------------------
    # Self-check (the churn property test runs this after every event)
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Assert rows, liveness, adjacency, masks, book links and the
        availability column all equal a from-scratch rebuild from the
        peers and the topology, and each T-Chain node's flow window
        (``peer.flow.blocked``) a recount of its pending pieces."""
        swarm = self.swarm
        assert set(self.row_of) == set(swarm.peers), (
            f"rows {sorted(self.row_of)} != peers "
            f"{sorted(swarm.peers)}")
        topology = swarm.topology
        full = (1 << self.n_pieces) - 1
        for pid, row in self.row_of.items():
            peer = swarm.peers[pid]
            assert self.ids[row] == pid
            assert self.objs[row] is peer
            book = peer.book
            assert self.books[row] is book, f"{pid} book was swapped"
            assert book._state is self and row in book._rows, (
                f"{pid} book not linked to its row")
            assert self.alive[row] == peer.active, (
                f"alive[{pid}]={self.alive[row]} != "
                f"active={peer.active}")
            assert book.cmask & book.emask == 0
            assert book.spread == sum(
                1 << COUNT_BITS * piece for piece in book.completed), (
                f"{pid} spread mask diverged from cmask")
            assert book.wmask == full & ~book.cmask & ~book.emask, (
                f"{pid} wanted mask diverged")
            expected_adj = sorted(topology.neighbors(pid)) \
                if pid in topology else []
            assert topology.sorted_neighbors(pid) == expected_adj, (
                f"sorted neighbours of {pid} diverged from the set")
            adj = [self.ids[nrow] for nrow in self.adj_rows[row]]
            assert adj == expected_adj, (
                f"adj[{pid}] {adj} != {expected_adj}")
            # A borrow or carry would corrupt a *different* piece's
            # count, so guard the packing itself, live row or not.
            packed = self.avail[row]
            assert packed >= 0 \
                and packed >> COUNT_BITS * self.n_pieces == 0, (
                    f"avail[{pid}] out of its fields: {packed:#x}")
            flow = getattr(peer, "flow", None)
            if flow is not None:
                flow.check_consistency()
            if not peer.active:
                continue
            copies = [0] * self.n_pieces
            for other in peer.neighbor_peers():
                for piece in other.book.completed:
                    copies[piece] += 1
            assert list(self.availability(peer)) == copies, (
                f"avail[{pid}] {self.availability(peer)} != {copies}")
        for row, book in enumerate(self.books):
            if book is not None:
                assert book._rows.count(row) == 1
        assert len(self.row_of) + len(self._free) == len(self.ids)
