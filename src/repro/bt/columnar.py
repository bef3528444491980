"""The swarm state: dense peer rows over bitmask piece books.

Every upload decision in every protocol asks some variant of one
question: *which neighbours want a piece that some peer holds?*  With
piece books stored as bitmasks (:class:`~repro.bt.torrent.PieceBook`)
the answer for one pair is ``wanter.wmask & holder.cmask``, and for a
neighbourhood it is that AND walked over a flat, sorted adjacency
column.  :class:`ColumnarState` is that table — one per swarm, always
on, the only acceleration structure the protocols consult:

* rows: peer id -> dense row index, with parallel columns for the peer
  object, its book, liveness and the sorted neighbour ids / rows;
* one *maintained* column, ``avail``: per chooser row, the number of
  live neighbours holding each piece — the Local-Rarest-First input.
  It is the single count kept instead of recomputed, because LRF reads
  it on every plan while it changes only O(degree) per completion and
  O(pieces) per edge (docs/PERF.md has the measurement).

Nothing here is swarm-wide: joining costs O(1) plus O(pieces) per edge,
a completion costs O(degree), and no map is keyed by piece.

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

from bisect import bisect_left
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.bt.torrent import PieceBook, mask_bits

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.peer import Peer
    from repro.bt.swarm import Swarm


class ColumnarState:
    """Dense per-peer rows with flat columns for wholesale scans.

    Rows are allocated at :meth:`adopt` (``Swarm.register`` /
    ``rebrand``) and recycled at :meth:`release`; ``alive`` mirrors
    ``peer.active`` through ``Swarm.note_deactivated``, so a row filter
    on ``alive`` equals the ``neighbor_peers()`` activity filter at
    every scan instant.  Adjacency is two parallel per-row lists —
    neighbour ids sorted lexicographically and their row indexes —
    matching ``topology.sorted_neighbors()`` element for element.
    """

    def __init__(self, swarm: "Swarm"):
        self.swarm = swarm
        self.n_pieces = swarm.torrent.n_pieces
        self.row_of: Dict[str, int] = {}
        self.ids: List[Optional[str]] = []
        self.objs: List[Optional["Peer"]] = []
        self.books: List[Optional[PieceBook]] = []
        self.alive: List[bool] = []
        self.adj_ids: List[List[str]] = []
        self.adj_rows: List[List[int]] = []
        #: avail[row][piece] = live neighbours of ``row`` holding it.
        self.avail: List[List[int]] = []
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
            self.avail[row] = [0] * self.n_pieces
        else:
            row = len(self.ids)
            self.ids.append(pid)
            self.objs.append(peer)
            self.books.append(book)
            self.alive.append(True)
            self.adj_ids.append([])
            self.adj_rows.append([])
            self.avail.append([0] * self.n_pieces)
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
        self._count_at_neighbors(row, self.books[row].cmask, -1)

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
        self.adj_ids[row].clear()
        self.adj_rows[row].clear()
        self._free.append(row)

    # ------------------------------------------------------------------
    # Writes to the availability column
    # ------------------------------------------------------------------
    def on_completed(self, rows: List[int], piece: int) -> None:
        """A book completed ``piece``; ``rows`` are the rows holding
        that book (several for a shared Sybil book — the piece becomes
        a copy at the neighbours of every live identity)."""
        for row in rows:
            if self.alive[row]:
                self._count_at_neighbors(row, 1 << piece, +1)

    def _count_at_neighbors(self, row: int, cmask: int,
                            delta: int) -> None:
        """Add ``delta`` copies of every piece in ``cmask`` at the
        live neighbours of ``row``."""
        pieces = mask_bits(cmask)
        if not pieces:
            return
        alive = self.alive
        for nrow in self.adj_rows[row]:
            if alive[nrow]:
                counts = self.avail[nrow]
                for piece in pieces:
                    counts[piece] += delta

    def _count_edge(self, row_a: int, row_b: int, delta: int) -> None:
        """Both endpoints live: each holds the other's pieces."""
        counts = self.avail[row_a]
        for piece in mask_bits(self.books[row_b].cmask):
            counts[piece] += delta
        counts = self.avail[row_b]
        for piece in mask_bits(self.books[row_a].cmask):
            counts[piece] += delta

    # ------------------------------------------------------------------
    # Topology events (Topology.on_edge_added / on_edge_removed)
    # ------------------------------------------------------------------
    def on_edge_added(self, a: str, b: str) -> None:
        row_a = self.row_of.get(a)
        row_b = self.row_of.get(b)
        if row_a is None or row_b is None:
            return
        if self._insert(row_a, b, row_b) \
                and self._insert(row_b, a, row_a) \
                and self.alive[row_a] and self.alive[row_b]:
            self._count_edge(row_a, row_b, +1)

    def on_edge_removed(self, a: str, b: str) -> None:
        row_a = self.row_of.get(a)
        row_b = self.row_of.get(b)
        removed_a = row_a is not None and self._remove(row_a, b)
        removed_b = row_b is not None and self._remove(row_b, a)
        # A deactivated endpoint already left the counts.
        if removed_a and removed_b \
                and self.alive[row_a] and self.alive[row_b]:
            self._count_edge(row_a, row_b, -1)

    def _insert(self, row: int, nid: str, nrow: int) -> bool:
        ids = self.adj_ids[row]
        # bisect has no key= before 3.10; the parallel-list insert is
        # the portable equivalent.
        pos = bisect_left(ids, nid)
        if pos < len(ids) and ids[pos] == nid:
            return False
        ids.insert(pos, nid)
        self.adj_rows[row].insert(pos, nrow)
        return True

    def _remove(self, row: int, nid: str) -> bool:
        ids = self.adj_ids[row]
        pos = bisect_left(ids, nid)
        if pos < len(ids) and ids[pos] == nid:
            del ids[pos]
            del self.adj_rows[row][pos]
            return True
        return False

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
        return [nid
                for nid, nrow in zip(self.adj_ids[row],
                                     self.adj_rows[row])
                if alive[nrow] and books[nrow].wmask & offer_mask]

    def availability(self, peer: "Peer") -> List[int]:
        """``copies[piece]`` among ``peer``'s live neighbours (the
        maintained column; read-only).  All zeros for a peer that is
        not registered."""
        row = self.row_of.get(peer.id)
        if row is None:
            return [0] * self.n_pieces
        return self.avail[row]

    # ------------------------------------------------------------------
    # Self-check (the churn property test runs this after every event)
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Assert rows, liveness, adjacency, masks, book links and the
        availability column all equal a from-scratch rebuild from the
        peers and the topology."""
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
            assert book.wmask == full & ~book.cmask & ~book.emask, (
                f"{pid} wanted mask diverged")
            expected_adj = topology.sorted_neighbors(pid) \
                if pid in topology else []
            assert self.adj_ids[row] == list(expected_adj), (
                f"adj[{pid}] {self.adj_ids[row]} != {expected_adj}")
            assert [self.ids[nrow] for nrow in self.adj_rows[row]] \
                == self.adj_ids[row], f"adj rows of {pid} diverged"
            if not peer.active:
                continue
            copies = [0] * self.n_pieces
            for other in peer.neighbor_peers():
                for piece in other.book.completed:
                    copies[piece] += 1
            assert self.avail[row] == copies, (
                f"avail[{pid}] {self.avail[row]} != {copies}")
        for row, book in enumerate(self.books):
            if book is not None:
                assert book._rows.count(row) == 1
        assert len(self.row_of) + len(self._free) == len(self.ids)
