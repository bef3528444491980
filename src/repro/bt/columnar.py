"""The swarm state: dense peer rows over bitmask piece books, and the
neighbour graph between them.

Every upload decision in every protocol asks some variant of one
question: *which neighbours want a piece that some peer holds?*  With
piece books stored as bitmasks (:class:`~repro.bt.torrent.PieceBook`)
the answer for one pair is ``wanter.wmask & holder.cmask``, and for a
neighbourhood it is that AND walked over one row's neighbour list.
:class:`ColumnarState` is that table — one per swarm, always on, the
only acceleration structure the protocols consult:

* rows: peer id -> dense row index, with parallel columns for the peer
  object, its book and liveness;
* the neighbour graph (Sec. II-A / IV-A: the tracker hands a joining
  peer up to 50 members, a peer keeps at most 55 neighbours and asks
  for more below 30), stored once: per row, the neighbours' *rows* in
  sorted-*id* order.  Degree is a list length, membership a binary
  search, and the scans walk the same list;
* one *maintained* column, ``avail``: per chooser row, the number of
  live neighbours holding each piece — the Local-Rarest-First input —
  packed into one int of ``COUNT_BITS``-wide fields.  It is the single
  count kept instead of recomputed, because LRF reads it on every plan
  while it changes by one big-int addition per live neighbour on a
  completion and two per edge (docs/PERF.md has the measurement).

Nothing here is swarm-wide: joining costs O(1) per edge plus a search
of the two neighbour lists, a completion costs O(degree), and no map is
keyed by piece.

Trace neutrality is the contract: every scan iterates neighbours in
sorted-id order and applies predicates equal to the set intersections
they replace, so candidate lists come out element for element what a
naive rescan over ``neighbor_peers()`` yields and no rng draw moves
(``tests/test_golden_traces.py`` pins this against traces taken from
that naive rescan).

Books are referenced, never copied: a book replaced after peer
construction (the runner pre-seeds partial books) is picked up at
registration, and a book *shared* by several identities (a Sybil
group) occupies several rows — a completion through any of them counts
at the neighbours of every one.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from struct import Struct
from typing import (Callable, Dict, List, Optional, Sequence, Set,
                    TYPE_CHECKING)

from repro.bt.torrent import COUNT_BITS, PieceBook

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.peer import Peer
    from repro.bt.swarm import Swarm


class ColumnarState:
    """Dense per-peer rows with flat columns for wholesale scans, and
    the neighbour graph over them.

    Rows are allocated at :meth:`adopt` (``Swarm.register`` /
    ``rebrand``) and recycled at :meth:`remove_peer`; ``alive`` mirrors
    ``peer.active`` through ``Swarm.note_deactivated``, so a row filter
    on ``alive`` equals the ``neighbor_peers()`` activity filter at
    every scan instant.

    ``adj_rows[row]`` is the one record of ``row``'s edges: its
    neighbours' rows ordered by id, kept so by ``bisect`` with
    ``key=ids.__getitem__`` and one ``insert`` / ``del`` per endpoint.
    Both endpoints' lists are edited by the same call, so an edge is
    always recorded on both sides.

    A row registered by id alone (:meth:`add_peer`) carries no peer and
    is never ``alive``: it takes part in the graph but in no count, so
    the graph works on its own (``tests/test_net_topology.py``).

    Parameters
    ----------
    max_neighbors:
        Hard cap per peer (55 in the paper).  Free-riders mounting the
        large-view exploit register with ``unlimited=True`` to bypass
        it.
    refill_threshold:
        Below this degree a peer asks the tracker for more members
        (30 in the paper).
    swarm:
        The owning swarm, read only by :meth:`check_consistency`.
    """

    def __init__(self, n_pieces: int, max_neighbors: int,
                 refill_threshold: int, swarm: Optional["Swarm"] = None):
        self.swarm = swarm
        self.n_pieces = n_pieces
        self.max_neighbors = max_neighbors
        self.refill_threshold = refill_threshold
        self.row_of: Dict[str, int] = {}
        self.ids: List[Optional[str]] = []
        # The sort key of a neighbour list: row -> id.
        self._id_of = self.ids.__getitem__
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
        fields = Struct(f"<{n_pieces}I")
        self._packed_bytes, self._unpack = fields.size, fields.unpack
        self._free: List[int] = []
        self._unlimited: Set[str] = set()
        #: ``hook(remaining, departed)``, fired by :meth:`remove_peer`
        #: once per ex-neighbour, after that edge is gone.
        self.on_disconnect: Optional[Callable[[str, str], None]] = None

    def __len__(self) -> int:
        return len(self.row_of)

    def __contains__(self, peer_id: str) -> bool:
        return peer_id in self.row_of

    # ------------------------------------------------------------------
    # Lifecycle (driven by Swarm.register / note_deactivated /
    # deregister / rebrand)
    # ------------------------------------------------------------------
    def add_peer(self, peer_id: str, unlimited: bool = False) -> int:
        """Allocate a row with no edges and no peer yet."""
        if peer_id in self.row_of:
            raise ValueError(f"duplicate peer {peer_id!r}")
        if self._free:
            row = self._free.pop()
            self.ids[row] = peer_id
        else:
            row = len(self.ids)
            self.ids.append(peer_id)
            self.objs.append(None)
            self.books.append(None)
            self.alive.append(False)
            self.adj_rows.append([])
            self.avail.append(0)
        self.row_of[peer_id] = row
        if unlimited:
            self._unlimited.add(peer_id)
        return row

    def adopt(self, peer: "Peer") -> int:
        """Allocate a row for a registering peer (no edges yet)."""
        row = self.add_peer(peer.id, peer.unlimited_neighbors)
        book = peer.book
        self.objs[row] = peer
        self.books[row] = book
        self.alive[row] = True
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

    def remove_peer(self, peer_id: str) -> List[str]:
        """Sever all of a peer's edges and free its row; returns its
        ex-neighbours in sorted-id order, the order ``on_disconnect``
        is fired in, so simulations do not depend on per-process
        string hashing.

        The id is unknown from the first notification on, so handlers
        that re-enter (refills, pumps) cannot reach it.  The book keeps
        its masks and stays fully functional detached — metrics and
        late ``unexpect`` calls read it after deregistration.
        """
        row = self.row_of.pop(peer_id, None)
        if row is None:
            return []
        ids = self.ids
        key = self._id_of
        alive = self.alive
        # The row's own list is handed back, translated to ids in place
        # as the edges go (the row gets a fresh one): no copy per
        # departure.
        neighbors = self.adj_rows[row]
        self.adj_rows[row] = []
        for i, nrow in enumerate(neighbors):
            other = neighbors[i] = ids[nrow]
            theirs = self.adj_rows[nrow]
            del theirs[bisect_left(theirs, peer_id, key=key)]
            if alive[row] and alive[nrow]:
                self.avail[nrow] -= self.books[row].spread
            if self.on_disconnect is not None:
                self.on_disconnect(other, peer_id)
        self._unlimited.discard(peer_id)
        book = self.books[row]
        if book is not None:
            book._rows.remove(row)
            if not book._rows:
                book._state = None
        ids[row] = None
        self.objs[row] = None
        self.books[row] = None
        alive[row] = False
        self.avail[row] = 0
        self._free.append(row)
        return neighbors

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def link(self, a: str, b: str,
             admit: Optional[Callable[[str, str], bool]] = None
             ) -> Optional[bool]:
        """Create the edge a—b with one search of ``a``'s list.

        Returns ``False`` when the edge already exists, ``True`` when
        it was created, and ``None`` when it was refused: an unknown
        peer, a self-edge, ``admit(a, b)`` false (asked only for a
        would-be new edge) or a side at its cap.
        """
        row_of = self.row_of
        row_a = row_of.get(a)
        row_b = row_of.get(b)
        if row_a is None or row_b is None or row_a == row_b:
            return None
        key = self._id_of
        rows_a = self.adj_rows[row_a]
        pos_b = bisect_left(rows_a, b, key=key)
        if pos_b < len(rows_a) and rows_a[pos_b] == row_b:
            return False
        if admit is not None and not admit(a, b):
            return None
        rows_b = self.adj_rows[row_b]
        cap = self.max_neighbors
        if (len(rows_a) >= cap and a not in self._unlimited) \
                or (len(rows_b) >= cap and b not in self._unlimited):
            return None
        rows_a.insert(pos_b, row_b)
        insort(rows_b, row_a, key=key)
        if self.alive[row_a] and self.alive[row_b]:
            # Both endpoints live: each holds the other's pieces.
            self.avail[row_a] += self.books[row_b].spread
            self.avail[row_b] += self.books[row_a].spread
        return True

    def connect(self, a: str, b: str) -> bool:
        """Create the edge a—b if both sides have capacity.

        Returns True when the edge exists afterwards.
        """
        return self.link(a, b) is not None

    def disconnect(self, a: str, b: str) -> None:
        """Remove the edge a—b if present.

        Deliberately does *not* fire ``on_disconnect``: snubbing a
        neighbour is not a departure.
        """
        row_a = self.row_of.get(a)
        row_b = self.row_of.get(b)
        if row_a is None or row_b is None:
            return
        key = self._id_of
        rows_a = self.adj_rows[row_a]
        pos_b = bisect_left(rows_a, b, key=key)
        if pos_b == len(rows_a) or rows_a[pos_b] != row_b:
            return
        del rows_a[pos_b]
        rows_b = self.adj_rows[row_b]
        del rows_b[bisect_left(rows_b, a, key=key)]
        # A deactivated endpoint already left the counts.
        if self.alive[row_a] and self.alive[row_b]:
            self.avail[row_a] -= self.books[row_b].spread
            self.avail[row_b] -= self.books[row_a].spread

    def sorted_neighbors(self, peer_id: str) -> List[str]:
        """The peer's neighbour ids in sorted order (a fresh list)."""
        return list(map(self._id_of, self.adj_rows[self.row_of[peer_id]]))

    def neighbor_ids(self, peer_id: str) -> Set[str]:
        """The peer's neighbour ids as a fresh set, for a caller that
        tests many ids against one neighbourhood."""
        return set(map(self._id_of, self.adj_rows[self.row_of[peer_id]]))

    def degree(self, peer_id: str) -> int:
        """Number of neighbours."""
        return len(self.adj_rows[self.row_of[peer_id]])

    def are_neighbors(self, a: str, b: str) -> bool:
        """True if the edge a—b exists."""
        row_a = self.row_of.get(a)
        row_b = self.row_of.get(b)
        if row_a is None or row_b is None:
            return False
        rows_a = self.adj_rows[row_a]
        pos_b = bisect_left(rows_a, b, key=self._id_of)
        return pos_b < len(rows_a) and rows_a[pos_b] == row_b

    def needs_refill(self, peer_id: str) -> bool:
        """True when the peer should ask the tracker for more members."""
        return len(self.adj_rows[self.row_of[peer_id]]) \
            < self.refill_threshold

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
        """Assert rows, liveness, masks and book links equal the
        peers; the neighbour lists form a valid graph (symmetric,
        sorted by id, no duplicate, no self-edge, within the cap unless
        unlimited); the availability column equals a recount; and each
        T-Chain node's flow window (``peer.flow.blocked``) a recount of
        its pending pieces."""
        swarm = self.swarm
        assert set(self.row_of) == set(swarm.peers), (
            f"rows {sorted(self.row_of)} != peers "
            f"{sorted(swarm.peers)}")
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
            rows = self.adj_rows[row]
            adj = [self.ids[nrow] for nrow in rows]
            assert None not in adj, f"adj[{pid}] holds a freed row"
            assert adj == sorted(set(adj)), (
                f"adj[{pid}] {adj} not sorted without duplicates")
            assert row not in rows, f"{pid} is its own neighbour"
            assert len(rows) <= self.max_neighbors \
                or pid in self._unlimited, f"{pid} over the cap"
            for nrow in rows:
                assert row in self.adj_rows[nrow], (
                    f"edge {pid}-{self.ids[nrow]} recorded one-sided")
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
        for row in self._free:
            assert self.ids[row] is None and not self.adj_rows[row]
        assert len(self.row_of) + len(self._free) == len(self.ids)
