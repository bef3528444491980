"""Unit tests for the neighbor graph.

The graph is stored once, in the swarm state: per row, the neighbours'
rows in sorted-id order (``repro.bt.columnar.ColumnarState``).  Rows
registered by id alone exercise the graph by itself; rows adopted from
peers add the availability counts an edge change must keep in step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.bt.columnar import ColumnarState
from repro.bt.torrent import PieceBook, Torrent

N_PIECES = 3
TORRENT = Torrent(N_PIECES)


def topo(max_neighbors=3, refill=2):
    return ColumnarState(N_PIECES, max_neighbors=max_neighbors,
                         refill_threshold=refill)


class StubPeer:
    """What ``ColumnarState.adopt`` reads of a peer."""

    def __init__(self, pid, pieces=(), unlimited=False):
        self.id = pid
        self.book = PieceBook(TORRENT, pieces)
        self.unlimited_neighbors = unlimited
        self.active = True


class TestEdges:
    def test_connect_is_symmetric(self):
        t = topo()
        t.add_peer("A")
        t.add_peer("B")
        assert t.connect("A", "B")
        assert t.are_neighbors("A", "B")
        assert t.are_neighbors("B", "A")

    def test_self_connect_rejected(self):
        t = topo()
        t.add_peer("A")
        assert not t.connect("A", "A")

    def test_connect_unknown_peer_rejected(self):
        t = topo()
        t.add_peer("A")
        assert not t.connect("A", "ghost")

    def test_duplicate_connect_is_idempotent(self):
        t = topo()
        t.add_peer("A")
        t.add_peer("B")
        t.connect("A", "B")
        assert t.connect("A", "B")
        assert t.degree("A") == 1

    def test_disconnect(self):
        t = topo()
        t.add_peer("A")
        t.add_peer("B")
        t.connect("A", "B")
        t.disconnect("A", "B")
        assert not t.are_neighbors("A", "B")
        assert t.degree("B") == 0

    def test_duplicate_add_rejected(self):
        t = topo()
        t.add_peer("A")
        with pytest.raises(ValueError):
            t.add_peer("A")


class TestCaps:
    def test_max_neighbors_enforced(self):
        t = topo(max_neighbors=2)
        for pid in "ABCD":
            t.add_peer(pid)
        assert t.connect("A", "B")
        assert t.connect("A", "C")
        assert not t.connect("A", "D")
        assert t.degree("A") == 2

    def test_cap_applies_to_both_sides(self):
        t = topo(max_neighbors=1)
        for pid in "ABC":
            t.add_peer(pid)
        t.connect("A", "B")
        assert not t.connect("C", "B")  # B is full

    def test_unlimited_peer_bypasses_cap(self):
        t = topo(max_neighbors=1)
        t.add_peer("F", unlimited=True)
        for pid in "ABC":
            t.add_peer(pid)
        assert t.connect("F", "A")
        assert t.connect("F", "B")
        assert t.connect("F", "C")
        assert t.degree("F") == 3

    def test_needs_refill(self):
        t = topo(max_neighbors=5, refill=2)
        t.add_peer("A")
        t.add_peer("B")
        assert t.needs_refill("A")
        t.connect("A", "B")
        t.add_peer("C")
        t.connect("A", "C")
        assert not t.needs_refill("A")


class TestRemoval:
    def test_remove_severs_all_edges(self):
        t = topo()
        for pid in "ABC":
            t.add_peer(pid)
        t.connect("A", "B")
        t.connect("A", "C")
        gone = t.remove_peer("A")
        assert sorted(gone) == ["B", "C"]
        assert t.degree("B") == 0
        assert "A" not in t

    def test_remove_fires_disconnect_callbacks(self):
        t = topo()
        events = []
        t.on_disconnect = lambda rem, dep: events.append((rem, dep))
        for pid in "ABC":
            t.add_peer(pid)
        t.connect("A", "B")
        t.connect("A", "C")
        t.remove_peer("A")
        assert sorted(events) == [("B", "A"), ("C", "A")]

    def test_remove_unknown_is_noop(self):
        assert topo().remove_peer("ghost") == []

    def test_len_counts_peers(self):
        t = topo()
        t.add_peer("A")
        t.add_peer("B")
        assert len(t) == 2
        t.remove_peer("A")
        assert len(t) == 1


class TestAsymmetricDisconnect:
    """``disconnect`` edits both endpoints' lists in one call, so an
    edge is never recorded on one side only; what it must still get
    right is taking an edge's availability counts back exactly once."""

    def test_missing_edge_fires_nothing(self):
        t = topo()
        a, b = StubPeer("A", (0, 1)), StubPeer("B", (2,))
        t.adopt(a)
        t.adopt(b)
        t.disconnect("A", "B")
        t.disconnect("A", "ghost")
        assert t.sorted_neighbors("A") == t.sorted_neighbors("B") == []
        assert t.avail == [0, 0]

    def test_symmetric_edge_fires_exactly_once(self):
        t = topo()
        a, b = StubPeer("A", (0, 1)), StubPeer("B", (2,))
        t.adopt(a)
        t.adopt(b)
        t.connect("A", "B")
        assert tuple(t.availability(a)) == (0, 0, 1)
        assert tuple(t.availability(b)) == (1, 1, 0)
        t.disconnect("A", "B")
        t.disconnect("A", "B")  # repeat is a no-op
        assert not t.are_neighbors("A", "B")
        assert t.avail == [0, 0]


PEER_IDS = [f"L{i}" for i in range(12)]  # "L10" sorts before "L2"


class TestSortedAdjacency:
    """The neighbour lists are kept sorted by id in place, never
    re-sorted: ``sorted_neighbors`` must equal the sorted neighbour set
    of a naive model after every mutation."""

    @given(st.lists(st.tuples(
        st.sampled_from(["connect", "disconnect", "remove", "add"]),
        st.sampled_from(PEER_IDS), st.sampled_from(PEER_IDS)),
        max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_matches_sorted_set_after_every_step(self, script):
        t = topo(max_neighbors=4)
        model = {}
        for pid in PEER_IDS[:8]:
            t.add_peer(pid, unlimited=pid == "L0")
            model[pid] = set()
        for op, a, b in script:
            if op == "connect":
                if t.connect(a, b):
                    model[a].add(b)
                    model[b].add(a)
            elif op == "disconnect":
                t.disconnect(a, b)
                model.get(a, set()).discard(b)
                model.get(b, set()).discard(a)
            elif op == "remove":
                t.remove_peer(a)
                for other in model.pop(a, ()):
                    model[other].discard(a)
            elif a not in t:
                t.add_peer(a)
                model[a] = set()
            for pid in PEER_IDS:
                if pid in t:
                    assert t.sorted_neighbors(pid) == sorted(model[pid])
                    assert t.degree(pid) == len(model[pid])

    def test_remove_peer_notifies_in_sorted_order_with_positions(self):
        t = topo(max_neighbors=5)
        for pid in ("L1", "L10", "L2", "L3"):
            t.add_peer(pid)
        t.connect("L2", "L3")
        t.connect("L2", "L10")
        t.connect("L2", "L1")
        t.connect("L1", "L10")
        events = []
        t.on_disconnect = lambda rem, dep: events.append((rem, dep))
        assert t.remove_peer("L2") == ["L1", "L10", "L3"]
        assert events == [("L1", "L2"), ("L10", "L2"), ("L3", "L2")]
        # Each survivor lost exactly the departed entry.
        assert t.sorted_neighbors("L1") == ["L10"]
        assert t.sorted_neighbors("L10") == ["L1"]
        assert t.sorted_neighbors("L3") == []


CAP, REFILL = 3, 2
#: Ids sorting apart from their registration (and row) order.
POOL = ["L1", "L10", "L2", "L3", "L11", "L4", "L20"]
PIECES = st.sets(st.integers(0, N_PIECES - 1))
UNLIMITED = st.sampled_from([False, False, False, True])


class SingleStoreMachine(RuleBasedStateMachine):
    """The row lists against a naive model: a dict of neighbour sets,
    sorted on read, plus each id's pieces, liveness and cap flag.
    Rebranded ids ("W<n>") reuse freed rows under a new sort key."""

    def __init__(self):
        super().__init__()
        self.state = topo(max_neighbors=CAP, refill=REFILL)
        self.events = []
        self.state.on_disconnect = \
            lambda rem, dep: self.events.append((rem, dep))
        self.peers = {}
        self.adj = {}
        self.live = {}
        self.unlimited = set()
        self.rebrands = 0

    def _pick(self, data):
        return data.draw(st.sampled_from(sorted(self.adj)))

    def _pick_any(self, data):
        # Registered ids plus one stranger.
        return data.draw(st.sampled_from(sorted(self.adj) + ["ghost"]))

    def _register(self, peer):
        self.state.adopt(peer)
        self.peers[peer.id] = peer
        self.adj[peer.id] = set()
        self.live[peer.id] = True
        if peer.unlimited_neighbors:
            self.unlimited.add(peer.id)

    def _remove(self, pid):
        self.events.clear()
        gone = self.state.remove_peer(pid)
        want = sorted(self.adj.pop(pid))
        assert gone == want
        assert self.events == [(other, pid) for other in want]
        for other in want:
            self.adj[other].discard(pid)
        self.unlimited.discard(pid)
        del self.live[pid]
        return self.peers.pop(pid)

    @initialize(peers=st.lists(st.tuples(PIECES, UNLIMITED), min_size=3,
                               max_size=len(POOL)))
    def populate(self, peers):
        for pid, (pieces, unlimited) in zip(POOL, peers):
            self._register(StubPeer(pid, pieces, unlimited))

    @precondition(lambda self: not set(POOL) <= set(self.adj))
    @rule(data=st.data(), pieces=PIECES, unlimited=UNLIMITED)
    def register(self, data, pieces, unlimited):
        pid = data.draw(st.sampled_from(
            [pid for pid in POOL if pid not in self.adj]))
        self._register(StubPeer(pid, pieces, unlimited))

    @rule(data=st.data())
    def connect(self, data):
        ids = st.sampled_from(sorted(self.adj) + ["ghost"])
        for a, b in data.draw(st.lists(st.tuples(ids, ids), min_size=1,
                                       max_size=4)):
            known = a in self.adj and b in self.adj and a != b
            new = known and b not in self.adj[a] and all(
                len(self.adj[x]) < CAP or x in self.unlimited
                for x in (a, b))
            assert self.state.connect(a, b) == (
                new or (known and b in self.adj[a]))
            if new:
                self.adj[a].add(b)
                self.adj[b].add(a)

    @precondition(lambda self: self.adj)
    @rule(data=st.data())
    def disconnect(self, data):
        a, b = self._pick(data), self._pick_any(data)
        self.state.disconnect(a, b)
        self.adj[a].discard(b)
        if b in self.adj:
            self.adj[b].discard(a)

    @precondition(lambda self: self.adj)
    @rule(data=st.data())
    def deactivate(self, data):
        pid = self._pick(data)
        peer = self.peers[pid]
        peer.active = False
        self.state.on_deactivated(peer)
        self.live[pid] = False

    @precondition(lambda self: self.adj)
    @rule(data=st.data(), piece=st.integers(0, N_PIECES - 1))
    def complete(self, data, piece):
        self.peers[self._pick(data)].book.add_completed(piece)

    @precondition(lambda self: self.adj)
    @rule(data=st.data())
    def remove_peer(self, data):
        self._remove(self._pick(data))

    @precondition(lambda self: self.adj)
    @rule(data=st.data())
    def rebrand(self, data):
        peer = self._remove(self._pick(data))
        self.rebrands += 1
        peer.id = f"W{self.rebrands}"
        peer.active = True
        self._register(peer)

    @invariant()
    def matches_model(self):
        state = self.state
        assert len(state) == len(self.adj)
        for pid, nbrs in self.adj.items():
            want = sorted(nbrs)
            assert state.sorted_neighbors(pid) == want
            assert state.degree(pid) == len(want)
            assert state.needs_refill(pid) == (len(want) < REFILL)
            assert len(want) <= CAP or pid in self.unlimited
            for other in list(self.adj) + ["ghost"]:
                assert state.are_neighbors(pid, other) == (other in nbrs)
            if self.live[pid]:
                copies = [0] * N_PIECES
                for other in want:
                    if self.live[other]:
                        for piece in self.peers[other].book.completed:
                            copies[piece] += 1
                assert list(state.availability(self.peers[pid])) \
                    == copies


TestSingleStore = SingleStoreMachine.TestCase
TestSingleStore.settings = settings(max_examples=150,
                                    stateful_step_count=50,
                                    deadline=None)
