"""Unit tests for the neighbor topology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import Topology


def topo(max_neighbors=3, refill=2):
    return Topology(max_neighbors=max_neighbors,
                    refill_threshold=refill)


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
    """Regression: ``disconnect`` used to decide whether the edge
    existed from the a-side adjacency only, so a half-removed edge was
    silently discarded without ``on_edge_removed`` and the interest
    index / route caches drifted."""

    def test_b_side_only_edge_still_fires_removed(self):
        t = topo()
        t.add_peer("A")
        t.add_peer("B")
        t.connect("A", "B")
        # Manufacture stale one-sided state: the a-side entry is gone
        # but B still records the edge.
        t._adj["A"].discard("B")
        t._sorted["A"].remove("B")
        removed = []
        t.on_edge_removed = lambda *args: removed.append(args)
        t.disconnect("A", "B")
        # One event; A had no entry left to delete, B's was at 0.
        assert removed == [("A", "B", None, 0)]
        assert not t.are_neighbors("B", "A")
        assert not t.are_neighbors("A", "B")
        assert t.sorted_neighbors("A") == t.sorted_neighbors("B") == []

    def test_missing_edge_fires_nothing(self):
        t = topo()
        t.add_peer("A")
        t.add_peer("B")
        removed = []
        t.on_edge_removed = lambda *args: removed.append(args)
        t.disconnect("A", "B")
        assert removed == []

    def test_symmetric_edge_fires_exactly_once(self):
        t = topo()
        t.add_peer("A")
        t.add_peer("B")
        t.connect("A", "B")
        removed = []
        t.on_edge_removed = lambda *args: removed.append(args)
        t.disconnect("A", "B")
        t.disconnect("A", "B")  # repeat is a no-op
        assert removed == [("A", "B", 0, 0)]


PEER_IDS = [f"L{i}" for i in range(12)]  # "L10" sorts before "L2"


class TestSortedAdjacency:
    """``sorted_neighbors`` is maintained in place, never re-sorted:
    it must equal ``sorted(neighbors())`` after every mutation, and
    the positions handed to the edge hooks must let a subscriber keep
    a parallel list without searching."""

    @given(st.lists(st.tuples(
        st.sampled_from(["connect", "disconnect", "remove", "add"]),
        st.sampled_from(PEER_IDS), st.sampled_from(PEER_IDS)),
        max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_matches_sorted_set_after_every_step(self, script):
        t = topo(max_neighbors=4)
        mirror = {}

        def added(a, b, pos_b, pos_a):
            mirror[a].insert(pos_b, b)
            mirror[b].insert(pos_a, a)

        def removed(a, b, pos_b, pos_a):
            # remove_peer passes None for the departing side.
            if pos_b is not None:
                assert mirror[a].pop(pos_b) == b
            assert mirror[b].pop(pos_a) == a

        t.on_edge_added = added
        t.on_edge_removed = removed
        for pid in PEER_IDS[:8]:
            t.add_peer(pid, unlimited=pid == "L0")
            mirror[pid] = []
        for op, a, b in script:
            if op == "connect":
                t.connect(a, b)
            elif op == "disconnect":
                t.disconnect(a, b)
            elif op == "remove":
                t.remove_peer(a)
                mirror.pop(a, None)
            elif a not in t:
                t.add_peer(a)
                mirror[a] = []
            for pid in PEER_IDS:
                if pid in t:
                    assert t.sorted_neighbors(pid) \
                        == sorted(t.neighbors(pid)) == mirror[pid]
                    assert t.degree(pid) == len(mirror[pid])

    def test_remove_peer_notifies_in_sorted_order_with_positions(self):
        t = topo(max_neighbors=5)
        for pid in ("L1", "L10", "L2", "L3"):
            t.add_peer(pid)
        t.connect("L2", "L3")
        t.connect("L2", "L10")
        t.connect("L2", "L1")
        t.connect("L1", "L10")
        removed = []
        t.on_edge_removed = lambda *args: removed.append(args)
        assert t.remove_peer("L2") == ["L1", "L10", "L3"]
        assert removed == [("L2", "L1", None, 1), ("L2", "L10", None, 1),
                           ("L2", "L3", None, 0)]
