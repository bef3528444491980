"""Swarm-state regression suite (``repro.bt.columnar``).

The contracts under test:

* **Trace neutrality** — runs over the bitmask books and the columnar
  rows are bit-identical (full event trace *and* final metrics) to the
  set-backed object model they replaced, across protocols and seeds,
  pinned by digests taken from that model
  (``tests/test_golden_traces.py``).  There is one arm and no switch:
  removed ``extra`` keys fail loudly.
* **Consistency under churn** — after *every* fired event in a
  scenario full of joins, completion-leaves, whitewash rebrands and
  crashes, every column (rows, masks, adjacency, availability, free
  list) must equal a from-scratch naive rescan
  (``ColumnarState.check_consistency``), and each T-Chain node's flow
  window (``flow.blocked``) must equal the over-window set recounted
  from its pending pieces.
* **Packed counts** — the availability column is one int of 32-bit
  fields per row; a hub far above the neighbour cap must count right.
* **Book semantics** — the mask-backed ``PieceBook`` behaves exactly
  like the set model it replaced, and rows reference books without
  copying them, so post-construction book replacement and Sybil shared
  books keep working.
"""

import pytest

from random import Random

from repro.bt.columnar import ColumnarState
from repro.bt.config import SwarmConfig
from repro.bt.peer import Peer
from repro.bt.swarm import Swarm
from repro.bt.torrent import (
    PieceBook,
    Torrent,
    mask_bits,
    mask_to_set,
    popcount,
    set_to_mask,
)
from repro.bt.tracker import Tracker
from repro.experiments import run_swarm

from tests.test_golden_traces import (
    FLASH,
    PLAIN,
    SYBIL,
    assert_golden,
    check_every_event,
    sybil_setup,
)


class TestTraceNeutrality:
    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_tchain_full_trace_bit_identical(self, seed):
        assert_golden(f"churn-tchain-{seed}", protocol="tchain",
                      seed=seed, **FLASH)

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_bittorrent_full_trace_bit_identical(self, seed):
        assert_golden(f"plain-bittorrent-{seed}", protocol="bittorrent",
                      seed=seed, **PLAIN)

    @pytest.mark.parametrize("protocol", ["propshare", "fairtorrent",
                                          "random"])
    def test_other_baselines_bit_identical(self, protocol):
        assert_golden(f"plain-{protocol}-7", protocol=protocol, seed=7,
                      **PLAIN)

    def test_columnar_enabled_by_default(self):
        result = run_swarm(protocol="tchain", seed=3, leechers=6,
                           pieces=5)
        assert isinstance(result.swarm.columnar, ColumnarState)

    @pytest.mark.parametrize("key", [
        "columnar", "interest_index", "pool_events", "pool_messages",
        "coalesce_timers", "coalesce_baseline", "sanitize", "profile",
        "quiet_window_s", "chain_stall_timeout_s", "key_timeout_s",
        "control_retry_base_s", "control_retry_attempts"])
    def test_removed_extra_keys_fail_loudly(self, key):
        with pytest.raises(ValueError, match=f"unknown extra key.*{key}.*removed"):
            run_swarm(protocol="tchain", seed=3, leechers=6, pieces=5,
                      extra={key: False})

    def test_unknown_extra_key_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown extra.*sanitise"):
            run_swarm(protocol="tchain", seed=3, leechers=6, pieces=5,
                      extra={"sanitise": True})


class TestChurnConsistency:
    """The randomized-churn property test: columnar tables == naive
    rescan after every event (including a mid-run crash)."""

    @staticmethod
    def _checked_churn_run(also=None, **kwargs):
        """A T-Chain churn run with a mid-run crash, checked after
        every event; returns one entry per check."""
        checks = []

        def setup(swarm):
            def crash_one():
                for pid in sorted(swarm.peers):
                    peer = swarm.peers[pid]
                    if peer.active and peer.kind != "seeder":
                        peer.crash()
                        return

            swarm.sim.schedule(40.0, crash_one)
            check_every_event(swarm, checks, also=also)

        run_swarm(protocol="tchain", seed=11, setup=setup, **FLASH,
                  **kwargs)
        return checks

    def test_store_matches_rescan_after_every_event(self):
        checks = self._checked_churn_run(arrival="trace")
        assert len(checks) > 200  # the property was actually exercised

    def test_flow_windows_match_after_every_event(self):
        checks = self._checked_churn_run(also=_assert_flow_windows)
        assert len(checks) > 200

    def test_final_state_consistent_for_baselines(self):
        for protocol in ("bittorrent", "propshare", "fairtorrent",
                         "random"):
            result = run_swarm(protocol=protocol, seed=5, leechers=8,
                               pieces=6, freerider_fraction=0.25)
            result.swarm.columnar.check_consistency()

    def test_sanitized_run_clean_with_columnar_on(self):
        result = run_swarm(protocol="tchain", seed=13, sanitize=True,
                           **FLASH)
        assert result.swarm.sim.events_fired > 200

    def test_sanitized_trace_arrival_run_clean(self):
        """The sanitizer stays quiet over a trace-arrival churn
        scenario (conservation + fair-exchange invariants) and the
        swarm state is consistent at the end."""
        result = run_swarm(protocol="tchain", seed=13, sanitize=True,
                           arrival="trace", **FLASH)
        assert result.swarm.sim.events_fired > 200
        result.swarm.columnar.check_consistency()


def _assert_flow_windows(swarm):
    """Every T-Chain node's blocked set is its over-window set, and
    ``eligible`` answers from it.  (``check_consistency`` recounts the
    set too; this spells the definition out independently.)"""
    seen = 0
    for peer in swarm.peers.values():
        flow = getattr(peer, "flow", None)
        if flow is None or not peer.active:
            continue
        seen += 1
        expected = {nid for nid, count in flow._pending.items()
                    if count >= flow.pending_limit}
        assert flow.blocked == expected, (
            f"{peer.id}: blocked {sorted(flow.blocked)} != "
            f"{sorted(expected)}")
        assert all(flow.eligible(nid) != (nid in expected)
                   for nid in flow._pending)
    assert seen


class IdlePeer(Peer):
    def next_upload(self):
        return None


class TestPackedAvailability:
    def test_hub_counts_300_holders_and_back_to_zero(self):
        """A large-view free-rider registers ``unlimited=True``, so a
        count can pass 255: the fields must not be a byte wide, and a
        count that runs back to zero must not borrow from the next."""
        swarm = Swarm(SwarmConfig(n_pieces=3, seed=1))
        columnar = swarm.columnar

        def registered(pid, pieces=(), unlimited=False):
            peer = IdlePeer(swarm, pid, 800.0, 1,
                            book=PieceBook(swarm.torrent, pieces))
            peer.unlimited_neighbors = unlimited
            peer.active = True
            swarm.register(peer)
            return peer

        hub = registered("HUB", unlimited=True)
        holders = [registered(f"H{i:03d}", (0, 1) if i % 2 else (0,))
                   for i in range(300)]
        for peer in holders:
            assert swarm.connect(hub.id, peer.id)
            columnar.check_consistency()
        assert tuple(columnar.availability(hub)) == (300, 150, 0)
        holders[0].complete_piece(2)
        assert tuple(columnar.availability(hub)) == (300, 150, 1)
        for peer in holders:
            peer.leave()
            columnar.check_consistency()
        assert tuple(columnar.availability(hub)) == (0, 0, 0)
        assert columnar.avail[columnar.row_of[hub.id]] == 0


class TestMaskHelpers:
    def test_roundtrip(self):
        for pieces in (set(), {0}, {3, 5, 17}, set(range(64))):
            assert mask_to_set(set_to_mask(pieces)) == pieces
            assert mask_bits(set_to_mask(pieces)) == sorted(pieces)

    def test_popcount(self):
        for mask in (0, 1, 0b1011, (1 << 200) | 7):
            assert popcount(mask) == bin(mask).count("1")


class _SetBook:
    """The set-backed piece book the masks replaced, kept here as the
    reference model."""

    def __init__(self, n_pieces, initial=()):
        self.completed = set()
        self.expected = set()
        self.everything = set(range(n_pieces))
        for piece in initial:
            self.add_completed(piece)

    def add_completed(self, piece):
        self.expected.discard(piece)
        if piece in self.completed:
            return False
        self.completed.add(piece)
        return True

    def expect(self, piece):
        if piece not in self.completed:
            self.expected.add(piece)

    def unexpect(self, piece):
        self.expected.discard(piece)

    def missing(self):
        return self.everything - self.completed

    def wanted(self):
        return self.missing() - self.expected


class TestAdoption:
    def test_semantics_match_plain_book(self):
        """Drive a ``PieceBook`` and the set reference model through
        the same randomized operation sequence; every observable must
        agree."""
        rng = Random(42)
        plain = _SetBook(12, initial=(0,))
        masked = PieceBook(Torrent(n_pieces=12), initial_pieces=(0,))
        for _ in range(300):
            piece = rng.randrange(12)
            op = rng.choice(("complete", "expect", "unexpect"))
            if op == "complete":
                assert plain.add_completed(piece) == \
                    masked.add_completed(piece)
            elif op == "expect":
                plain.expect(piece)
                masked.expect(piece)
            else:
                plain.unexpect(piece)
                masked.unexpect(piece)
            assert masked.completed == plain.completed
            assert masked.missing() == plain.missing()
            assert masked.wanted() == plain.wanted()
            assert masked.completed_count == len(plain.completed)
            assert masked.is_complete == (not plain.missing())
            for p in range(12):
                assert masked.has(p) == (p in plain.completed)
                assert masked.wants(p) == (p in plain.wanted())
                assert masked.is_expected(p) == (p in plain.expected)
            other = set(rng.sample(range(12), 5))
            assert masked.needs_from(other) == other & plain.wanted()

    def test_shared_sybil_book_stays_shared(self):
        """Sybil identities sharing one book object keep sharing it
        once registered: one mask set, N columnar rows."""
        seen = {}

        def setup(swarm):
            sybil_setup(swarm)

            def look():
                sybils = [p for pid, p in sorted(swarm.peers.items())
                          if pid.startswith("Y")]
                seen["books"] = {id(p.book) for p in sybils}
                seen["rows"] = sorted(sybils[0].book._rows)
                seen["expected_rows"] = sorted(
                    swarm.columnar.row_of[p.id] for p in sybils)

            swarm.sim.schedule(2.0, look)

        run_swarm(**dict(SYBIL, setup=setup))
        assert len(seen["books"]) == 1
        assert len(seen["rows"]) == 3
        assert seen["rows"] == seen["expected_rows"]

    def test_replaced_book_is_picked_up_at_join(self):
        """A book swapped in after construction (the runner's partial
        pre-seeding) is the one the row references."""
        result = run_swarm(protocol="bittorrent", seed=4, leechers=6,
                           pieces=8, initial_piece_fraction=0.5,
                           max_time=5.0)
        swarm = result.swarm
        swarm.columnar.check_consistency()
        for pid, peer in swarm.peers.items():
            assert swarm.columnar.books[swarm.columnar.row_of[pid]] \
                is peer.book


class TestTrackerAnnounce:
    """Sampling indices into the sorted member list must draw
    identically to sampling the materialized "everyone but the
    requester" list."""

    def _reference_announce(self, members, peer_id, rng, list_size):
        others = [m for m in sorted(members) if m != peer_id]
        if len(others) <= list_size:
            rng.shuffle(others)
            return others
        return rng.sample(others, list_size)

    @pytest.mark.parametrize("population,list_size", [
        (10, 50),     # shuffle branch
        (200, 50),    # sample branch
        (2000, 50),   # selection-set sampling regime
    ])
    def test_announce_matches_reference(self, population, list_size):
        rng = Random(5)
        tracker = Tracker(rng, list_size=list_size)
        ids = [f"P{i:05d}" for i in range(population)]
        for pid in ids:
            tracker.join(pid)
        # A few departures so the sorted list has seen removals too.
        for pid in ids[::7][:10]:
            tracker.leave(pid)
        members = set(ids) - set(ids[::7][:10])
        for requester in (ids[1], ids[-1], "P-unregistered"):
            state = rng.getstate()
            got = tracker.announce(requester)
            rng.setstate(state)
            want = self._reference_announce(
                members, requester, rng, list_size)
            assert got == want

    def test_join_leave_keep_sorted_list_consistent(self):
        rng = Random(3)
        tracker = Tracker(rng)
        ids = [f"N{i}" for i in range(40)]
        order = list(ids)
        rng.shuffle(order)
        for pid in order:
            tracker.join(pid)
            tracker.join(pid)  # idempotent
        assert tracker._sorted == sorted(ids)
        for pid in order[:15]:
            tracker.leave(pid)
            tracker.leave(pid)  # idempotent
        assert tracker._sorted == sorted(set(ids) - set(order[:15]))
        assert tracker.member_count == len(tracker._sorted)
