"""Unit tests for the base peer machinery: join/leave, transfers,
cancellation, whitewash mechanics and the periodic re-scan."""

import pytest

from repro.bt.config import SwarmConfig
from repro.bt.peer import Peer, UploadPlan
from repro.bt.swarm import Swarm


class ScriptedPeer(Peer):
    """A peer whose next_upload pops from a scripted plan queue."""

    def __init__(self, swarm, peer_id, capacity=800.0, slots=2):
        super().__init__(swarm, peer_id, capacity, slots)
        self.plans = []
        self.received = []
        self.cancelled_plans = []

    def next_upload(self):
        return self.plans.pop(0) if self.plans else None

    def on_payload(self, payload, uploader_id):
        self.received.append((payload, uploader_id))
        self.complete_piece(int(payload))

    def on_upload_cancelled(self, plan):
        self.cancelled_plans.append(plan)


def make_swarm(n_pieces=8, seed=1):
    return Swarm(SwarmConfig(n_pieces=n_pieces, seed=seed))


def joined(swarm, pid, **kwargs):
    peer = ScriptedPeer(swarm, pid, **kwargs)
    peer.join()
    return peer


class TestJoinLeave:
    def test_join_registers_everywhere(self):
        swarm = make_swarm()
        peer = joined(swarm, "A")
        assert swarm.find_peer("A") is peer
        assert swarm.tracker.is_member("A")
        assert "A" in swarm.columnar
        assert swarm.active_leechers == 1

    def test_double_join_rejected(self):
        swarm = make_swarm()
        peer = joined(swarm, "A")
        with pytest.raises(RuntimeError):
            peer.join()

    def test_leave_cleans_up_and_records_metrics(self):
        swarm = make_swarm()
        peer = joined(swarm, "A")
        peer.leave()
        assert swarm.find_peer("A") is None
        assert not swarm.tracker.is_member("A")
        assert swarm.active_leechers == 0
        assert any(r.peer_id == "A" for r in swarm.metrics.records)

    def test_leave_is_idempotent(self):
        swarm = make_swarm()
        peer = joined(swarm, "A")
        peer.leave()
        peer.leave()
        assert sum(1 for r in swarm.metrics.records
                   if r.peer_id == "A") == 1

    def test_join_connects_to_existing_members(self):
        swarm = make_swarm()
        joined(swarm, "A")
        b = joined(swarm, "B")
        assert swarm.columnar.are_neighbors("A", "B")

    def test_rescan_task_stops_on_leave(self):
        swarm = make_swarm()
        peer = joined(swarm, "A")
        task = peer._rescan_task
        assert task.running
        peer.leave()
        assert not task.running


class TestTransfers:
    def test_upload_delivers_payload_and_accounts(self):
        swarm = make_swarm()
        a = joined(swarm, "A")
        b = joined(swarm, "B")
        a.book.add_completed(3)
        a.plans.append(UploadPlan(receiver_id="B", piece=3))
        a.pump()
        assert b.book.is_expected(3)
        swarm.sim.run(until=100.0)
        assert b.received == [(3, "A")]
        assert b.book.has(3)
        assert a.pieces_uploaded == 1
        assert b.pieces_downloaded == 1
        assert a.kb_uploaded == swarm.torrent.piece_size_kb

    def test_receiver_leaving_cancels_inflight(self):
        swarm = make_swarm()
        a = joined(swarm, "A")
        b = joined(swarm, "B")
        a.book.add_completed(3)
        a.plans.append(UploadPlan(receiver_id="B", piece=3))
        a.pump()
        assert a.uploading_to("B")
        b.leave()
        assert not a.uploading_to("B")
        assert len(a.cancelled_plans) == 1
        assert a.uplink.idle_slots == a.uplink.n_slots
        swarm.sim.run(until=100.0)
        assert b.received == []

    def test_plan_to_missing_receiver_fails(self):
        swarm = make_swarm()
        a = joined(swarm, "A")
        a.book.add_completed(1)
        assert not a.start_upload(UploadPlan(receiver_id="ghost",
                                             piece=1))

    def test_zero_capacity_peer_never_pumps(self):
        swarm = make_swarm()
        a = joined(swarm, "A", capacity=0.0)
        a.book.add_completed(1)
        a.plans.append(UploadPlan(receiver_id="A", piece=1))
        a.pump()
        assert a.plans  # never consumed

    def test_uploader_leaving_unexpects_pieces_at_receiver(self):
        swarm = make_swarm()
        a = joined(swarm, "A")
        b = joined(swarm, "B")
        a.book.add_completed(3)
        a.plans.append(UploadPlan(receiver_id="B", piece=3))
        a.pump()
        a.leave()
        assert not b.book.is_expected(3)
        assert 3 in b.book.wanted()


class TestWhitewashMechanics:
    def test_whitewash_preserves_counters_and_pieces(self):
        swarm = make_swarm()
        a = joined(swarm, "A")
        a.book.add_completed(1)
        a.kb_downloaded = 512.0
        old_join = a.join_time
        new_id = a.whitewash()
        assert new_id != "A"
        assert a.active
        assert a.book.has(1)
        assert a.kb_downloaded == 512.0
        assert a.join_time == old_join
        assert swarm.find_peer(new_id) is a
        assert swarm.find_peer("A") is None

    def test_whitewash_drops_inflight_transfers(self):
        swarm = make_swarm()
        a = joined(swarm, "A")
        b = joined(swarm, "B")
        a.book.add_completed(3)
        a.plans.append(UploadPlan(receiver_id="B", piece=3))
        a.pump()
        b.whitewash()
        assert not a.uploading_to("B")
        assert not b.book.is_expected(3)

    def test_whitewash_inactive_is_noop(self):
        swarm = make_swarm()
        a = joined(swarm, "A")
        a.leave()
        assert a.whitewash() == a.id

    def test_no_metrics_record_for_whitewash(self):
        swarm = make_swarm()
        a = joined(swarm, "A")
        a.whitewash()
        assert not swarm.metrics.records


class TestInterestViews:
    def test_interested_neighbors(self):
        swarm = make_swarm()
        a = joined(swarm, "A")
        b = joined(swarm, "B")
        c = joined(swarm, "C")
        a.book.add_completed(0)
        for piece in range(swarm.torrent.n_pieces):
            c.book.add_completed(piece)
        assert a.interested_neighbors() == [b.id]

    def test_is_interested_in(self):
        swarm = make_swarm()
        a = joined(swarm, "A")
        b = joined(swarm, "B")
        b.book.add_completed(5)
        assert a.is_interested_in(b)
        a.book.add_completed(5)
        b_only = b.book.completed - a.book.completed
        assert not b_only
        assert not a.is_interested_in(b)
