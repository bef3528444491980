"""Shared protocol scaffolding: the baseline seeder and leecher base.

The four baseline protocols differ only in *whom* a peer serves next;
everything else (transfer mechanics, piece completion, neighbor
management) lives in :class:`repro.bt.peer.Peer`.  This module adds
the pieces they share: the receiver-side LRF upload plan builder, a
seeder that altruistically rotates through interested neighbors, and
the leecher base.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.bt.peer import Peer, UploadPlan
from repro.bt.torrent import full_book

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.swarm import Swarm


class BaselinePeer(Peer):
    """What the baseline seeder and leechers share: the receiver-side
    LRF plan."""

    def plan_for(self, receiver_id: str) -> Optional[UploadPlan]:
        """Build a plan letting the receiver pick its piece via LRF."""
        receiver = self.swarm.find_peer(receiver_id)
        if receiver is None or not receiver.active:
            return None
        piece = receiver.choose_piece_from(self)
        if piece is None:
            return None
        return UploadPlan(receiver_id=receiver_id, piece=piece)


class BaselineSeeder(BaselinePeer):
    """An altruistic seeder for the baseline protocols.

    Uploads continuously, choosing a uniformly random interested
    neighbor for each free slot (at most one in-flight piece per
    receiver).  Random rotation is the standard simulator treatment of
    seeder unchoking; it also reproduces the exploitability the paper
    observes — seeders cannot tell free-riders apart (Sec. V).
    """

    kind = "seeder"

    def __init__(self, swarm: "Swarm", peer_id: Optional[str] = None,
                 capacity_kbps: Optional[float] = None,
                 n_slots: Optional[int] = None):
        super().__init__(
            swarm,
            peer_id if peer_id is not None else swarm.new_peer_id("S"),
            capacity_kbps if capacity_kbps is not None
            else swarm.config.seeder_capacity_kbps,
            n_slots if n_slots is not None else swarm.config.seeder_slots,
            book=full_book(swarm.torrent))

    def next_upload(self) -> Optional[UploadPlan]:
        candidates = self.serveable_neighbors()
        if not candidates:
            return None
        receiver_id = self.sim.rng.choice(candidates)
        return self.plan_for(receiver_id)


class BaselineLeecher(BaselinePeer):
    """Common leecher machinery for the baseline protocols."""

    kind = "leecher"

    def __init__(self, swarm: "Swarm", peer_id: Optional[str] = None,
                 capacity_kbps: Optional[float] = None,
                 n_slots: Optional[int] = None):
        config = swarm.config
        if capacity_kbps is None:
            capacity_kbps = swarm.sim.rng.choice(
                list(config.leecher_capacities_kbps))
        if n_slots is None:
            n_slots = config.total_upload_slots
        super().__init__(
            swarm,
            peer_id if peer_id is not None else swarm.new_peer_id("L"),
            capacity_kbps, n_slots)
