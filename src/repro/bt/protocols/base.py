"""Shared protocol scaffolding: the baseline seeder and leecher base.

The four baseline protocols differ only in *whom* a peer serves next;
everything else (transfer mechanics, piece completion, neighbor
management) lives in :class:`repro.bt.peer.Peer`.  This module adds
the pieces they share: a seeder that altruistically rotates through
interested neighbors, and a leecher base with the receiver-side LRF
upload plan builder.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.bt.peer import Peer, UploadPlan
from repro.bt.torrent import full_book

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.swarm import Swarm


class BaselineSeeder(Peer):
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

    def serveable_neighbors(self) -> List[str]:
        """Interested neighbors with no in-flight piece from us."""
        return sorted(
            nid for nid in self.interested_neighbors()
            if not self.uploading_to(nid))

    def plan_for(self, receiver_id: str) -> Optional[UploadPlan]:
        """Build a plan letting the receiver pick its piece via LRF."""
        receiver = self.swarm.find_peer(receiver_id)
        if receiver is None or not receiver.active:
            return None
        piece = receiver.choose_piece_from(self)
        if piece is None:
            return None
        return UploadPlan(receiver_id=receiver_id, piece=piece)


class BaselineLeecher(Peer):
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

    def plan_for(self, receiver_id: str) -> Optional[UploadPlan]:
        """Receiver-side LRF plan (same as the seeder's)."""
        receiver = self.swarm.find_peer(receiver_id)
        if receiver is None or not receiver.active:
            return None
        piece = receiver.choose_piece_from(self)
        if piece is None:
            return None
        return UploadPlan(receiver_id=receiver_id, piece=piece)

    def serveable(self, neighbor_ids) -> List[str]:
        """Filter to active, interested-in-us, not-already-being-served
        neighbors."""
        peers = self.swarm.peers
        mine = self.book.cmask
        in_flight = self._in_flight_to
        return sorted(
            nid for nid in neighbor_ids
            if nid not in in_flight
            and (peer := peers.get(nid)) is not None and peer.active
            and peer.book.wmask & mine)
