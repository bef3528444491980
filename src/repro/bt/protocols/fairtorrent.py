"""FairTorrent (Sherman et al., CoNEXT 2009).

FairTorrent replaces choking rounds with a deficit counter per
neighbor: ``deficit = bytes sent − bytes received``.  Whenever a slot
frees, the leecher serves the interested neighbor with the *lowest*
deficit, repaying debts first.  This yields strong fairness among
compliant peers, but, as the paper shows (Sec. IV-C), the first
"free" exchange with every stranger makes it whitewashable: a
free-rider that resets its identity after each received piece is a
perpetual stranger with deficit zero.

FairTorrent's basic exchange unit is one 64 KB piece — the swarm
config used for FairTorrent/T-Chain experiments sets the piece size
accordingly (Sec. IV-A).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.bt.choking import DeficitLedger
from repro.bt.peer import UploadPlan
from repro.bt.protocols.base import BaselineLeecher

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.swarm import Swarm


class FairTorrentLeecher(BaselineLeecher):
    """A compliant FairTorrent leecher."""

    def __init__(self, swarm: "Swarm", peer_id: Optional[str] = None,
                 capacity_kbps: Optional[float] = None):
        super().__init__(swarm, peer_id, capacity_kbps,
                         n_slots=swarm.config.upload_slots)
        self.deficits = DeficitLedger()

    def next_upload(self) -> Optional[UploadPlan]:
        candidates = self.serveable_neighbors()
        if not candidates:
            return None
        # Lowest-deficit-first, tie broken uniformly.
        pool = self.deficits.lowest_deficit(candidates)
        order = [self.sim.rng.choice(pool)]
        order.extend(n for n in candidates if n != order[0])
        for receiver_id in order:
            plan = self.plan_for(receiver_id)
            if plan is not None:
                return plan
        return None

    def on_upload_finished(self, plan: UploadPlan) -> None:
        self.deficits.on_sent(plan.receiver_id,
                              self.swarm.torrent.piece_size_kb)

    def on_payload(self, payload, uploader_id: str) -> None:
        self.deficits.on_received(uploader_id,
                                  self.swarm.torrent.piece_size_kb)
        super().on_payload(payload, uploader_id)
        self.pump()

    def on_neighbor_disconnected(self, neighbor_id: str) -> None:
        # Deficits are forgotten with the connection — the property
        # whitewashing free-riders exploit (Sec. IV-C).
        self.deficits.forget(neighbor_id)
        super().on_neighbor_disconnected(neighbor_id)
