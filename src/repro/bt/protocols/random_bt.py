"""Random BitTorrent: optimistic unchoking only.

The Sec. IV-I baseline in which *all* bandwidth (leechers' and
seeders') is spent on optimistic unchoking — i.e. every upload goes to
a uniformly random interested neighbor with no incentive logic at all.
It approximates pure altruistic dissemination and is competitive only
for very small files, where reciprocation opportunities are scarce
anyway (Fig. 13).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.bt.peer import UploadPlan
from repro.bt.protocols.base import BaselineLeecher

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.swarm import Swarm


class RandomBTLeecher(BaselineLeecher):
    """A leecher that uploads to random interested neighbors."""

    def __init__(self, swarm: "Swarm", peer_id: Optional[str] = None,
                 capacity_kbps: Optional[float] = None):
        super().__init__(swarm, peer_id, capacity_kbps,
                         n_slots=swarm.config.total_upload_slots)

    def next_upload(self) -> Optional[UploadPlan]:
        candidates = self.serveable_neighbors()
        self.sim.rng.shuffle(candidates)
        for receiver_id in candidates:
            plan = self.plan_for(receiver_id)
            if plan is not None:
                return plan
        return None

    def on_payload(self, payload, uploader_id: str) -> None:
        super().on_payload(payload, uploader_id)
        self.pump()
