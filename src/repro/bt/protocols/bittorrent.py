"""Original BitTorrent: rate-based tit-for-tat + optimistic unchoking.

Implements the reference behaviour of Sec. II-A: every 10 seconds a
leecher unchokes the 4 interested neighbors that uploaded the most to
it over the previous interval; every 30 seconds it rotates one
optimistic unchoke to a random choked interested neighbor.  Roughly
20 % of upload bandwidth therefore goes to peers regardless of their
history — the altruism free-riders exploit (Sec. IV-C).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.bt.choking import Choker, ContributionTracker
from repro.bt.peer import UploadPlan
from repro.bt.protocols.base import BaselineLeecher
from repro.sim.events import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.swarm import Swarm


class BitTorrentLeecher(BaselineLeecher):
    """A compliant original-BitTorrent leecher."""

    def __init__(self, swarm: "Swarm", peer_id: Optional[str] = None,
                 capacity_kbps: Optional[float] = None):
        super().__init__(swarm, peer_id, capacity_kbps,
                         n_slots=swarm.config.total_upload_slots)
        self.contributions = ContributionTracker()
        self.choker = Choker(swarm.config.upload_slots, self.sim.rng)
        self._rechoke_task: Optional[PeriodicTask] = None
        self._optimistic_task: Optional[PeriodicTask] = None
        self._rechoke_round = 0

    # -- lifecycle -------------------------------------------------------
    def on_join(self) -> None:
        config = self.swarm.config
        self._rechoke()
        self._rechoke_task = PeriodicTask(
            self.sim, config.rechoke_interval_s, self._rechoke)
        self._optimistic_task = PeriodicTask(
            self.sim, config.optimistic_interval_s, self._rotate_optimistic,
            first_delay=0.0)

    def on_leave(self) -> None:
        if self._rechoke_task is not None:
            self._rechoke_task.stop()
        if self._optimistic_task is not None:
            self._optimistic_task.stop()

    # -- choking ---------------------------------------------------------
    def _rechoke(self) -> None:
        self.contributions.roll()
        self.choker.rechoke(self.interested_neighbors(),
                            self.contributions)
        self.pump()

    def _rotate_optimistic(self) -> None:
        self.choker.rotate_optimistic(self.interested_neighbors())
        self.pump()

    # -- serving ---------------------------------------------------------
    def next_upload(self) -> Optional[UploadPlan]:
        unchoked = self.choker.all_unchoked()
        for receiver_id in self.serveable_neighbors():
            if receiver_id in unchoked:
                plan = self.plan_for(receiver_id)
                if plan is not None:
                    return plan
        return None

    # -- receiving -------------------------------------------------------
    def on_payload(self, payload, uploader_id: str) -> None:
        self.contributions.record(uploader_id,
                                  self.swarm.torrent.piece_size_kb)
        super().on_payload(payload, uploader_id)
        self.pump()

    def on_neighbor_disconnected(self, neighbor_id: str) -> None:
        self.choker.forget(neighbor_id)
        self.contributions.forget(neighbor_id)
        super().on_neighbor_disconnected(neighbor_id)
