"""PropShare (Levin et al., SIGCOMM 2008).

PropShare allocates upload bandwidth to neighbors *proportionally* to
what they contributed in the previous round, instead of BitTorrent's
equal-split top-4.  A fixed share (20 %, matching BitTorrent's
optimistic allocation — the quantity the paper calls "pre-allocated
for bootstrapping") goes to randomly chosen neighbors so newcomers can
enter the economy.

In the slot model, proportional allocation is realized by sampling:
each time a slot frees, the receiver is drawn with probability
proportional to its last-round contribution (with probability 0.8),
or uniformly at random (with probability 0.2).  Over a round this
reproduces PropShare's bandwidth split in expectation.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.bt.choking import ContributionTracker
from repro.bt.config import RECHOKE_INTERVAL_S
from repro.bt.peer import UploadPlan
from repro.bt.protocols.base import BaselineLeecher
from repro.sim.events import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.swarm import Swarm

#: Fraction of bandwidth spent on random (bootstrap) allocation.
RANDOM_SHARE = 0.2


class PropShareLeecher(BaselineLeecher):
    """A compliant PropShare leecher."""

    def __init__(self, swarm: "Swarm", peer_id: Optional[str] = None,
                 capacity_kbps: Optional[float] = None):
        super().__init__(swarm, peer_id, capacity_kbps)
        self.contributions = ContributionTracker()
        self._round_task: Optional[PeriodicTask] = None

    def on_join(self) -> None:
        self._round_task = PeriodicTask(
            self.sim, RECHOKE_INTERVAL_S, self._new_round)

    def stop_timers(self) -> None:
        if self._round_task is not None:
            self._round_task.stop()
        super().stop_timers()

    def _new_round(self) -> None:
        self.contributions.roll()
        self.pump()

    # -- serving ---------------------------------------------------------
    def next_upload(self) -> Optional[UploadPlan]:
        candidates = self.serveable_neighbors()
        if not candidates:
            return None
        receiver_id = self._draw_receiver(candidates)
        plan = self.plan_for(receiver_id)
        if plan is not None:
            return plan
        # The drawn neighbor had nothing to take; fall back over the
        # rest so a single unlucky draw does not idle the slot.
        for other in candidates:
            if other != receiver_id:
                plan = self.plan_for(other)
                if plan is not None:
                    return plan
        return None

    def _draw_receiver(self, candidates: List[str]) -> str:
        rng = self.sim.rng
        weights = [self.contributions.last_round(n) for n in candidates]
        total = sum(weights)
        if total > 0 and rng.random() >= RANDOM_SHARE:
            return rng.choices(candidates, weights=weights, k=1)[0]
        return rng.choice(candidates)

    # -- receiving -------------------------------------------------------
    def on_payload(self, payload, uploader_id: str) -> None:
        self.contributions.record(uploader_id,
                                  self.swarm.torrent.piece_size_kb)
        super().on_payload(payload, uploader_id)
        self.pump()

    def on_neighbor_disconnected(self, neighbor_id: str) -> None:
        self.contributions.forget(neighbor_id)
        super().on_neighbor_disconnected(neighbor_id)
