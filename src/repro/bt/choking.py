"""Rate-based tit-for-tat choking (Sec. II-A).

A leecher unchokes the ``k`` interested neighbors that uploaded the
most to it over the last rechoke interval (k = 4), plus one optimistic
unchoke rotated every 30 seconds.  :class:`ContributionTracker` keeps
the per-interval byte counts; :class:`Choker` turns them into an
unchoke set.  PropShare reuses the tracker to weight its proportional
allocation, and FairTorrent's deficits live in their own ledger
(:class:`DeficitLedger`) since they never reset.
"""

from __future__ import annotations

from random import Random
from typing import Dict, Iterable, List, Optional, Set


class ContributionTracker:
    """Bytes received from each neighbor during the current interval."""

    def __init__(self):
        self._current: Dict[str, float] = {}
        self._last: Dict[str, float] = {}

    def record(self, neighbor_id: str, kb: float) -> None:
        """Record ``kb`` received from a neighbor now."""
        self._current[neighbor_id] = self._current.get(neighbor_id, 0) + kb

    def roll(self) -> None:
        """Close the interval: current counts become last-round counts."""
        self._last = self._current
        self._current = {}

    def last_round(self, neighbor_id: str) -> float:
        """KB received from the neighbor in the previous interval."""
        return self._last.get(neighbor_id, 0.0)

    def forget(self, neighbor_id: str) -> None:
        """Drop all state about a departed (or whitewashed) neighbor."""
        self._current.pop(neighbor_id, None)
        self._last.pop(neighbor_id, None)


class Choker:
    """Top-k-by-contribution unchoking with optimistic rotation."""

    def __init__(self, regular_slots: int, rng: Random):
        self.regular_slots = regular_slots
        self.rng = rng
        self.unchoked: Set[str] = set()
        self.optimistic: Optional[str] = None

    def rechoke(self, interested: Iterable[str],
                tracker: ContributionTracker) -> Set[str]:
        """Recompute the regular unchoke set.

        Top contributors first; remaining regular slots are filled with
        random interested neighbors (newcomers have zero contribution,
        so without the random fill a cold swarm would deadlock — real
        clients behave the same through the optimistic slot churn).
        """
        pool: List[str] = sorted(interested)
        contributors = [n for n in pool if tracker.last_round(n) > 0]
        contributors.sort(key=lambda n: (-tracker.last_round(n), n))
        chosen = contributors[:self.regular_slots]
        if len(chosen) < self.regular_slots:
            chosen_set = set(chosen)
            rest = [n for n in pool if n not in chosen_set]
            self.rng.shuffle(rest)
            chosen.extend(rest[:self.regular_slots - len(chosen)])
        self.unchoked = set(chosen)
        return self.unchoked

    def rotate_optimistic(self, interested: Iterable[str]) -> Optional[str]:
        """Pick a new optimistic unchoke among choked interested
        neighbors, regardless of upload history (Sec. II-A).

        The incumbent optimistic is excluded whenever another choked
        interested neighbor exists, so a rotation actually rotates:
        on small neighborhoods re-picking the incumbent forever would
        silently stall the 30 s optimistic churn.  With the incumbent
        as the only candidate it keeps the slot (dropping it would
        idle the slot for no benefit).
        """
        pool = sorted(n for n in interested
                      if n not in self.unchoked)
        if self.optimistic is not None and len(pool) > 1:
            pool = [n for n in pool if n != self.optimistic]
        self.optimistic = self.rng.choice(pool) if pool else None
        return self.optimistic

    def all_unchoked(self) -> Set[str]:
        """Regular plus optimistic unchokes."""
        result = set(self.unchoked)
        if self.optimistic is not None:
            result.add(self.optimistic)
        return result

    def forget(self, neighbor_id: str) -> None:
        """A neighbor departed."""
        self.unchoked.discard(neighbor_id)
        if self.optimistic == neighbor_id:
            self.optimistic = None


class DeficitLedger:
    """FairTorrent's per-neighbor deficits (Sec. V, [12]).

    ``deficit(n) = KB sent to n − KB received from n``.  FairTorrent
    serves the interested neighbor with the lowest deficit, achieving
    fairness without choking rounds.  Deficits persist for the
    lifetime of the (neighbor-id, peer) relationship — which is exactly
    what whitewashing resets (Sec. IV-C).
    """

    def __init__(self):
        self._sent: Dict[str, float] = {}
        self._received: Dict[str, float] = {}

    def on_sent(self, neighbor_id: str, kb: float) -> None:
        """Record an upload to the neighbor."""
        self._sent[neighbor_id] = self._sent.get(neighbor_id, 0) + kb

    def on_received(self, neighbor_id: str, kb: float) -> None:
        """Record a download from the neighbor."""
        self._received[neighbor_id] = (
            self._received.get(neighbor_id, 0) + kb)

    def deficit(self, neighbor_id: str) -> float:
        """Current deficit for the neighbor (0 for strangers)."""
        return (self._sent.get(neighbor_id, 0.0)
                - self._received.get(neighbor_id, 0.0))

    def lowest_deficit(self, neighbor_ids: Iterable[str]) -> List[str]:
        """Neighbors tied at the minimum deficit."""
        ids = sorted(neighbor_ids)
        if not ids:
            return []
        low = min(self.deficit(n) for n in ids)
        return [n for n in ids if self.deficit(n) == low]

    def forget(self, neighbor_id: str) -> None:
        """Drop state for a departed (or whitewashed) neighbor."""
        self._sent.pop(neighbor_id, None)
        self._received.pop(neighbor_id, None)
