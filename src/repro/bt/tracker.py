"""The tracker: random membership lists.

Mirrors the BitTorrent tracker behaviour the paper assumes
(Sec. II-A): a joining peer announces itself and receives up to 50
randomly selected current members; peers re-announce whenever their
neighbor count drops below 30.  Free-riders mounting the large-view
exploit (Sec. IV-C) re-announce every rechoke period to harvest fresh
victims — the tracker itself cannot tell and serves them normally.

Scale note: membership is kept as an *incrementally sorted* list
(``insort``/bisect per join/leave) instead of re-sorting the whole
set on every announce, and ``rng.sample`` draws *indices* into
"everyone but the requester" rather than sampling an O(n) copy of it.
Both changes are trace-neutral: ``Random.sample`` reads its population
only through ``len()`` and ``[j]``, so sampling ``range(n)`` and
mapping the indices consumes the identical draw sequence.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from random import Random
from typing import List, Optional, Set


class Tracker:
    """Swarm membership service."""

    def __init__(self, rng: Random, list_size: int = 50):
        if list_size < 1:
            raise ValueError("list_size must be >= 1")
        self.rng = rng
        self.list_size = list_size
        self._members: Set[str] = set()
        #: The members in sorted order, maintained incrementally.
        self._sorted: List[str] = []
        self.announce_count = 0

    def join(self, peer_id: str) -> None:
        """Register a peer as a swarm member."""
        if peer_id not in self._members:
            self._members.add(peer_id)
            insort(self._sorted, peer_id)

    def leave(self, peer_id: str) -> None:
        """Deregister a departing peer; idempotent."""
        if peer_id in self._members:
            self._members.discard(peer_id)
            idx = bisect_left(self._sorted, peer_id)
            del self._sorted[idx]

    def announce(self, peer_id: str) -> List[str]:
        """Return up to ``list_size`` random members other than the
        requester (the requester need not be registered yet)."""
        self.announce_count += 1
        # Sorted so results depend only on the seeded RNG, not on
        # per-process string hashing.
        members = self._sorted
        idx = bisect_left(members, peer_id)
        skip: Optional[int] = (
            idx if idx < len(members) and members[idx] == peer_id else None)
        n = len(members) - (0 if skip is None else 1)
        if n <= self.list_size:
            if skip is None:
                others = list(members)
            else:
                others = members[:skip] + members[skip + 1:]
            self.rng.shuffle(others)
            return others
        picks = self.rng.sample(range(n), self.list_size)
        if skip is None:
            return [members[i] for i in picks]
        # Index i of the list without the requester is i or i + 1 here.
        return [members[i + (i >= skip)] for i in picks]

    @property
    def member_count(self) -> int:
        """Current number of registered members."""
        return len(self._members)

    def is_member(self, peer_id: str) -> bool:
        """True if the peer is currently registered."""
        return peer_id in self._members
