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

Replies name strangers only: ``announce(peer_id, known)`` drops the
members the requester is already connected to.  In a swarm no larger
than the refill threshold every refill is all-known (each departure
makes every neighbor re-announce, and every reply used to be thrown
away), so that case costs the shuffle's draws and nothing else
(docs/PERF.md, "Churn storms").
"""

from __future__ import annotations

from bisect import bisect_left, insort
from random import Random
from typing import AbstractSet, List, Optional, Set

from repro.sim.randomness import skip_shuffle


class Tracker:
    """Swarm membership service."""

    def __init__(self, rng: Random, list_size: int = 50):
        if list_size < 1:
            raise ValueError("list_size must be >= 1")
        self.rng = rng
        self.list_size = list_size
        self._member_ids: Set[str] = set()
        #: The members in sorted order, maintained incrementally.
        self._sorted: List[str] = []
        self.announce_count = 0

    def join(self, peer_id: str) -> None:
        """Register a peer as a swarm member."""
        if peer_id not in self._member_ids:
            self._member_ids.add(peer_id)
            insort(self._sorted, peer_id)

    def leave(self, peer_id: str) -> None:
        """Deregister a departing peer; idempotent."""
        if peer_id in self._member_ids:
            self._member_ids.discard(peer_id)
            idx = bisect_left(self._sorted, peer_id)
            del self._sorted[idx]

    def announce(self, peer_id: str,
                 known: AbstractSet[str] = frozenset()) -> List[str]:
        """Draw up to ``list_size`` random members other than the
        requester (which need not be registered yet) and return the
        strangers among them: the draw minus ``known``, the
        requester's current neighbors, in draw order.

        A requester that knows every other member gets ``[]`` for the
        price of the shuffle's draws alone (:func:`skip_shuffle`): the
        permutation would be filtered away whole, but its draws are
        part of the seeded trace.  That test is an exact set
        comparison, never a size heuristic; every other ``known``
        takes the general path.
        """
        self.announce_count += 1
        # Sorted so results depend only on the seeded RNG, not on
        # per-process string hashing.
        members = self._sorted
        idx = bisect_left(members, peer_id)
        skip: Optional[int] = (
            idx if idx < len(members) and members[idx] == peer_id else None)
        n = len(members) - (0 if skip is None else 1)
        if n <= self.list_size:
            if len(known) == n and peer_id not in known \
                    and known <= self._member_ids:
                skip_shuffle(self.rng, n)
                return []
            if skip is None:
                others = list(members)
            else:
                others = members[:skip] + members[skip + 1:]
            self.rng.shuffle(others)
        else:
            picks = self.rng.sample(range(n), self.list_size)
            if skip is None:
                others = [members[i] for i in picks]
            else:
                # Index i of the list without the requester is i or
                # i + 1 here.
                others = [members[i + (i >= skip)] for i in picks]
        if known:
            return [other for other in others if other not in known]
        return others

    @property
    def member_count(self) -> int:
        """Current number of registered members."""
        return len(self._member_ids)

    def is_member(self, peer_id: str) -> bool:
        """True if the peer is currently registered."""
        return peer_id in self._member_ids
