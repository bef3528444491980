"""Chains of reciprocal transactions (Sec. II-B).

A chain is the sequence ``(t_1, t_2, ...)`` where each transaction's
completion begins the next: the requestor of ``t_j`` becomes the donor
of ``t_{j+1}`` and the payee of ``t_j`` becomes its requestor.  Chains
are *initiated* by seeders (initiation phase) or by leechers via
opportunistic seeding (Sec. II-D3), *continue* while donors can find
payees, and *terminate* with an unencrypted upload when no payee exists
(Fig. 1(c)).

:class:`ChainRegistry` provides the bookkeeping behind the paper's
chain-characteristics experiments (Figs. 10 and 11): active-chain
counts over time and cumulative initiation counts split by initiator
type.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.transaction import Transaction


#: ``ChainRegistry._ended_at`` of a chain that has not ended
_LIVE = float("nan")


class ChainPhase(enum.Enum):
    """Where in its lifecycle a chain currently is."""

    INITIATION = "initiation"
    CONTINUATION = "continuation"
    TERMINATED = "terminated"


@dataclass(slots=True)
class Chain:
    """One pay-it-forward chain.

    Attributes
    ----------
    chain_id:
        Unique id within a swarm.
    initiator_id:
        Peer that started the chain.
    seeded_by_seeder:
        True for initiation-phase chains started by a seeder; False for
        opportunistic seeding by a leecher.
    created_at / terminated_at:
        Simulation timestamps.
    length:
        Number of transactions so far (the chain keeps no list).
    """

    chain_id: int
    initiator_id: str
    seeded_by_seeder: bool
    created_at: float
    terminated_at: Optional[float] = None
    length: int = 0

    @property
    def phase(self) -> ChainPhase:
        """Current phase, derived from the transaction count."""
        if self.terminated_at is not None:
            return ChainPhase.TERMINATED
        if self.length <= 1:
            return ChainPhase.INITIATION
        return ChainPhase.CONTINUATION

    @property
    def active(self) -> bool:
        """True until the chain terminates."""
        return self.terminated_at is None

    def append(self, transaction: Transaction) -> None:
        """Record the next transaction of the chain."""
        if not self.active:
            raise RuntimeError(
                f"chain {self.chain_id} already terminated")
        transaction.index_in_chain = self.length
        self.length += 1

    def terminate(self, now: float) -> None:
        """Mark the chain terminated (idempotent)."""
        if self.terminated_at is None:
            self.terminated_at = now


class ChainRegistry:
    """Swarm-wide chain bookkeeping and statistics.

    Counts every chain ever created, supports sampling the number of
    active chains over time (Fig. 10) and cumulative initiation counts
    by initiator type (Fig. 11(a)), and the fraction of chains created
    by opportunistic seeding (Fig. 11(b)).

    Only live chains are :class:`Chain` objects.  What an ended chain
    leaves behind is one slot per chain id in compact arrays, in
    creation order: its initiator, creation and end times and final
    length — enough for the statistics (:meth:`chain_lengths`,
    :meth:`lifetimes`) and to :meth:`revive` it.
    """

    def __init__(self):
        self._live: Dict[int, Chain] = {}
        self._initiators: List[str] = []
        self._by_seeder = bytearray()
        self._created_at = array("d")
        #: NaN while the chain is live
        self._ended_at = array("d")
        #: filled in when the chain ends
        self._lengths = array("Q")
        self.created_by_seeder = 0
        self.created_by_leechers = 0
        self.samples: List[tuple] = []  # (time, active, total)

    def create(self, initiator_id: str, seeded_by_seeder: bool,
               now: float) -> Chain:
        """Open a new chain."""
        chain = Chain(chain_id=len(self._created_at),
                      initiator_id=initiator_id,
                      seeded_by_seeder=seeded_by_seeder, created_at=now)
        self._live[chain.chain_id] = chain
        self._initiators.append(initiator_id)
        self._by_seeder.append(seeded_by_seeder)
        self._created_at.append(now)
        self._ended_at.append(_LIVE)
        self._lengths.append(0)
        if seeded_by_seeder:
            self.created_by_seeder += 1
        else:
            self.created_by_leechers += 1
        return chain

    def get(self, chain_id: int) -> Chain:
        """Look up a chain by id: the live chain, or a terminated
        record of an ended one rebuilt from its slots (a snapshot:
        only :meth:`revive` brings the chain itself back)."""
        chain = self._live.get(chain_id)
        if chain is None:
            chain = self._rebuild(chain_id, self._ended_at[chain_id])
        return chain

    def _rebuild(self, chain_id: int,
                 terminated_at: Optional[float]) -> Chain:
        return Chain(chain_id=chain_id,
                     initiator_id=self._initiators[chain_id],
                     seeded_by_seeder=bool(self._by_seeder[chain_id]),
                     created_at=self._created_at[chain_id],
                     terminated_at=terminated_at,
                     length=self._lengths[chain_id])

    def is_active(self, chain_id: int) -> bool:
        """True until the chain terminates (or again once revived)."""
        return chain_id in self._live

    def terminate(self, chain_id: int, now: float) -> None:
        """Terminate a chain (idempotent)."""
        chain = self._live.pop(chain_id, None)
        if chain is not None:
            chain.terminate(now)
            self._ended_at[chain_id] = now
            self._lengths[chain_id] = chain.length

    def revive(self, chain_id: int) -> Chain:
        """The live chain ``chain_id``, its termination undone if it
        had ended: a presumed-dead chain progressed after all (e.g.
        the stall watchdog misjudged a slow requestor)."""
        chain = self._live.get(chain_id)
        if chain is None:
            chain = self._rebuild(chain_id, None)
            self._live[chain_id] = chain
            self._ended_at[chain_id] = _LIVE
        return chain

    @property
    def active_count(self) -> int:
        """Number of currently active chains."""
        return len(self._live)

    @property
    def total_count(self) -> int:
        """Number of chains ever created."""
        return len(self._created_at)

    @property
    def opportunistic_fraction(self) -> float:
        """Fraction of all chains initiated by leechers (Fig. 11(b))."""
        if not self.total_count:
            return 0.0
        return self.created_by_leechers / self.total_count

    def sample(self, now: float) -> None:
        """Record (time, active, total) for time-series plots."""
        self.samples.append((now, len(self._live), self.total_count))

    def chain_lengths(self) -> List[int]:
        """Lengths of all chains, in creation order."""
        live = self._live
        return [live[i].length if i in live else length
                for i, length in enumerate(self._lengths)]

    def lifetimes(self) -> List[float]:
        """Lifetimes of the ended chains, in creation order."""
        return [ended - created for created, ended
                in zip(self._created_at, self._ended_at)
                if ended == ended]  # NaN marks a live chain

    def all_chains(self) -> List[Chain]:
        """All chains ever created, in creation order (ended ones
        as :meth:`get` rebuilds them)."""
        return [self.get(i) for i in range(self.total_count)]
