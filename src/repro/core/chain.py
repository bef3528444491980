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
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.transaction import Transaction


class ChainPhase(enum.Enum):
    """Where in its lifecycle a chain currently is."""

    INITIATION = "initiation"
    CONTINUATION = "continuation"
    TERMINATED = "terminated"


@dataclass
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

    Tracks every chain ever created, supports sampling the number of
    active chains over time (Fig. 10) and cumulative initiation counts
    by initiator type (Fig. 11(a)), and the fraction of chains created
    by opportunistic seeding (Fig. 11(b)).
    """

    def __init__(self):
        self._chains: Dict[int, Chain] = {}
        self._next_id = 0
        self._active = 0
        self.created_by_seeder = 0
        self.created_by_leechers = 0
        self.samples: List[tuple] = []  # (time, active, total)

    def create(self, initiator_id: str, seeded_by_seeder: bool,
               now: float) -> Chain:
        """Open a new chain."""
        chain = Chain(chain_id=self._next_id, initiator_id=initiator_id,
                      seeded_by_seeder=seeded_by_seeder, created_at=now)
        self._chains[chain.chain_id] = chain
        self._next_id += 1
        self._active += 1
        if seeded_by_seeder:
            self.created_by_seeder += 1
        else:
            self.created_by_leechers += 1
        return chain

    def get(self, chain_id: int) -> Chain:
        """Look up a chain by id."""
        return self._chains[chain_id]

    def terminate(self, chain_id: int, now: float) -> None:
        """Terminate a chain (idempotent)."""
        chain = self._chains[chain_id]
        if chain.active:
            chain.terminate(now)
            self._active -= 1

    def revive(self, chain_id: int) -> None:
        """Undo a termination: a presumed-dead chain progressed after
        all (e.g. the stall watchdog misjudged a slow requestor)."""
        chain = self._chains[chain_id]
        if not chain.active:
            chain.terminated_at = None
            self._active += 1

    @property
    def active_count(self) -> int:
        """Number of currently active chains."""
        return self._active

    @property
    def total_count(self) -> int:
        """Number of chains ever created."""
        return len(self._chains)

    @property
    def opportunistic_fraction(self) -> float:
        """Fraction of all chains initiated by leechers (Fig. 11(b))."""
        if not self._chains:
            return 0.0
        return self.created_by_leechers / len(self._chains)

    def sample(self, now: float) -> None:
        """Record (time, active, total) for time-series plots."""
        self.samples.append((now, self._active, self.total_count))

    def chain_lengths(self) -> List[int]:
        """Lengths of all chains (for distribution statistics)."""
        return [c.length for c in self._chains.values()]

    def all_chains(self) -> List[Chain]:
        """All chains ever created, in creation order."""
        return [self._chains[i] for i in sorted(self._chains)]
