"""Transactions: the unit step of a T-Chain.

A transaction ``t_j`` has a donor ``D_j``, a requestor ``R_j`` and a
payee ``P_j`` (Table I).  The donor uploads an encrypted piece to the
requestor; the requestor reciprocates by uploading to the payee; the
payee reports to the donor; the donor releases the key.  The state
machine below tracks exactly that lifecycle:

::

    CREATED --upload done--> DELIVERED --requestor uploads to payee-->
    RECIPROCATED --payee report--> REPORTED --key release--> COMPLETED

Terminating transactions (unencrypted upload, Fig. 1(c)) jump straight
from DELIVERED to COMPLETED.  ``ABORTED`` covers unrecoverable peer
departures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.crypto import Key, SealedPiece


class TransactionState(enum.Enum):
    """Lifecycle states of a transaction (see module docstring)."""

    CREATED = "created"
    DELIVERED = "delivered"
    RECIPROCATED = "reciprocated"
    REPORTED = "reported"
    COMPLETED = "completed"
    ABORTED = "aborted"

    #: The legal next states, stored on each member from
    #: ``_VALID_TRANSITIONS`` below: :meth:`Transaction.advance` checks
    #: one short tuple by identity instead of hashing two members
    #: (``Enum.__hash__`` is a Python-level call).
    successors: Tuple["TransactionState", ...]


_VALID_TRANSITIONS = {
    TransactionState.CREATED: (TransactionState.DELIVERED,
                               TransactionState.ABORTED),
    TransactionState.DELIVERED: (TransactionState.RECIPROCATED,
                                 TransactionState.REPORTED,  # collusion
                                 TransactionState.COMPLETED,  # unencrypted
                                 TransactionState.ABORTED),
    TransactionState.RECIPROCATED: (TransactionState.REPORTED,
                                    TransactionState.DELIVERED,  # reopen
                                    TransactionState.ABORTED),
    TransactionState.REPORTED: (TransactionState.COMPLETED,
                                TransactionState.ABORTED),
    TransactionState.COMPLETED: (),
    TransactionState.ABORTED: (),
}
for _state, _successors in _VALID_TRANSITIONS.items():
    _state.successors = _successors


class InvalidTransition(RuntimeError):
    """Raised when a transaction is driven through an illegal edge."""


@dataclass(slots=True)
class Transaction:
    """One donor→requestor→payee exchange.

    Attributes
    ----------
    transaction_id / chain_id / index_in_chain:
        Identity and position.
    donor_id / requestor_id / payee_id:
        The three parties.  For terminating (unencrypted) transactions
        ``payee_id`` is ``None``.
    piece_index:
        Which file piece the donor uploads.
    key_id:
        Key identifier for the sealed piece (``None`` if unencrypted).
    reciprocates:
        The earlier transaction this one fulfils, or ``None`` for chain
        initiations.
    encrypted:
        False only for termination-phase uploads.
    direct:
        True when the payee is the donor itself (direct reciprocity).
    created_at / delivered_at / completed_at:
        Simulation timestamps for latency analysis (Fig. 5).
    unreciprocated_completion:
        True when the key was released on a *false* report — a
        successful collusion attack (Sec. III-A4 metric).
    key / sealed / handed_over:
        Key and sealed piece (dropped as the exchange settles), and
        whether a departing donor handed its key duty to the payee.
    watched:
        A stall watchdog is armed on the exchange, so the ledger keeps
        it past an abort until the watchdog writes it off.
    """

    transaction_id: int
    chain_id: int
    index_in_chain: int
    donor_id: str
    requestor_id: str
    payee_id: Optional[str]
    piece_index: int
    key_id: Optional[Tuple] = None
    reciprocates: Optional[int] = None
    encrypted: bool = True
    direct: bool = False
    state: TransactionState = TransactionState.CREATED
    created_at: float = 0.0
    delivered_at: Optional[float] = None
    completed_at: Optional[float] = None
    unreciprocated_completion: bool = field(default=False)
    #: the donor wrote this exchange off its pending window
    written_off: bool = field(default=False)
    key: Optional[Key] = None
    sealed: Optional[SealedPiece] = None
    handed_over: bool = False
    watched: bool = False

    def advance(self, new_state: TransactionState) -> None:
        """Move to ``new_state``; raises :class:`InvalidTransition` on
        illegal edges so protocol bugs fail loudly."""
        if new_state not in self.state.successors:
            raise InvalidTransition(
                f"transaction {self.transaction_id}: "
                f"{self.state.value} -> {new_state.value}")
        self.state = new_state

    @property
    def is_open(self) -> bool:
        """True while the transaction still awaits progress."""
        return self.state not in (TransactionState.COMPLETED,
                                  TransactionState.ABORTED)

    @property
    def is_initiation(self) -> bool:
        """True for the first transaction of a chain."""
        return self.reciprocates is None

    def parties(self) -> Tuple[str, ...]:
        """The distinct peer ids involved: the payee is omitted when
        absent or when it is already named (direct reciprocity makes
        the donor the payee)."""
        payee_id = self.payee_id
        if payee_id is None or payee_id == self.donor_id \
                or payee_id == self.requestor_id:
            return (self.donor_id, self.requestor_id)
        return (self.donor_id, self.requestor_id, payee_id)
