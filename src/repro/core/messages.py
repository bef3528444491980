"""Protocol messages of the T-Chain exchange (Fig. 1 of the paper).

Five message types cross the wire:

* :class:`EncryptedPieceMessage` — step 2 of each transaction: the donor
  uploads ``K[p]`` to the requestor together with the payee designation
  and a back-reference identifying which earlier transaction this upload
  reciprocates (``(i1, A)`` in the paper's notation).
* :class:`ReceptionReport` — the payee notifies the *previous* donor
  that the requestor reciprocated (``r_C = [B | i1]``).
* :class:`KeyReleaseMessage` — the donor releases the decryption key.
* :class:`PlainPieceMessage` — chain termination: an unencrypted piece
  that carries no reciprocation obligation.
* :class:`PleadMessage` — recovery (Sec. II-B4): a requestor that
  reciprocated but never received its key pleads its case back to the
  donor (the reception report was lost or the payee stayed silent);
  the donor reopens the transaction and reassigns the payee, or
  re-releases a key whose delivery was lost.

These are plain dataclasses; the simulation layers decide how long they
take to deliver (pieces occupy uplink slots, control messages are
near-free per Sec. III-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.crypto import Key, SealedPiece


@dataclass(frozen=True, slots=True)
class EncryptedPieceMessage:
    """Donor → requestor: a sealed piece plus the reciprocation order.

    Attributes
    ----------
    transaction_id:
        Id of the transaction this upload *starts*.
    chain_id:
        The chain the transaction belongs to.
    sealed:
        The encrypted piece.
    donor_id / requestor_id / payee_id:
        The three parties; ``payee_id`` is whom the requestor must
        upload to next.
    reciprocates:
        Id of the earlier transaction this upload fulfils, or ``None``
        when the donor is initiating a chain (seeder or opportunistic
        seeding).
    """

    transaction_id: int
    chain_id: int
    sealed: SealedPiece
    donor_id: str
    requestor_id: str
    payee_id: str
    reciprocates: Optional[int] = None


@dataclass(frozen=True, slots=True)
class ReceptionReport:
    """Payee → previous donor: "your requestor reciprocated to me".

    ``truthful`` is False when a colluding payee files the report even
    though no piece arrived (the Sybil/collusion attack of
    Sec. III-A4); honest peers always send truthful reports.
    """

    reporter_id: str
    requestor_id: str
    reported_transaction_id: int
    truthful: bool = True


@dataclass(frozen=True, slots=True)
class KeyReleaseMessage:
    """Donor → requestor: the decryption key completing a transaction."""

    transaction_id: int
    key: Key


@dataclass(frozen=True, slots=True)
class PleadMessage:
    """Requestor → donor: "I reciprocated and no key ever came".

    Sent after a key-release timeout (each timeout re-pleads — the
    plead itself may be lost on a faulty control plane).  The donor
    decides from its ledger view: a COMPLETED transaction means the
    key release was lost (resend the key); a RECIPROCATED one means the
    reception report was swallowed (reopen + reassign the payee).
    """

    requestor_id: str
    transaction_id: int


@dataclass(frozen=True, slots=True)
class PlainPieceMessage:
    """Chain termination: an unencrypted piece, no strings attached.

    The paper's termination phase (Fig. 1(c)) releases the receiver
    from any obligation, ending the chain.  The donor builds one per
    terminating upload; nothing mutates it afterwards.
    """

    transaction_id: int
    chain_id: int
    piece_index: int
    donor_id: str
    requestor_id: str
    reciprocates: Optional[int] = None
