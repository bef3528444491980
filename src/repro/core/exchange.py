"""The almost-fair exchange ledger.

:class:`ExchangeLedger` is the pure-logic heart of T-Chain: it owns the
transaction and chain state machines, generates the per-transaction
keys, links each reciprocation to the transaction it fulfils, and
decides when keys may be released.  It knows nothing about time-to-
transfer or bandwidth — the application layer (e.g. the BitTorrent
glue in :mod:`repro.bt.protocols.tchain`) schedules uploads and calls
back into the ledger as messages land.

The ledger enforces the paper's fairness core: a key is only released
after a reception report, and honest reports only follow an actual
reciprocation.  The *single* hole the paper admits — a colluding payee
filing a false report (Sec. III-A4) — is modelled explicitly via
``truthful=False`` and counted in :attr:`collusion_successes`.

Sec. III-C3 sizes a donor's state at one 256-bit key per piece still
awaiting its reception report.  Likewise the ledger holds an exchange,
key and sealed piece included, only while something can act on it: a
missing id means *settled* (:meth:`~ExchangeLedger.find` returns
``None``, :meth:`~ExchangeLedger.get` raises :class:`ExchangeError`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.chain import Chain, ChainRegistry
from repro.core.crypto import Key, SealedPiece, generate_key
from repro.core.transaction import Transaction, TransactionState


class ExchangeError(RuntimeError):
    """Raised on protocol-violating ledger calls."""


class ExchangeLedger:
    """Swarm-wide transaction/chain bookkeeping for T-Chain.

    Parameters
    ----------
    registry:
        Chain registry to record chains in; a fresh one is created when
        omitted.
    real_crypto:
        When True, sealed pieces carry real ciphertext (the caller must
        pass piece payloads to :meth:`create_transaction`).
    """

    def __init__(self, registry: Optional[ChainRegistry] = None,
                 real_crypto: bool = False):
        self.registry = registry if registry is not None else ChainRegistry()
        self.real_crypto = real_crypto
        #: Optional :class:`repro.devtools.sanitizer.SimulationSanitizer`
        #: mirroring the ledger's state transitions; set by whoever
        #: owns the simulator (e.g. ``TChainState``) when the run is
        #: sanitized.
        self.sanitizer = None
        self._open: Dict[int, Transaction] = {}
        #: COMPLETED encrypted exchanges whose requestor may still hold
        #: the sealed piece: a lost key release is re-sent from here
        self._unsettled: Dict[int, Transaction] = {}
        #: ABORTED exchanges a stall watchdog is still armed on
        #: (``Transaction.watched``), until it takes them to write off
        self._aborted: Dict[int, Transaction] = {}
        self._open_by_peer: Dict[str, set] = {}
        self._next_tx_id = 0
        self.collusion_successes = 0
        self.completed_transactions = 0
        self.aborted_transactions = 0
        self.forgiven_transactions = 0

    # ------------------------------------------------------------------
    # Chain and transaction creation
    # ------------------------------------------------------------------
    def begin_chain(self, initiator_id: str, seeded_by_seeder: bool,
                    now: float) -> Chain:
        """Open a new chain (seeder initiation or opportunistic seeding)."""
        return self.registry.create(initiator_id, seeded_by_seeder, now)

    def create_transaction(self, chain: Chain, donor_id: str,
                           requestor_id: str, payee_id: Optional[str],
                           piece_index: int, now: float,
                           reciprocates: Optional[int] = None,
                           encrypted: bool = True,
                           direct: bool = False,
                           payload: Optional[bytes] = None,
                           forward_of: Optional[int] = None,
                           ) -> Tuple[Transaction, Optional[SealedPiece]]:
        """Create the next transaction of ``chain``.

        Returns the transaction and the sealed piece the donor must
        upload (``None`` for unencrypted termination uploads).

        ``forward_of`` implements newcomer bootstrapping (Sec. II-D1):
        the donor is a newcomer forwarding the still-encrypted piece it
        received in transaction ``forward_of``; the new transaction
        reuses that piece's key and ciphertext, and the key is released
        through the normal report flow once the original donor has
        released it up-chain.
        """
        if encrypted and payee_id is None:
            raise ExchangeError("encrypted transactions need a payee")
        if not encrypted and payee_id is not None:
            raise ExchangeError("termination uploads carry no payee")
        if reciprocates is not None:
            prev = self.find(reciprocates)
            if prev is None:
                raise ExchangeError(f"unknown transaction {reciprocates}")
            if prev.requestor_id != donor_id:
                raise ExchangeError(
                    "only the previous requestor may reciprocate")
            if prev.payee_id != requestor_id:
                raise ExchangeError(
                    "reciprocation must go to the designated payee")
        transaction_id = self._next_tx_id
        key: Optional[Key] = None
        sealed: Optional[SealedPiece] = None
        if encrypted and forward_of is not None:
            original = self._open.get(forward_of)
            if original is None or original.sealed is None:
                raise ExchangeError(
                    f"cannot forward unknown transaction {forward_of}")
            if original.piece_index != piece_index:
                raise ExchangeError(
                    "a forwarded piece must keep its piece index")
            key, sealed = original.key, original.sealed
        elif encrypted:
            key_id = (donor_id, requestor_id, transaction_id)
            # Possession of the Key object is the model of knowledge;
            # only real ciphertext ever reads material.
            key = generate_key(key_id) if self.real_crypto else Key(key_id)
            sealed = SealedPiece.seal(
                piece_index, key,
                payload=payload if self.real_crypto else None)
        tx = Transaction(
            transaction_id=transaction_id,
            chain_id=chain.chain_id,
            index_in_chain=0,  # set by chain.append
            donor_id=donor_id,
            requestor_id=requestor_id,
            payee_id=payee_id,
            piece_index=piece_index,
            key_id=key.key_id if key is not None else None,
            reciprocates=reciprocates,
            encrypted=encrypted,
            direct=direct,
            created_at=now,
            key=key,
            sealed=sealed,
        )
        self._next_tx_id += 1
        chain.append(tx)
        self._open[tx.transaction_id] = tx
        for party in tx.parties():
            self._index_open(party, tx.transaction_id)
        if self.sanitizer is not None:
            self.sanitizer.on_transaction_created(tx)
        return tx, sealed

    # The open-transaction index holds an entry only for a peer with
    # an open transaction: sets are made on a miss and dropped when
    # emptied, so ids that come and go (every whitewash mints one)
    # leave nothing behind.
    def _index_open(self, party: str, transaction_id: int) -> None:
        open_set = self._open_by_peer.get(party)
        if open_set is None:
            self._open_by_peer[party] = {transaction_id}
        else:
            open_set.add(transaction_id)

    def _unindex_open(self, party: str, transaction_id: int) -> None:
        open_set = self._open_by_peer.get(party)
        if open_set is not None:
            open_set.discard(transaction_id)
            if not open_set:
                del self._open_by_peer[party]

    def _close(self, tx: Transaction) -> None:
        """``tx`` reached COMPLETED or ABORTED.  A completed exchange
        whose requestor has not settled it (``sealed`` still set) moves
        to ``_unsettled``, a watched aborted one to ``_aborted``; any
        other leaves the ledger."""
        transaction_id = tx.transaction_id
        del self._open[transaction_id]
        for party in tx.parties():
            self._unindex_open(party, transaction_id)
        if tx.state is TransactionState.ABORTED:
            tx.key = None
            if tx.watched:
                self._aborted[transaction_id] = tx
        elif tx.sealed is not None:
            self._unsettled[transaction_id] = tx
        tx.sealed = None

    # ------------------------------------------------------------------
    # Protocol progress
    # ------------------------------------------------------------------
    def find(self, transaction_id: int) -> Optional[Transaction]:
        """The transaction, or ``None`` once it is settled."""
        return self._open.get(transaction_id) \
            or self._unsettled.get(transaction_id)

    def get(self, transaction_id: int) -> Transaction:
        """Look up a transaction the caller knows to be in flight;
        :class:`ExchangeError` if it is settled (or never existed)."""
        tx = self.find(transaction_id)
        if tx is None:
            raise ExchangeError(f"transaction {transaction_id} is settled")
        return tx

    def settle(self, transaction_id: int) -> None:
        """The requestor let go of the sealed piece (key arrived, piece
        dropped, peer left): the exchange leaves once it is closed."""
        if self._unsettled.pop(transaction_id, None) is None:
            tx = self._open.get(transaction_id)
            if tx is not None:
                tx.sealed = None

    def pop_aborted(self, transaction_id: int) -> Optional[Transaction]:
        """Hand a watched aborted exchange to its stall watchdog, which
        writes it off; ``None`` when the id was not aborted under
        watch."""
        return self._aborted.pop(transaction_id, None)

    def mark_delivered(self, transaction_id: int, now: float
                       ) -> Optional[Transaction]:
        """The donor's upload reached the requestor.

        For unencrypted uploads the transaction completes immediately
        and its chain terminates.  Returns the *earlier* transaction
        that this delivery reciprocates (now RECIPROCATED), or ``None``
        for chain initiations — the caller uses it to route the payee's
        reception report.
        """
        tx = self.get(transaction_id)
        tx.advance(TransactionState.DELIVERED)
        tx.delivered_at = now
        if self.sanitizer is not None:
            self.sanitizer.on_delivered(tx)
        if not tx.encrypted:
            tx.advance(TransactionState.COMPLETED)
            tx.completed_at = now
            self.completed_transactions += 1
            self._close(tx)
            self.registry.terminate(tx.chain_id, now)
        if tx.reciprocates is None:
            return None
        prev = self._open.get(tx.reciprocates)
        if prev is not None and prev.state is TransactionState.DELIVERED:
            prev.advance(TransactionState.RECIPROCATED)
            if self.sanitizer is not None:
                self.sanitizer.on_reciprocated(prev, tx)
            return prev
        return None

    def report_reciprocation(self, transaction_id: int, now: float,
                             truthful: bool = True) -> None:
        """The payee's reception report reached the donor.

        ``truthful=False`` models the collusion/Sybil attack: the payee
        vouches for a reciprocation that never happened.  The ledger
        permits it (the donor cannot tell) and records the fairness
        breach.
        """
        tx = self.get(transaction_id)
        if tx.state is TransactionState.RECIPROCATED:
            tx.advance(TransactionState.REPORTED)
        elif tx.state is TransactionState.DELIVERED:
            if truthful:
                raise ExchangeError(
                    f"truthful report for unreciprocated transaction "
                    f"{transaction_id}")
            tx.unreciprocated_completion = True
            self.collusion_successes += 1
            tx.advance(TransactionState.REPORTED)
        else:
            raise ExchangeError(
                f"report for transaction {transaction_id} in state "
                f"{tx.state.value}")
        if self.sanitizer is not None:
            self.sanitizer.on_report(tx, truthful)

    def release_key(self, transaction_id: int, now: float) -> Key:
        """The donor releases the key; the transaction completes.

        Only legal after a reception report — this is the fairness
        guarantee: no report, no key.
        """
        tx = self.get(transaction_id)
        if tx.state is not TransactionState.REPORTED:
            raise ExchangeError(
                f"key release for transaction {transaction_id} in state "
                f"{tx.state.value} (report required first)")
        if self.sanitizer is not None:
            self.sanitizer.on_key_release(tx)
        tx.advance(TransactionState.COMPLETED)
        tx.completed_at = now
        self.completed_transactions += 1
        self._close(tx)
        return tx.key

    def peek_key(self, transaction_id: int) -> Key:
        """The key for a transaction, without completing it.

        Used for the departure handover of Sec. II-B4 (a leaving donor
        forwards its key to the payee).
        """
        return self.get(transaction_id).key

    def reopen(self, transaction_id: int, now: float) -> None:
        """Roll a reciprocated-but-unreported transaction back to
        DELIVERED so the requestor can reciprocate again.

        Covers the silent-payee failure: the requestor uploaded to the
        designated payee but no reception report ever reached the
        donor (the payee departed uncleanly or is malicious).  The
        requestor pleads its case to the donor, which reassigns the
        payee; the requestor must still pay again — no key changes
        hands here, so there is nothing to exploit.
        """
        tx = self.get(transaction_id)
        if tx.state is not TransactionState.RECIPROCATED:
            raise ExchangeError(
                f"can only reopen a reciprocated transaction, not "
                f"{tx.state.value}")
        tx.advance(TransactionState.DELIVERED)
        if self.sanitizer is not None:
            # Shadow-state rollback: the observed reciprocation no
            # longer counts, so a later truthful report must follow a
            # *new* reciprocal upload — and the fresh one must not
            # read as a false violation.
            self.sanitizer.on_reopen(tx)

    def forgive(self, transaction_id: int, now: float) -> Key:
        """Release a requestor from its reciprocation duty.

        Covers the rare no-payee-exists situations of Secs. II-B3/B4:
        the donor (or the departing donor's stand-in) frees the
        requestor and hands over the key without reciprocation.  This
        is *not* a collusion breach — it is the protocol's sanctioned
        escape hatch — and is counted separately.
        """
        tx = self.get(transaction_id)
        if tx.state is not TransactionState.DELIVERED:
            raise ExchangeError(
                f"can only forgive a delivered transaction, not "
                f"{tx.state.value}")
        if self.sanitizer is not None:
            self.sanitizer.on_forgive(tx)
        tx.advance(TransactionState.REPORTED)
        tx.advance(TransactionState.COMPLETED)
        tx.completed_at = now
        self.completed_transactions += 1
        self.forgiven_transactions += 1
        self._close(tx)
        return tx.key

    def abort(self, transaction_id: int, now: float) -> None:
        """Abort an open transaction (unrecoverable departure)."""
        tx = self.find(transaction_id)
        if tx is not None and tx.is_open:
            tx.advance(TransactionState.ABORTED)
            self.aborted_transactions += 1
            if self.sanitizer is not None:
                self.sanitizer.on_abort(tx)
            self._close(tx)

    def reassign_payee(self, transaction_id: int, new_payee: str) -> None:
        """Sec. II-B4: the payee left (or needs nothing) before the
        requestor reciprocated; the donor designates a replacement."""
        tx = self.get(transaction_id)
        if tx.state is not TransactionState.DELIVERED:
            raise ExchangeError(
                f"cannot reassign payee in state {tx.state.value}")
        old_payee = tx.payee_id
        tx.payee_id = new_payee
        if old_payee is not None and old_payee not in (
                tx.donor_id, tx.requestor_id):
            self._unindex_open(old_payee, tx.transaction_id)
        self._index_open(new_payee, tx.transaction_id)

    def terminate_chain(self, chain_id: int, now: float) -> None:
        """Terminate a chain explicitly (e.g. stalled by a free-rider)."""
        self.registry.terminate(chain_id, now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def open_transactions(self) -> int:
        """Transactions still in flight."""
        return len(self._open)

    def open_transactions_involving(self, peer_id: str) -> list:
        """Open transactions involving ``peer_id`` (indexed; O(own))."""
        ids = self._open_by_peer.get(peer_id, ())
        return [self._open[i] for i in sorted(ids)]
