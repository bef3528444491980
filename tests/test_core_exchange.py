"""Unit tests for the exchange ledger — the almost-fair exchange core."""

import hashlib

import pytest

from repro.core.crypto import KEY_SIZE_BYTES, CryptoError
from repro.core.exchange import ExchangeError, ExchangeLedger
from repro.core.transaction import TransactionState


def start_chain(ledger, initiator="S", requestor="B", payee="C",
                piece=1, now=0.0):
    chain = ledger.begin_chain(initiator, seeded_by_seeder=True, now=now)
    tx, sealed = ledger.create_transaction(
        chain, donor_id=initiator, requestor_id=requestor, payee_id=payee,
        piece_index=piece, now=now)
    return chain, tx, sealed


class TestTransactionCreation:
    def test_initiation_produces_sealed_piece(self):
        ledger = ExchangeLedger()
        chain, tx, sealed = start_chain(ledger)
        assert sealed is not None
        assert sealed.piece_index == 1
        assert sealed.key_id == tx.key_id
        assert tx.is_initiation
        assert chain.length == 1

    def test_unencrypted_needs_no_payee(self):
        ledger = ExchangeLedger()
        chain = ledger.begin_chain("S", True, 0.0)
        tx, sealed = ledger.create_transaction(
            chain, "S", "B", None, 1, 0.0, encrypted=False)
        assert sealed is None
        assert tx.key_id is None

    def test_encrypted_without_payee_rejected(self):
        ledger = ExchangeLedger()
        chain = ledger.begin_chain("S", True, 0.0)
        with pytest.raises(ExchangeError):
            ledger.create_transaction(chain, "S", "B", None, 1, 0.0)

    def test_unencrypted_with_payee_rejected(self):
        ledger = ExchangeLedger()
        chain = ledger.begin_chain("S", True, 0.0)
        with pytest.raises(ExchangeError):
            ledger.create_transaction(chain, "S", "B", "C", 1, 0.0,
                                      encrypted=False)

    def test_reciprocation_must_come_from_previous_requestor(self):
        ledger = ExchangeLedger()
        chain, tx, _ = start_chain(ledger)
        with pytest.raises(ExchangeError):
            ledger.create_transaction(
                chain, "X", "C", "D", 2, 1.0,
                reciprocates=tx.transaction_id)

    def test_reciprocation_must_target_designated_payee(self):
        ledger = ExchangeLedger()
        chain, tx, _ = start_chain(ledger)
        with pytest.raises(ExchangeError):
            ledger.create_transaction(
                chain, "B", "X", "D", 2, 1.0,
                reciprocates=tx.transaction_id)

    def test_unknown_reciprocation_rejected(self):
        ledger = ExchangeLedger()
        chain = ledger.begin_chain("S", True, 0.0)
        with pytest.raises(ExchangeError):
            ledger.create_transaction(chain, "B", "C", "D", 2, 1.0,
                                      reciprocates=999)


class TestHappyPathChain:
    def test_full_triangle(self):
        """Replays Fig. 1(a): A->B with payee C; B reciprocates to C;
        C reports; A releases the key."""
        ledger = ExchangeLedger()
        chain, t1, sealed1 = start_chain(ledger, "A", "B", "C")

        # Step 2: A's upload of K[p1] lands at B.
        assert ledger.mark_delivered(t1.transaction_id, 1.0) is None
        assert t1.state is TransactionState.DELIVERED

        # B reciprocates: uploads K[p2] to C (starts t2, payee D).
        t2, sealed2 = ledger.create_transaction(
            chain, "B", "C", "D", 2, 1.0,
            reciprocates=t1.transaction_id)
        prev = ledger.mark_delivered(t2.transaction_id, 2.0)
        assert prev is t1
        assert t1.state is TransactionState.RECIPROCATED

        # Step 3: C reports to A; step 4: A releases the key.
        ledger.report_reciprocation(t1.transaction_id, 2.1)
        key = ledger.release_key(t1.transaction_id, 2.2)
        assert t1.state is TransactionState.COMPLETED
        assert sealed1.open(key) is None  # logical mode opens fine
        assert ledger.completed_transactions == 1
        assert t1.completed_at == 2.2

    def test_released_key_opens_only_its_piece(self):
        ledger = ExchangeLedger()
        chain, t1, sealed1 = start_chain(ledger, "A", "B", "C")
        ledger.mark_delivered(t1.transaction_id, 1.0)
        t2, sealed2 = ledger.create_transaction(
            chain, "B", "C", "D", 2, 1.0, reciprocates=t1.transaction_id)
        ledger.mark_delivered(t2.transaction_id, 2.0)
        ledger.report_reciprocation(t1.transaction_id, 2.1)
        key1 = ledger.release_key(t1.transaction_id, 2.2)
        with pytest.raises(CryptoError):
            sealed2.open(key1)

    def test_termination_upload_completes_and_ends_chain(self):
        ledger = ExchangeLedger()
        chain = ledger.begin_chain("S", True, 0.0)
        tx, _ = ledger.create_transaction(chain, "S", "B", None, 1, 0.0,
                                          encrypted=False)
        ledger.mark_delivered(tx.transaction_id, 1.0)
        assert tx.state is TransactionState.COMPLETED
        assert not chain.active
        assert ledger.registry.active_count == 0


class TestFairnessCore:
    def test_key_not_released_before_report(self):
        ledger = ExchangeLedger()
        chain, t1, _ = start_chain(ledger)
        ledger.mark_delivered(t1.transaction_id, 1.0)
        with pytest.raises(Exception):
            ledger.release_key(t1.transaction_id, 1.5)

    def test_truthful_report_requires_reciprocation(self):
        ledger = ExchangeLedger()
        chain, t1, _ = start_chain(ledger)
        ledger.mark_delivered(t1.transaction_id, 1.0)
        with pytest.raises(ExchangeError):
            ledger.report_reciprocation(t1.transaction_id, 1.5,
                                        truthful=True)

    def test_false_report_releases_key_and_is_counted(self):
        """The collusion hole of Sec. III-A4: a lying payee frees the
        requestor from reciprocating."""
        ledger = ExchangeLedger()
        chain, t1, _ = start_chain(ledger)
        ledger.mark_delivered(t1.transaction_id, 1.0)
        ledger.report_reciprocation(t1.transaction_id, 1.5, truthful=False)
        key = ledger.release_key(t1.transaction_id, 1.6)
        assert key is not None
        assert ledger.collusion_successes == 1
        assert ledger.get(t1.transaction_id).unreciprocated_completion

    def test_report_on_completed_transaction_rejected(self):
        ledger = ExchangeLedger()
        chain, t1, _ = start_chain(ledger)
        ledger.mark_delivered(t1.transaction_id, 1.0)
        ledger.report_reciprocation(t1.transaction_id, 1.5, truthful=False)
        ledger.release_key(t1.transaction_id, 1.6)
        with pytest.raises(ExchangeError):
            ledger.report_reciprocation(t1.transaction_id, 2.0)


class TestDepartures:
    def test_abort_counts(self):
        ledger = ExchangeLedger()
        chain, t1, _ = start_chain(ledger)
        ledger.abort(t1.transaction_id, 1.0)
        assert ledger.aborted_transactions == 1
        assert not ledger.get(t1.transaction_id).is_open

    def test_abort_completed_is_noop(self):
        ledger = ExchangeLedger()
        chain = ledger.begin_chain("S", True, 0.0)
        tx, _ = ledger.create_transaction(chain, "S", "B", None, 1, 0.0,
                                          encrypted=False)
        ledger.mark_delivered(tx.transaction_id, 1.0)
        ledger.abort(tx.transaction_id, 2.0)
        assert ledger.aborted_transactions == 0

    def test_reassign_payee(self):
        """Sec. II-B4: payee departed before reciprocation; the donor
        picks a replacement and the chain continues."""
        ledger = ExchangeLedger()
        chain, t1, _ = start_chain(ledger, "A", "B", "C")
        ledger.mark_delivered(t1.transaction_id, 1.0)
        ledger.reassign_payee(t1.transaction_id, "C2")
        t2, _ = ledger.create_transaction(
            chain, "B", "C2", "D", 2, 2.0, reciprocates=t1.transaction_id)
        assert ledger.mark_delivered(t2.transaction_id, 3.0) is t1

    def test_reassign_requires_delivered_state(self):
        ledger = ExchangeLedger()
        chain, t1, _ = start_chain(ledger)
        with pytest.raises(ExchangeError):
            ledger.reassign_payee(t1.transaction_id, "X")

    def test_peek_key_for_departure_handover(self):
        ledger = ExchangeLedger()
        chain, t1, sealed = start_chain(ledger)
        key = ledger.peek_key(t1.transaction_id)
        assert sealed.open(key) is None
        # peeking does not complete the transaction
        assert ledger.get(t1.transaction_id).is_open


class TestRealCrypto:
    def test_payload_sealed_and_recoverable(self):
        ledger = ExchangeLedger(real_crypto=True)
        chain = ledger.begin_chain("A", True, 0.0)
        payload = b"piece-one-bytes" * 10
        t1, sealed = ledger.create_transaction(
            chain, "A", "B", "C", 1, 0.0, payload=payload)
        assert sealed.ciphertext is not None
        ledger.mark_delivered(t1.transaction_id, 1.0)
        t2, _ = ledger.create_transaction(
            chain, "B", "C", "D", 2, 1.0, reciprocates=t1.transaction_id)
        ledger.mark_delivered(t2.transaction_id, 2.0)
        ledger.report_reciprocation(t1.transaction_id, 2.1)
        key = ledger.release_key(t1.transaction_id, 2.2)
        assert sealed.open(key) == payload
        assert len(key.material) == KEY_SIZE_BYTES

    def test_logical_mode_never_hashes(self, monkeypatch):
        """Without ``real_crypto`` nothing reads key material, so the
        ledger issues ``Key(key_id)`` bare: a whole exchange, key
        release and unsealing included, runs with SHA-256 gone."""
        def no_sha256(*args, **kwargs):
            raise AssertionError("logical mode derived key material")

        monkeypatch.setattr(hashlib, "sha256", no_sha256)
        ledger = ExchangeLedger()
        chain, t1, sealed = start_chain(ledger)
        assert sealed.ciphertext is None
        ledger.mark_delivered(t1.transaction_id, 1.0)
        t2, forwarded = ledger.create_transaction(
            chain, "B", "C", "D", 1, 1.0, reciprocates=t1.transaction_id,
            forward_of=t1.transaction_id)
        ledger.mark_delivered(t2.transaction_id, 2.0)
        ledger.report_reciprocation(t1.transaction_id, 2.1)
        key = ledger.release_key(t1.transaction_id, 2.2)
        assert key.key_id == t1.key_id == ("S", "B", t1.transaction_id)
        assert key.material == b""
        # The key object is still the model of knowledge: it opens its
        # own piece (and the forwarded copy), and no other.
        assert sealed.open(key) is None and forwarded.open(key) is None
        _, _, other = start_chain(ledger, requestor="E")
        with pytest.raises(CryptoError):
            other.open(key)


class TestIntrospection:
    def test_open_transactions(self):
        ledger = ExchangeLedger()
        chain, t1, _ = start_chain(ledger)
        assert ledger.open_transactions == 1
        ledger.abort(t1.transaction_id, 1.0)
        assert ledger.open_transactions == 0

    def test_transactions_involving(self):
        ledger = ExchangeLedger()
        chain, t1, _ = start_chain(ledger, "A", "B", "C")
        assert ledger.transactions_involving("C") == [t1]
        assert ledger.transactions_involving("Z") == []

    def test_open_index_drops_emptied_entries(self):
        """One entry per peer *with an open transaction*: closing the
        last one, or reassigning the payee away, removes the key
        instead of leaving an empty set behind."""
        ledger = ExchangeLedger()
        chain, t1, _ = start_chain(ledger, "A", "B", "C")
        assert set(ledger._open_by_peer) == {"A", "B", "C"}
        ledger.mark_delivered(t1.transaction_id, 1.0)
        ledger.reassign_payee(t1.transaction_id, "C2")
        assert set(ledger._open_by_peer) == {"A", "B", "C2"}
        assert ledger.open_transactions_involving("C") == []
        assert ledger.open_transactions_involving("C2") == [t1]
        chain2, t2, _ = start_chain(ledger, "A", "D", "A")  # direct
        ledger.abort(t1.transaction_id, 2.0)
        assert set(ledger._open_by_peer) == {"A", "D"}
        ledger.abort(t2.transaction_id, 3.0)
        assert ledger._open_by_peer == {}


class TestForwarding:
    """Newcomer piece-forwarding (Sec. II-D1) at the ledger level."""

    def test_forward_reuses_key_and_ciphertext(self):
        ledger = ExchangeLedger()
        chain, t1, sealed1 = start_chain(ledger, "A", "B", "C", piece=4)
        ledger.mark_delivered(t1.transaction_id, 1.0)
        t2, sealed2 = ledger.create_transaction(
            chain, "B", "C", "D", 4, 1.0,
            reciprocates=t1.transaction_id,
            forward_of=t1.transaction_id)
        assert t2.key_id == t1.key_id
        assert sealed2 is sealed1

    def test_forward_must_keep_piece_index(self):
        ledger = ExchangeLedger()
        chain, t1, _ = start_chain(ledger, "A", "B", "C", piece=4)
        ledger.mark_delivered(t1.transaction_id, 1.0)
        with pytest.raises(ExchangeError):
            ledger.create_transaction(
                chain, "B", "C", "D", 5, 1.0,
                reciprocates=t1.transaction_id,
                forward_of=t1.transaction_id)

    def test_forward_of_unknown_transaction_rejected(self):
        ledger = ExchangeLedger()
        chain = ledger.begin_chain("A", True, 0.0)
        with pytest.raises(ExchangeError):
            ledger.create_transaction(chain, "A", "B", "C", 1, 0.0,
                                      forward_of=404)

    def test_forwarded_key_release_opens_both_copies(self):
        """The whole point: when the chain's key releases reach both
        holders, the same key opens the original and the forward."""
        ledger = ExchangeLedger()
        chain, t1, sealed1 = start_chain(ledger, "A", "B", "C", piece=4)
        ledger.mark_delivered(t1.transaction_id, 1.0)
        t2, sealed2 = ledger.create_transaction(
            chain, "B", "C", "D", 4, 1.0,
            reciprocates=t1.transaction_id,
            forward_of=t1.transaction_id)
        ledger.mark_delivered(t2.transaction_id, 2.0)
        ledger.report_reciprocation(t1.transaction_id, 2.1)
        key1 = ledger.release_key(t1.transaction_id, 2.2)
        # C reciprocates t2 toward D
        t3, _ = ledger.create_transaction(
            chain, "C", "D", "E", 6, 3.0,
            reciprocates=t2.transaction_id)
        ledger.mark_delivered(t3.transaction_id, 4.0)
        ledger.report_reciprocation(t2.transaction_id, 4.1)
        key2 = ledger.release_key(t2.transaction_id, 4.2)
        assert key2.key_id == key1.key_id
        assert sealed1.open(key1) is None
        assert sealed2.open(key2) is None


class TestReopen:
    def test_reopen_only_from_reciprocated(self):
        ledger = ExchangeLedger()
        chain, t1, _ = start_chain(ledger)
        with pytest.raises(ExchangeError):
            ledger.reopen(t1.transaction_id, 1.0)
        ledger.mark_delivered(t1.transaction_id, 1.0)
        with pytest.raises(ExchangeError):
            ledger.reopen(t1.transaction_id, 1.5)

    def test_reopen_allows_second_reciprocation(self):
        ledger = ExchangeLedger()
        chain, t1, _ = start_chain(ledger, "A", "B", "C")
        ledger.mark_delivered(t1.transaction_id, 1.0)
        t2, _ = ledger.create_transaction(
            chain, "B", "C", "D", 2, 1.0,
            reciprocates=t1.transaction_id)
        ledger.mark_delivered(t2.transaction_id, 2.0)
        # the payee never reports; the requestor pleads and reopens
        ledger.reopen(t1.transaction_id, 65.0)
        ledger.reassign_payee(t1.transaction_id, "C2")
        t2b, _ = ledger.create_transaction(
            chain, "B", "C2", "D", 3, 66.0,
            reciprocates=t1.transaction_id)
        assert ledger.mark_delivered(t2b.transaction_id, 70.0) is t1
        ledger.report_reciprocation(t1.transaction_id, 70.1)
        assert ledger.release_key(t1.transaction_id, 70.2) is not None
