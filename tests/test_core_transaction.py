"""Unit tests for the transaction state machine."""

import pytest

from repro.core.transaction import (
    InvalidTransition,
    Transaction,
    TransactionState,
)


def make_tx(**overrides):
    defaults = dict(
        transaction_id=0, chain_id=0, index_in_chain=0,
        donor_id="A", requestor_id="B", payee_id="C", piece_index=3)
    defaults.update(overrides)
    return Transaction(**defaults)


class TestLifecycle:
    def test_initial_state(self):
        assert make_tx().state is TransactionState.CREATED

    def test_happy_path(self):
        tx = make_tx()
        for state in (TransactionState.DELIVERED,
                      TransactionState.RECIPROCATED,
                      TransactionState.REPORTED,
                      TransactionState.COMPLETED):
            tx.advance(state)
        assert tx.state is TransactionState.COMPLETED
        assert not tx.is_open

    def test_unencrypted_shortcut(self):
        tx = make_tx(encrypted=False, payee_id=None)
        tx.advance(TransactionState.DELIVERED)
        tx.advance(TransactionState.COMPLETED)
        assert tx.state is TransactionState.COMPLETED

    def test_collusion_shortcut_delivered_to_reported(self):
        tx = make_tx()
        tx.advance(TransactionState.DELIVERED)
        tx.advance(TransactionState.REPORTED)
        assert tx.state is TransactionState.REPORTED

    def test_cannot_skip_delivery(self):
        tx = make_tx()
        with pytest.raises(InvalidTransition):
            tx.advance(TransactionState.RECIPROCATED)

    def test_cannot_complete_from_created(self):
        tx = make_tx()
        with pytest.raises(InvalidTransition):
            tx.advance(TransactionState.COMPLETED)

    def test_completed_is_terminal(self):
        tx = make_tx()
        tx.advance(TransactionState.DELIVERED)
        tx.advance(TransactionState.COMPLETED)
        with pytest.raises(InvalidTransition):
            tx.advance(TransactionState.ABORTED)

    def test_abort_from_any_open_state(self):
        for path in ([], [TransactionState.DELIVERED],
                     [TransactionState.DELIVERED,
                      TransactionState.RECIPROCATED],
                     [TransactionState.DELIVERED,
                      TransactionState.RECIPROCATED,
                      TransactionState.REPORTED]):
            tx = make_tx()
            for state in path:
                tx.advance(state)
            tx.advance(TransactionState.ABORTED)
            assert not tx.is_open

    def test_aborted_is_terminal(self):
        tx = make_tx()
        tx.advance(TransactionState.ABORTED)
        with pytest.raises(InvalidTransition):
            tx.advance(TransactionState.DELIVERED)


class TestProperties:
    def test_is_initiation(self):
        assert make_tx(reciprocates=None).is_initiation
        assert not make_tx(reciprocates=5).is_initiation

    def test_parties_with_payee(self):
        assert make_tx().parties() == ("A", "B", "C")

    def test_parties_without_payee(self):
        assert make_tx(payee_id=None).parties() == ("A", "B")

    def test_parties_name_a_direct_payee_once(self):
        assert make_tx(payee_id="A").parties() == ("A", "B")
