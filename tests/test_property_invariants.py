"""Property-based invariants on the core state machines.

Hypothesis drives randomized operation sequences against the exchange
ledger and the simulator, asserting the invariants every execution
must uphold regardless of interleaving:

* the ledger's open-transaction index always matches the ground truth;
* transaction counters (completed/aborted/forgiven) partition the
  closed transactions;
* keys are only ever released for transactions whose state reached
  REPORTED;
* the ledger holds exactly the open exchanges plus the completed ones
  whose requestor has not settled them, and every call on a settled id
  raises ``ExchangeError`` (never ``KeyError``) or is a no-op;
* the simulator never runs time backwards and fires same-time events
  in schedule order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain import ChainRegistry
from repro.core.exchange import ExchangeError, ExchangeLedger
from repro.core.transaction import (
    InvalidTransition,
    TransactionState,
)
from repro.sim import Simulator

PEERS = ["A", "B", "C", "D", "E"]


@st.composite
def ledger_script(draw):
    """A random sequence of ledger operations."""
    return draw(st.lists(st.tuples(
        st.sampled_from(["create", "deliver", "reciprocate",
                         "report", "false_report", "release",
                         "abort", "forgive", "reopen", "settle"]),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=4),   # donor index
        st.integers(min_value=0, max_value=4),   # requestor index
        st.integers(min_value=0, max_value=4),   # payee index
    ), max_size=50))


class TestLedgerProperties:
    @given(ledger_script())
    @settings(max_examples=150, deadline=None)
    def test_ledger_invariants_hold_under_any_interleaving(self, ops):
        ledger = ExchangeLedger(ChainRegistry())
        transactions = []
        settle_calls = set()
        clock = [0.0]

        def now():
            clock[0] += 1.0
            return clock[0]

        for op, tx_pick, d, r, p in ops:
            try:
                if op == "create":
                    donor, requestor, payee = (PEERS[d], PEERS[r],
                                               PEERS[p])
                    if len({donor, requestor, payee}) < 3:
                        continue
                    chain = ledger.begin_chain(donor, True, now())
                    tx, _ = ledger.create_transaction(
                        chain, donor, requestor, payee,
                        piece_index=tx_pick, now=now())
                    transactions.append(tx)
                elif transactions:
                    tx = transactions[tx_pick % len(transactions)]
                    if op == "deliver":
                        ledger.mark_delivered(tx.transaction_id, now())
                    elif op == "reciprocate":
                        if tx.state is TransactionState.DELIVERED:
                            tx.advance(TransactionState.RECIPROCATED)
                    elif op == "report":
                        ledger.report_reciprocation(
                            tx.transaction_id, now())
                    elif op == "false_report":
                        ledger.report_reciprocation(
                            tx.transaction_id, now(), truthful=False)
                    elif op == "release":
                        ledger.release_key(tx.transaction_id, now())
                    elif op == "abort":
                        ledger.abort(tx.transaction_id, now())
                    elif op == "forgive":
                        ledger.forgive(tx.transaction_id, now())
                    elif op == "reopen":
                        ledger.reopen(tx.transaction_id, now())
                    elif op == "settle":
                        ledger.settle(tx.transaction_id)
                        settle_calls.add(tx.transaction_id)
            except (ExchangeError, InvalidTransition):
                pass  # illegal moves must raise, never corrupt

            self._check_invariants(ledger, transactions)
            self._check_retention(ledger, transactions, settle_calls)

    def _check_invariants(self, ledger, transactions):
        # 1. open index matches ground truth per peer
        for peer in PEERS:
            truth = {t.transaction_id for t in transactions
                     if t.is_open and peer in t.parties()}
            indexed = {t.transaction_id for t in
                       ledger.open_transactions_involving(peer)}
            assert indexed == truth

        # 2. closed-transaction partition: completed + aborted counts
        completed = sum(1 for t in transactions
                        if t.state is TransactionState.COMPLETED)
        aborted = sum(1 for t in transactions
                      if t.state is TransactionState.ABORTED)
        assert ledger.completed_transactions == completed
        assert ledger.aborted_transactions == aborted
        assert ledger.forgiven_transactions <= completed

        # 3. completion implies a completion timestamp
        for t in transactions:
            if t.state is TransactionState.COMPLETED:
                assert t.completed_at is not None

        # 4. collusion accounting only on unreciprocated completions
        assert ledger.collusion_successes == sum(
            1 for t in transactions if t.unreciprocated_completion)

    def _check_retention(self, ledger, transactions, settle_calls):
        # 5. the ledger holds what is in flight, and nothing else
        for t in transactions:
            retained = t.is_open or (
                t.state is TransactionState.COMPLETED
                and t.transaction_id not in settle_calls)
            found = ledger.find(t.transaction_id)
            assert found is (t if retained else None)
            if not retained:
                self._check_settled_calls(ledger, t)
        assert ledger.open_transactions == sum(
            1 for t in transactions if t.is_open)

    def _check_settled_calls(self, ledger, tx):
        # 6. a settled id raises ExchangeError from every call that
        # needs the exchange; abort and settle leave the ledger alone
        tid = tx.transaction_id
        calls = [
            lambda: ledger.get(tid),
            lambda: ledger.mark_delivered(tid, 0.0),
            lambda: ledger.report_reciprocation(tid, 0.0),
            lambda: ledger.report_reciprocation(tid, 0.0, truthful=False),
            lambda: ledger.release_key(tid, 0.0),
            lambda: ledger.reopen(tid, 0.0),
            lambda: ledger.forgive(tid, 0.0),
            lambda: ledger.reassign_payee(tid, "E"),
            lambda: ledger.create_transaction(
                ledger.registry.get(tx.chain_id), tx.requestor_id,
                tx.payee_id, "E", 0, 0.0, reciprocates=tid),
            lambda: ledger.create_transaction(
                ledger.registry.get(tx.chain_id), tx.requestor_id,
                tx.payee_id, "E", tx.piece_index, 0.0, forward_of=tid),
        ]
        for call in calls:
            with pytest.raises(ExchangeError):
                call()
        counters = (ledger.completed_transactions,
                    ledger.aborted_transactions, ledger.open_transactions)
        ledger.abort(tid, 0.0)
        ledger.settle(tid)
        assert counters == (ledger.completed_transactions,
                            ledger.aborted_transactions,
                            ledger.open_transactions)
        assert ledger.find(tid) is None

    def test_every_way_out_of_the_ledger_settles(self):
        """Abort, an unencrypted delivery, a released key the
        requestor then settles, and a forgiveness the requestor settled
        first: each leaves the ledger, and its id answers as above."""
        ledger = ExchangeLedger()

        def start(requestor, payee="C", encrypted=True):
            chain = ledger.begin_chain("A", True, 0.0)
            tx, _ = ledger.create_transaction(
                chain, "A", requestor, payee, 0, 0.0, encrypted=encrypted)
            return tx

        aborted = start("B")
        ledger.abort(aborted.transaction_id, 1.0)
        plain = start("B", payee=None, encrypted=False)
        ledger.mark_delivered(plain.transaction_id, 1.0)
        released = start("D")
        ledger.mark_delivered(released.transaction_id, 1.0)
        ledger.report_reciprocation(released.transaction_id, 2.0,
                                    truthful=False)
        ledger.release_key(released.transaction_id, 3.0)
        assert ledger.find(released.transaction_id) is released
        ledger.settle(released.transaction_id)
        forgiven = start("E")
        ledger.mark_delivered(forgiven.transaction_id, 1.0)
        ledger.settle(forgiven.transaction_id)
        ledger.forgive(forgiven.transaction_id, 2.0)
        for tx in (aborted, plain, released, forgiven):
            self._check_settled_calls(ledger, tx)
        assert ledger._open == {} and ledger._unsettled == {}

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_key_release_requires_report(self, data):
        """Fuzzed single-transaction walk: release_key succeeds only
        from REPORTED."""
        ledger = ExchangeLedger()
        chain = ledger.begin_chain("A", True, 0.0)
        tx, _ = ledger.create_transaction(chain, "A", "B", "C", 0, 0.0)
        steps = data.draw(st.lists(
            st.sampled_from(["deliver", "report_false", "release"]),
            max_size=6))
        for step in steps:
            state_before = tx.state
            try:
                if step == "deliver":
                    ledger.mark_delivered(tx.transaction_id, 1.0)
                elif step == "report_false":
                    ledger.report_reciprocation(tx.transaction_id,
                                                2.0, truthful=False)
                elif step == "release":
                    ledger.release_key(tx.transaction_id, 3.0)
                    assert state_before is TransactionState.REPORTED
            except (ExchangeError, InvalidTransition):
                pass


class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1000.0),
                    max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_time_never_runs_backwards(self, delays):
        sim = Simulator(seed=1)
        observed = []
        for delay in delays:
            sim.schedule(delay, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_same_time_fifo(self, n):
        sim = Simulator()
        order = []
        for i in range(n):
            sim.schedule(5.0, order.append, i)
        sim.run()
        assert order == list(range(n))

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100),
                              st.booleans()), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_cancelled_events_never_fire(self, spec):
        sim = Simulator()
        fired = []
        handles = []
        for delay, cancel in spec:
            handle = sim.schedule(delay, fired.append, len(handles))
            handles.append((handle, cancel))
        for handle, cancel in handles:
            if cancel:
                handle.cancel()
        sim.run()
        expected = [i for i, (_, cancel) in enumerate(handles)
                    if not cancel]
        assert sorted(fired) == expected
