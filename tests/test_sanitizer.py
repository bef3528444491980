"""Tests for the runtime simulation sanitizer.

The headline cases from the issue: a full fig3-style swarm run passes
under ``Simulator(sanitize=True)``, and an *injected* early key
release — one that corrupts ledger state behind the public API's back,
so the ledger's own checks cannot see it — raises ``SanitizerError``.
"""

import pytest

from repro.core.exchange import ExchangeError, ExchangeLedger
from repro.core.transaction import TransactionState
from repro.devtools import SanitizerError, SimulationSanitizer
from repro.experiments import run_swarm
from repro.net.bandwidth import Uplink
from repro.sim.engine import Simulator, SimulatorError


def sanitized_ledger():
    ledger = ExchangeLedger()
    ledger.sanitizer = SimulationSanitizer()
    return ledger


def start_chain(ledger, initiator="S", requestor="B", payee="C",
                piece=1, now=0.0):
    chain = ledger.begin_chain(initiator, seeded_by_seeder=True, now=now)
    tx, sealed = ledger.create_transaction(
        chain, donor_id=initiator, requestor_id=requestor,
        payee_id=payee, piece_index=piece, now=now)
    return chain, tx, sealed


def reciprocate(ledger, chain, tx, now=1.0):
    """B uploads to payee C, fulfilling tx's reciprocation duty."""
    next_tx, _ = ledger.create_transaction(
        chain, donor_id=tx.requestor_id, requestor_id=tx.payee_id,
        payee_id="D", piece_index=tx.piece_index + 1, now=now,
        reciprocates=tx.transaction_id)
    ledger.mark_delivered(tx.transaction_id, now)
    ledger.mark_delivered(next_tx.transaction_id, now + 1.0)
    return next_tx


class TestFairExchangeInvariant:
    def test_honest_flow_passes(self):
        ledger = sanitized_ledger()
        chain, tx, _ = start_chain(ledger)
        reciprocate(ledger, chain, tx)
        ledger.report_reciprocation(tx.transaction_id, 3.0)
        ledger.release_key(tx.transaction_id, 4.0)
        assert tx.state is TransactionState.COMPLETED
        assert ledger.sanitizer.checks_run > 0

    def test_injected_early_key_release_raises(self):
        # Corrupt the transaction state directly: the ledger now
        # *believes* a report arrived, so its own precondition check
        # passes — only the sanitizer's shadow state knows better.
        ledger = sanitized_ledger()
        chain, tx, _ = start_chain(ledger)
        ledger.mark_delivered(tx.transaction_id, 1.0)
        tx.state = TransactionState.REPORTED  # injected corruption
        with pytest.raises(SanitizerError, match="early key release"):
            ledger.release_key(tx.transaction_id, 2.0)

    def test_injected_truthful_report_without_reciprocation_raises(self):
        ledger = sanitized_ledger()
        chain, tx, _ = start_chain(ledger)
        ledger.mark_delivered(tx.transaction_id, 1.0)
        tx.state = TransactionState.RECIPROCATED  # injected corruption
        with pytest.raises(SanitizerError,
                           match="without an observed reciprocation"):
            ledger.report_reciprocation(tx.transaction_id, 2.0)

    def test_collusive_release_allowed_but_counted(self):
        # The paper's one sanctioned hole (Sec. III-A4): a colluding
        # payee's false report.  A modelled attack, not a bug — the
        # sanitizer lets it through and counts it.
        ledger = sanitized_ledger()
        chain, tx, _ = start_chain(ledger)
        ledger.mark_delivered(tx.transaction_id, 1.0)
        ledger.report_reciprocation(tx.transaction_id, 2.0,
                                    truthful=False)
        ledger.release_key(tx.transaction_id, 3.0)
        assert ledger.sanitizer.collusion_releases == 1

    def test_forgiveness_allowed(self):
        ledger = sanitized_ledger()
        chain, tx, _ = start_chain(ledger)
        ledger.mark_delivered(tx.transaction_id, 1.0)
        ledger.forgive(tx.transaction_id, 2.0)
        assert tx.state is TransactionState.COMPLETED


class TestReopenAbortInvariants:
    """Shadow-state checks on the recovery layer's ledger moves.

    ``reopen`` (the silent-payee rollback) and ``abort`` (the
    unrecoverable write-off) gained sanitizer hooks alongside the
    fault-injection work; these tests drive them both through injected
    corruption — where the ledger's own precondition checks pass and
    only the shadow state knows better — and through the legal path,
    where a reopen must *withdraw* the stale reciprocation evidence.
    """

    def test_reopen_without_observed_reciprocation_raises(self):
        ledger = sanitized_ledger()
        chain, tx, _ = start_chain(ledger)
        ledger.mark_delivered(tx.transaction_id, 1.0)
        tx.state = TransactionState.RECIPROCATED  # injected corruption
        with pytest.raises(SanitizerError, match="no reciprocation"):
            ledger.reopen(tx.transaction_id, 2.0)

    def test_reopen_after_key_release_raises(self):
        ledger = sanitized_ledger()
        chain, tx, _ = start_chain(ledger)
        reciprocate(ledger, chain, tx)
        ledger.report_reciprocation(tx.transaction_id, 3.0)
        ledger.release_key(tx.transaction_id, 4.0)
        tx.state = TransactionState.RECIPROCATED  # injected corruption
        with pytest.raises(SanitizerError,
                           match="after its key was released"):
            ledger.reopen(tx.transaction_id, 5.0)

    def test_reopen_withdraws_reciprocation_evidence(self):
        # A legal reopen, then a truthful report riding the *stale*
        # (pre-rollback) reciprocation: the requestor owes a fresh
        # upload, so the old evidence must no longer carry a report.
        ledger = sanitized_ledger()
        chain, tx, _ = start_chain(ledger)
        reciprocate(ledger, chain, tx)
        ledger.reopen(tx.transaction_id, 3.0)
        assert tx.state is TransactionState.DELIVERED
        tx.state = TransactionState.RECIPROCATED  # injected corruption
        with pytest.raises(SanitizerError,
                           match="without an observed reciprocation"):
            ledger.report_reciprocation(tx.transaction_id, 4.0)

    def test_fresh_reciprocation_after_reopen_passes(self):
        # The full recovery round-trip: reopen, reassign the payee,
        # reciprocate anew, report, release — all legal.
        ledger = sanitized_ledger()
        chain, tx, _ = start_chain(ledger)
        reciprocate(ledger, chain, tx)
        ledger.reopen(tx.transaction_id, 3.0)
        ledger.reassign_payee(tx.transaction_id, "E")
        fresh, _ = ledger.create_transaction(
            chain, donor_id=tx.requestor_id, requestor_id="E",
            payee_id="F", piece_index=tx.piece_index + 2, now=4.0,
            reciprocates=tx.transaction_id)
        ledger.mark_delivered(fresh.transaction_id, 5.0)
        ledger.report_reciprocation(tx.transaction_id, 6.0)
        ledger.release_key(tx.transaction_id, 7.0)
        assert tx.state is TransactionState.COMPLETED

    def test_abort_after_key_release_raises(self):
        ledger = sanitized_ledger()
        chain, tx, _ = start_chain(ledger)
        reciprocate(ledger, chain, tx)
        ledger.report_reciprocation(tx.transaction_id, 3.0)
        ledger.release_key(tx.transaction_id, 4.0)
        tx.state = TransactionState.DELIVERED  # injected corruption
        with pytest.raises(SanitizerError,
                           match="aborted after its key"):
            ledger.abort(tx.transaction_id, 5.0)

    def test_key_release_after_abort_raises(self):
        ledger = sanitized_ledger()
        chain, tx, _ = start_chain(ledger)
        ledger.mark_delivered(tx.transaction_id, 1.0)
        ledger.abort(tx.transaction_id, 2.0)
        tx.state = TransactionState.REPORTED  # injected corruption
        # The aborted exchange left the ledger, which refuses by itself;
        # the sanitizer must still catch it if it came back.
        with pytest.raises(ExchangeError):
            ledger.release_key(tx.transaction_id, 3.0)
        ledger._open[tx.transaction_id] = tx  # injected corruption
        with pytest.raises(SanitizerError,
                           match="released after the transaction "
                                 "aborted"):
            ledger.release_key(tx.transaction_id, 3.0)


class TestEngineInvariants:
    def test_non_finite_schedule_time_raises(self):
        sim = Simulator(sanitize=True)
        with pytest.raises(SanitizerError, match="non-finite"):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SanitizerError, match="non-finite"):
            sim.schedule_at(float("inf"), lambda: None)

    def test_monotonicity_violation_raises(self):
        sim = Simulator(sanitize=True)
        sim.schedule(1.0, lambda: None)
        sim.run()
        # Inject a handle that pretends to fire in the past.
        from repro.sim.engine import EventHandle
        import heapq
        stale = EventHandle(0.5, 999, lambda: None, ())
        heapq.heappush(sim._heap, (stale.time, stale.seq, stale))
        with pytest.raises(SanitizerError, match="monotonicity"):
            sim.step()

    @pytest.mark.parametrize("mode", ["races", "chases", 1, None])
    def test_non_bool_sanitize_rejected(self, mode):
        with pytest.raises(SimulatorError, match="sanitize"):
            Simulator(seed=0, sanitize=mode)

    def test_plain_sim_attaches_nothing(self):
        sim = Simulator(seed=0)
        assert sim.sanitizer is None and sim._observers == []

    def test_normal_run_passes(self):
        sim = Simulator(seed=3, sanitize=True)
        fired = []
        for delay in (0.5, 1.0, 1.5):
            sim.schedule(delay, fired.append, delay)
        sim.run()
        assert fired == [0.5, 1.0, 1.5]
        assert sim.sanitizer.checks_run >= 6


class TestBandwidthInvariants:
    def test_clean_transfer_passes(self):
        sim = Simulator(sanitize=True)
        uplink = Uplink(sim, capacity_kbps=800.0, n_slots=4)
        done = []
        uplink.try_start(64.0, done.append)
        sim.run()
        assert len(done) == 1
        assert uplink.kb_sent == 64.0

    def test_overcredited_transfer_raises(self):
        # Corrupt the accounting mid-flight: the uplink claims more
        # kilobytes than its capacity window allows.
        sim = Simulator(sanitize=True)
        uplink = Uplink(sim, capacity_kbps=800.0, n_slots=4)
        uplink.try_start(64.0, lambda t: None)
        uplink.kb_sent += 10_000.0  # injected corruption
        with pytest.raises(SanitizerError, match="conservation"):
            sim.run()

    def test_slot_corruption_raises(self):
        sim = Simulator(sanitize=True)
        uplink = Uplink(sim, capacity_kbps=800.0, n_slots=4)
        uplink.try_start(64.0, lambda t: None)
        uplink.busy_slots = 17  # injected corruption
        with pytest.raises(SanitizerError, match="busy_slots"):
            sim.run()


class TestFullRun:
    def test_fig3_style_swarm_run_passes_sanitized(self):
        # Fig. 3 scenario shape: flash crowd, all-compliant T-Chain
        # swarm, run to completion.  Scaled down for test time.
        result = run_swarm(protocol="tchain", leechers=12, pieces=12,
                           seed=7, arrival="flash", sanitize=True)
        sanitizer = result.swarm.sim.sanitizer
        assert sanitizer is not None
        assert sanitizer.checks_run > 1000
        assert result.completion_rate("leecher") == 1.0

    def test_sanitized_run_matches_unsanitized(self):
        plain = run_swarm(protocol="tchain", leechers=10, pieces=8,
                          seed=11, freerider_fraction=0.2)
        checked = run_swarm(protocol="tchain", leechers=10, pieces=8,
                            seed=11, freerider_fraction=0.2,
                            sanitize=True)
        assert plain.swarm.sim.events_fired \
            == checked.swarm.sim.events_fired
        assert plain.swarm.sim.now == checked.swarm.sim.now
        assert plain.metrics.mean_completion_time("leecher") \
            == checked.metrics.mean_completion_time("leecher")

    def test_bittorrent_run_passes_sanitized(self):
        result = run_swarm(protocol="bittorrent", leechers=10, pieces=8,
                           seed=5, sanitize=True)
        assert result.swarm.sim.sanitizer.checks_run > 0

    def test_collusion_attack_run_passes_sanitized(self):
        # Colluding free-riders exercise the false-report path; the
        # sanitizer must classify it as a modelled attack, not fail.
        from repro.attacks.freerider import FreeRiderOptions
        result = run_swarm(
            protocol="tchain", leechers=10, pieces=8, seed=13,
            freerider_fraction=0.3, sanitize=True,
            freerider_options=FreeRiderOptions(
                large_view=True, collude=True))
        assert result.swarm.sim.sanitizer is not None

    def test_error_message_carries_trace(self):
        ledger = sanitized_ledger()
        chain, tx, _ = start_chain(ledger)
        ledger.mark_delivered(tx.transaction_id, 1.0)
        tx.state = TransactionState.REPORTED
        with pytest.raises(SanitizerError) as excinfo:
            ledger.release_key(tx.transaction_id, 2.0)
        message = str(excinfo.value)
        assert "recent simulation trace" in message
        assert "delivered" in message
