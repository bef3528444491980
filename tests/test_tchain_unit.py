"""Unit-level tests of the T-Chain protocol glue internals."""

import pytest

from repro.bt.config import SwarmConfig
from repro.bt.protocols import PROTOCOLS
from repro.bt.protocols.tchain import (
    TChainLeecher,
    TChainSeeder,
    TChainState,
    _TChainNode,
)
from repro.bt.swarm import Swarm
from repro.core.messages import EncryptedPieceMessage, PlainPieceMessage
from repro.core.policy import ReciprocityKind
from repro.core.transaction import TransactionState
from tests.ledger_log import recording, transactions


def tchain_swarm(n_pieces=8, seed=1, with_seeder=True, sanitize=False,
                 **overrides):
    overrides.setdefault("n_pieces", n_pieces)
    config = SwarmConfig(seed=seed, **overrides)
    swarm = Swarm(config, sanitize=sanitize)
    seeder = None
    if with_seeder:
        seeder = TChainSeeder(swarm)
        seeder.join()
    return swarm, seeder


def add_leecher(swarm, pieces=(), capacity=800.0):
    leecher = TChainLeecher(swarm, capacity_kbps=capacity)
    leecher.join()
    for piece in pieces:
        leecher.book.add_completed(piece)
    return leecher


class TestSeederInitiation:
    def test_seeder_starts_encrypted_chains(self):
        with recording() as created:
            swarm, seeder = tchain_swarm()
            a = add_leecher(swarm)
            b = add_leecher(swarm)
            swarm.sim.run(until=3.0)
        state = TChainState.of(swarm)
        assert state.registry.created_by_seeder > 0
        encrypted = [t for t in transactions(created)
                     if t.donor_id == seeder.id and t.encrypted]
        assert encrypted

    def test_seeder_respects_flow_window(self):
        swarm, seeder = tchain_swarm()
        add_leecher(swarm)
        seeder.flow.on_piece_sent("L2")
        seeder.flow.on_piece_sent("L2")
        assert "L2" not in seeder._eligible_requestors()

    def test_lone_leecher_served_unencrypted(self):
        """The extreme termination case: a single leecher and the
        seeder — no payee can exist, so pieces flow unencrypted
        (Sec. II-B3)."""
        with recording() as created:
            swarm, seeder = tchain_swarm(n_pieces=4)
            lone = add_leecher(swarm)
            swarm.run(max_time=300.0)
        assert lone.book.is_complete or not lone.active
        assert any(not t.encrypted for t in transactions(created))


class TestDonationPlanning:
    def test_direct_reciprocity_designates_self(self):
        swarm, _ = tchain_swarm(with_seeder=False)
        donor = add_leecher(swarm, pieces=[0, 1])
        requestor = add_leecher(swarm, pieces=[2])
        assert swarm.columnar.are_neighbors(donor.id, requestor.id)
        # neutralize any upload the join-time pumps already started
        donor.book.unexpect(2)
        decision = donor._decide_payee(requestor, {0})
        assert decision.kind is ReciprocityKind.DIRECT
        assert decision.payee_id == donor.id

    def test_indirect_when_requestor_useless_to_donor(self):
        swarm, seeder = tchain_swarm()
        donor = add_leecher(swarm, pieces=[0, 2])
        requestor = add_leecher(swarm, pieces=[2])
        third = add_leecher(swarm)
        for a, b in ((donor.id, requestor.id), (donor.id, third.id)):
            swarm.connect(a, b)
        # donor has nothing to gain from requestor's piece 2
        donor.book.add_completed(2)
        decision = donor._decide_payee(requestor, {0})
        assert decision.kind is ReciprocityKind.INDIRECT
        assert decision.payee_id == third.id

    def test_bootstrap_piece_is_both_need(self):
        swarm, seeder = tchain_swarm()
        newcomer = add_leecher(swarm)
        payee = add_leecher(swarm, pieces=[0, 1, 2])
        swarm.connect(seeder.id, newcomer.id)
        swarm.connect(seeder.id, payee.id)
        piece, decision = seeder._decide_bootstrap(newcomer)
        assert piece is not None
        assert piece in newcomer.book.wanted()
        found = swarm.find_peer(decision.payee_id)
        assert piece in found.book.wanted()

    def test_plan_returns_none_for_satisfied_requestor(self):
        swarm, seeder = tchain_swarm(n_pieces=2)
        sated = add_leecher(swarm, pieces=[0, 1])
        assert seeder._plan_donation(sated.id) is None


class TestNewcomerForward:
    """Pins the newcomer-forward acceptance predicate.

    Wanted / expected / completed are disjoint piece states, so the
    forward branch's former pair of overlapping checks ("reject unless
    wanted-or-expected", then "reject expected-but-not-wanted") reduce
    to exactly ``piece in requestor.book.wanted()`` — these tests pin
    that behaviour across all three states of the forwarded piece.
    """

    def forward_setup(self):
        swarm, _ = tchain_swarm(with_seeder=False)
        origin = add_leecher(swarm, pieces=[0])
        newcomer = add_leecher(swarm)
        target = add_leecher(swarm, pieces=[1])
        ledger = TChainState.of(swarm).ledger
        chain = ledger.begin_chain(origin.id, False, 0.0)
        tx, _sealed = ledger.create_transaction(
            chain, origin.id, newcomer.id, target.id, 0, 0.0)
        return swarm, newcomer, target, tx

    def test_forward_rejected_when_piece_expected(self):
        swarm, newcomer, target, tx = self.forward_setup()
        target.book.expect(0)  # in flight from elsewhere: not wanted
        plan = newcomer._plan_donation(target.id, reciprocates=tx,
                                       forward_of=tx)
        assert plan is None

    def test_forward_rejected_when_piece_completed(self):
        swarm, newcomer, target, tx = self.forward_setup()
        target.book.add_completed(0)
        plan = newcomer._plan_donation(target.id, reciprocates=tx,
                                       forward_of=tx)
        assert plan is None

    def test_forward_served_when_piece_wanted(self):
        swarm, newcomer, target, tx = self.forward_setup()
        assert 0 in target.book.wanted()
        plan = newcomer._plan_donation(target.id, reciprocates=tx,
                                       forward_of=tx)
        assert plan is not None
        assert plan.piece == 0
        assert plan.receiver_id == target.id
        # The forwarded upload reuses the original sealed piece's key.
        ledger = TChainState.of(swarm).ledger
        forwarded = ledger.get(plan.tx)
        assert forwarded.key_id == tx.key_id


class TestObligationFlow:
    def drive_one_exchange(self, swarm, seeder):
        """Run until at least one encrypted delivery lands."""
        swarm.sim.run(until=5.0)

    def test_encrypted_piece_creates_obligation(self):
        swarm, seeder = tchain_swarm()
        a = add_leecher(swarm)
        b = add_leecher(swarm)
        self.drive_one_exchange(swarm, seeder)
        state = TChainState.of(swarm)
        holders = [p for p in (a, b) if p.pending_sealed]
        assert holders
        for holder in holders:
            assert holder.book.completed_count >= 0

    def test_full_swarm_obligations_all_settle(self):
        swarm, seeder = tchain_swarm(n_pieces=6)
        peers = [add_leecher(swarm) for _ in range(6)]
        swarm.run(max_time=600.0)
        for peer in peers:
            assert not peer.active  # finished and left

    def test_plain_piece_completes_without_obligation(self):
        swarm, seeder = tchain_swarm(n_pieces=4)
        lone = add_leecher(swarm)
        swarm.sim.run(until=10.0)
        assert not lone.obligations
        assert lone.book.completed_count > 0


class TestBackoffMechanics:
    def test_strikes_grow_backoff_exponentially(self):
        swarm, seeder = tchain_swarm()
        stall = TChainState.of(swarm).stall_timeout_s
        seeder.note_exchange_written_off("X")
        first = seeder._banned_until["X"] - swarm.sim.now
        seeder.note_exchange_written_off("X")
        second = seeder._banned_until["X"] - swarm.sim.now
        assert first == stall
        assert second == 2 * stall
        assert not seeder.cooperative("X")

    def test_backoff_caps(self):
        swarm, seeder = tchain_swarm()
        stall = TChainState.of(swarm).stall_timeout_s
        for _ in range(12):
            seeder.note_exchange_written_off("X")
        cap = _TChainNode.MAX_BACKOFF_FACTOR * stall
        assert seeder._banned_until["X"] - swarm.sim.now == cap

    def test_watchdogs_read_typed_config_fields(self):
        swarm, seeder = tchain_swarm(chain_stall_timeout_s=40.0,
                                     quiet_window_s=25.0)
        seeder.note_exchange_written_off("X")
        assert seeder._banned_until["X"] - swarm.sim.now == 40.0
        # Only the seeder's 10 s rescan ticks are left: the run is
        # quiet once the next tick lies beyond the 25 s window.
        swarm.run(max_time=1000.0, stop_when_drained=False)
        assert swarm.stop_reason == "quiescent"
        assert swarm.sim.now < 25.0

    def test_report_clears_strikes(self):
        swarm, seeder = tchain_swarm()
        seeder.note_exchange_written_off("X")
        seeder.note_exchange_completed("X")
        assert seeder.cooperative("X")
        assert "X" not in seeder._strikes


class TestSeederSnubbing:
    def test_full_seeder_snubs_every_backed_off_neighbor(self):
        """Regression: ``on_rescan`` walks the topology's sorted
        neighbour list while ``disconnect`` deletes from that same
        list, so without a snapshot the neighbour after each snubbed
        one is skipped."""
        swarm, seeder = tchain_swarm(max_neighbors=3,
                                     seeder_capacity_kbps=0.0)
        a, b, c = (add_leecher(swarm) for _ in range(3))
        columnar = swarm.columnar
        assert columnar.sorted_neighbors(seeder.id) == [a.id, b.id, c.id]
        seeder.note_exchange_written_off(a.id)
        seeder.note_exchange_written_off(b.id)  # adjacent in the list
        seeder.on_rescan()
        assert columnar.sorted_neighbors(seeder.id) == [c.id]
        assert not columnar.are_neighbors(a.id, seeder.id)
        assert not columnar.are_neighbors(b.id, seeder.id)
        swarm.columnar.check_consistency()


class TestReopenFlow:
    def test_reopen_requeues_obligation(self):
        swarm, seeder = tchain_swarm()
        leecher = add_leecher(swarm)
        other = add_leecher(swarm)
        swarm.sim.run(until=4.0)
        state = TChainState.of(swarm)
        # find a delivered encrypted tx held by a leecher
        candidates = [
            (p, tx_id) for p in (leecher, other)
            for tx_id in p.pending_sealed
            if state.ledger.get(tx_id).state
            is TransactionState.DELIVERED
        ]
        if not candidates:
            pytest.skip("no delivered transaction at this instant")
        peer, tx_id = candidates[0]
        tx = state.ledger.get(tx_id)
        tx.advance(TransactionState.RECIPROCATED)
        peer.obligations = ()
        peer._check_key_timeout(tx_id)
        # The timeout pleads to the donor (an async control message);
        # once the plead lands the donor reopens the transaction and
        # reassigns the payee — or forgives outright.  Either way it
        # must not stay RECIPROCATED.
        recovery = swarm.metrics.recovery
        assert recovery.key_timeouts == 1
        assert recovery.pleads == 1
        swarm.sim.run(until=swarm.sim.now + 1.0)
        assert tx.state is not TransactionState.RECIPROCATED
        assert recovery.reopens + recovery.forgives >= 1
        if tx.state is TransactionState.DELIVERED \
                and not peer.uploading_to(tx.payee_id or ""):
            assert tx_id in peer.obligations


class TestWhitewashMidExchange:
    """``Swarm.rebrand`` while the peer has open ledger transactions.

    The ledger keys every open transaction by peer *identity*, so an
    identity change mid-exchange leaves stale state behind: the paper
    turns that into a feature (Sec. III-A3 — a whitewasher forfeits
    its sealed pieces), and ``TChainLeecher.on_whitewash`` implements
    the forfeit so the abandoned identity cannot wedge anyone.
    """

    def _mid_exchange_victim(self, swarm, peers):
        state = TChainState.of(swarm)
        for peer in peers:
            if peer.active and state.ledger.open_transactions_involving(
                    peer.id):
                return peer
        return None

    def test_rebrand_swaps_identity_and_forfeits_exchanges(self):
        swarm, seeder = tchain_swarm(n_pieces=8)
        peers = [add_leecher(swarm) for _ in range(4)]
        swarm.sim.run(until=5.0)
        victim = self._mid_exchange_victim(swarm, peers)
        if victim is None:
            pytest.skip("no peer mid-exchange at this instant")
        state = TChainState.of(swarm)
        old_id = victim.id
        open_before = state.ledger.open_transactions_involving(old_id)
        sealed_pieces = [s.piece_index
                         for s in victim.pending_sealed.values()]
        new_id = victim.whitewash()
        assert new_id != old_id
        assert swarm.find_peer(old_id) is None
        assert swarm.find_peer(new_id) is victim
        assert old_id not in swarm.columnar
        # The ledger still names the abandoned identity — rebrand
        # never launders exchange state onto the new one...
        for tx in open_before:
            assert new_id not in (tx.donor_id, tx.requestor_id,
                                  tx.payee_id)
        # ...and the peer's side of every exchange is forfeited: no
        # obligations, no sealed pieces, and each dropped sealed
        # piece is wanted again (re-fetchable under the new id).
        assert not victim.obligations
        assert not victim.pending_sealed
        for piece in sealed_pieces:
            assert piece in victim.book.wanted()

    def test_rebrand_mid_exchange_wedges_nobody(self):
        swarm, seeder = tchain_swarm(n_pieces=8)
        peers = [add_leecher(swarm) for _ in range(6)]
        washed = []

        def wash():
            victim = self._mid_exchange_victim(swarm, peers)
            if victim is not None:
                washed.append(victim)
                victim.whitewash()

        swarm.sim.schedule(6.0, wash)
        swarm.run(max_time=1200.0)
        assert washed, "no peer was mid-exchange at t=6"
        # Everyone finishes — including the whitewasher, which paid
        # for its identity change by re-fetching the forfeited pieces.
        for peer in peers:
            assert peer.finish_time is not None, peer.id


class TestDepartureHandling:
    def test_completed_leechers_leave_cleanly(self):
        swarm, seeder = tchain_swarm(n_pieces=6)
        for _ in range(8):
            add_leecher(swarm)
        swarm.run(max_time=800.0)
        state = TChainState.of(swarm)
        # all chains closed, no open transactions left behind by
        # departed peers except the seeder's in-flight ones
        assert state.registry.active_count <= seeder.uplink.n_slots

    def test_midswarm_departure_does_not_wedge_others(self):
        swarm, seeder = tchain_swarm(n_pieces=10)
        peers = [add_leecher(swarm) for _ in range(6)]
        victim = peers[0]
        swarm.sim.schedule(6.0, victim.leave)
        swarm.run(max_time=900.0)
        for peer in peers[1:]:
            assert peer.finish_time is not None


class TestMessages:
    def test_payloads_typed(self):
        with recording() as created:
            swarm, seeder = tchain_swarm()
            add_leecher(swarm)
            add_leecher(swarm)
            swarm.sim.run(until=5.0)
        seen = set()
        for tx in transactions(created):
            seen.add(tx.encrypted)
        assert True in seen  # encrypted traffic happened

    def test_leecher_rejects_foreign_payload(self):
        swarm, seeder = tchain_swarm()
        leecher = add_leecher(swarm)
        with pytest.raises(TypeError):
            leecher.on_payload(3, "S1")


class TestForgiveWindowAccounting:
    """Regression: forgiving a transaction that was already written
    off used to drain the flow window a second time (the stall
    watchdog racing the plead/forgive path), re-opening a blocked
    neighbor early (before it had drained its window)."""

    def _delivered_exchange(self):
        from repro.bt.protocols.tchain import _write_off
        swarm, seeder = tchain_swarm(n_pieces=4)
        donor = add_leecher(swarm)       # empty book: pump plans nothing
        requestor = add_leecher(swarm)
        state = TChainState.of(swarm)
        ledger = state.ledger
        chain = ledger.begin_chain(donor.id, True, 0.0)
        tx, _ = ledger.create_transaction(
            chain, donor.id, requestor.id, payee_id=seeder.id,
            piece_index=0, now=0.0)
        ledger.mark_delivered(tx.transaction_id, 0.0)
        return swarm, donor, requestor, state, tx, _write_off

    def test_forgive_after_write_off_drains_window_once(self):
        swarm, donor, requestor, state, tx, write_off = \
            self._delivered_exchange()
        donor.flow.on_piece_sent(requestor.id)
        donor.flow.on_piece_sent(requestor.id)
        assert not donor.flow.eligible(requestor.id)
        assert requestor.id in donor.flow.blocked
        write_off(state, tx)  # the watchdog drains one exchange
        assert donor.flow.pending(requestor.id) == 1
        donor.reassign_or_forgive(tx, None)  # forced forgiveness
        # Pre-fix this double-drained to 0 and the real outstanding
        # exchange vanished from the window.
        assert donor.flow.pending(requestor.id) == 1
        assert donor.flow.underflows == 0

    def test_forgive_without_write_off_still_drains(self):
        swarm, donor, requestor, state, tx, _ = \
            self._delivered_exchange()
        donor.flow.on_piece_sent(requestor.id)
        donor.reassign_or_forgive(tx, None)
        assert donor.flow.pending(requestor.id) == 0


class TestUnderflowClassification:
    """``FlowController`` remembers forgotten ids only for the
    sanitizer's benefit; with one attached the classification of a
    straggling confirm must be what it always was."""

    def _pair(self, **overrides):
        swarm, _ = tchain_swarm(**overrides)
        return swarm, add_leecher(swarm), add_leecher(swarm)

    def test_confirm_after_forget_is_benign(self):
        swarm, donor, neighbor = self._pair(sanitize=True)
        sanitizer = swarm.sim.sanitizer
        donor.flow.on_piece_sent(neighbor.id)
        neighbor.leave()  # disconnect -> donor.flow.forget(neighbor.id)
        assert donor.flow.was_forgotten(neighbor.id)
        checks = sanitizer.checks_run
        donor.flow.on_reciprocation_confirmed(neighbor.id)
        assert donor.flow.underflows == 1
        assert sanitizer.checks_run == checks + 1
        assert "benign" in sanitizer._trace[-1]

    def test_confirm_without_forget_escalates(self):
        from repro.devtools.sanitizer import SanitizerError
        swarm, donor, neighbor = self._pair(sanitize=True)
        with pytest.raises(SanitizerError, match="never forgotten"):
            donor.flow.on_reciprocation_confirmed(neighbor.id)

    def test_unsanitized_node_keeps_no_ids(self):
        swarm, donor, neighbor = self._pair()
        neighbor.leave()
        assert donor.flow._forgotten is None
        donor.flow.on_reciprocation_confirmed(neighbor.id)  # no reader
        assert donor.flow.underflows == 1


class TestDeadLetterPieces:
    """Regression: a piece in flight when its transaction aborted
    (donor departure racing a stalled payload) used to drive the
    ledger through the illegal ABORTED -> DELIVERED edge, and — once
    dropped — left the piece marked expected forever, wedging the
    requestor one piece short of completion."""

    def _aborted_in_flight(self):
        from repro.core.crypto import SealedPiece
        swarm, seeder = tchain_swarm(n_pieces=4)
        donor = add_leecher(swarm)
        requestor = add_leecher(swarm)
        state = TChainState.of(swarm)
        ledger = state.ledger
        chain = ledger.begin_chain(donor.id, True, 0.0)
        tx, sealed = ledger.create_transaction(
            chain, donor.id, requestor.id, payee_id=seeder.id,
            piece_index=0, now=0.0)
        requestor.book.expect(0)  # the transfer started
        ledger.abort(tx.transaction_id, 0.0)  # donor departed
        if sealed is None:
            sealed = SealedPiece(piece_index=0, key_id=tx.key_id)
        msg = EncryptedPieceMessage(
            transaction_id=tx.transaction_id, chain_id=tx.chain_id,
            sealed=sealed, donor_id=donor.id,
            requestor_id=requestor.id, payee_id=seeder.id)
        return swarm, requestor, tx, msg

    def test_late_piece_on_aborted_tx_is_dropped(self):
        swarm, requestor, tx, msg = self._aborted_in_flight()
        # Pre-fix: InvalidTransition (aborted -> delivered).
        requestor.on_payload(msg, msg.donor_id)
        assert tx.state is TransactionState.ABORTED
        assert msg.transaction_id not in requestor.pending_sealed
        assert msg.transaction_id not in requestor.obligations
        assert swarm.metrics.recovery.dead_letters == 1

    def test_dropped_piece_is_rewanted(self):
        swarm, requestor, tx, msg = self._aborted_in_flight()
        requestor.on_payload(msg, msg.donor_id)
        # Pre-fix (first follow-up): the piece stayed "expected" and
        # was never re-fetched, wedging the requestor at n-1 pieces.
        assert not requestor.book.is_expected(0)
        assert 0 in requestor.book.wanted()


class TestChainRevival:
    """A chain the stall watchdog wrote off comes back when its
    requestor reciprocates after all (``ChainRegistry.revive``)."""

    def test_stalled_chain_revives_on_late_reciprocation(self):
        from repro.bt.protocols.tchain import _check_stall
        swarm, _ = tchain_swarm(n_pieces=4, with_seeder=False)
        donor = add_leecher(swarm)
        requestor = add_leecher(swarm)
        payee = add_leecher(swarm)
        requestor.book.add_completed(1)  # something to pay with
        state = TChainState.of(swarm)
        ledger, registry = state.ledger, state.registry
        chain = ledger.begin_chain(donor.id, False, 0.0)
        tx, _ = ledger.create_transaction(
            chain, donor.id, requestor.id, payee_id=payee.id,
            piece_index=0, now=0.0)
        ledger.mark_delivered(tx.transaction_id, 0.0)
        # Idle requestor, obligation not queued: the watchdog takes it
        # for a free-rider and ends the chain.
        _check_stall(state, tx.transaction_id)
        assert not registry.is_active(chain.chain_id)
        assert (registry.active_count, registry.total_count) == (0, 1)
        assert registry.lifetimes() == [0.0]

        requestor._owe(tx.transaction_id)
        requestor.pump()
        assert requestor.uploading_to(payee.id)
        follow_up = [t for t in
                     ledger.open_transactions_involving(requestor.id)
                     if t.reciprocates == tx.transaction_id]
        assert [(t.chain_id, t.index_in_chain) for t in follow_up] \
            == [(chain.chain_id, 1)]
        # Back among the live chains, counted once.
        assert registry.is_active(chain.chain_id)
        assert (registry.active_count, registry.total_count) == (1, 1)
        assert registry.chain_lengths() == [2]
        assert registry.lifetimes() == []
        assert registry.get(chain.chain_id).length == 2

        registry.terminate(chain.chain_id, 7.0)
        assert (registry.active_count, registry.total_count) == (0, 1)
        assert registry.lifetimes() == [7.0]
