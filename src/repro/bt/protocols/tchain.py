"""T-Chain applied to BitTorrent (Sections II and III of the paper).

This module wires the pure-logic core (:mod:`repro.core`) into the
swarm simulator.  The moving parts, mapped to the paper:

* **Initiation** — :class:`TChainSeeder` starts a chain on every free
  upload slot: random flow-eligible requestor, payee designation,
  encrypted upload (Fig. 1(a)).
* **Continuation** — on receiving an encrypted piece, a leecher queues
  an *obligation* to upload to the designated payee; fulfilling it is
  itself the next transaction (Fig. 1(b)).
* **Termination** — a donor that can find no payee uploads an
  unencrypted piece, releasing the receiver (Fig. 1(c)).
* **Newcomer bootstrapping** — a requestor with no completed pieces is
  served a piece both it and the payee need, which it reciprocates by
  forwarding the still-encrypted piece (Sec. II-D1).
* **Flow control** — per-neighbor pending window k = 2 (Sec. II-D2).
* **Opportunistic seeding** — an idle leecher with completed pieces and
  no outstanding uploads initiates its own chain (Sec. II-D3).
* **Departure handling** — key handovers and payee reassignment
  (Sec. II-B4).

Control messages (reception reports, key releases, pleads) travel with
``config.control_latency_s`` delay and zero bandwidth (Sec. III-C),
and cross :meth:`repro.bt.swarm.Swarm.send_control` — the choke point
where fault injection (:mod:`repro.faults`) may drop or delay them.

**Recovery layer** (docs/FAULTS.md): every control message that can be
lost has a timer watching it.  Payees retransmit unacknowledged
reception reports and donors retransmit undelivered key releases, both
with capped exponential backoff; a requestor whose key never arrives
*pleads* to the donor (:class:`repro.core.messages.PleadMessage`),
which reopens the transaction and reassigns the payee
(``ExchangeLedger.reopen`` + ``reassign_payee``) or re-releases a key
whose delivery was lost; exchanges whose donor crashed uncleanly with
no key handover are written off as orphans (the requestor drops the
sealed piece and re-fetches).  All of it is accounted in
:class:`repro.analysis.metrics.RecoveryCounters`.
"""

from __future__ import annotations

import sys
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from repro.bt.peer import Peer, UploadPlan
from repro.bt.protocols.base import BaselineLeecher
from repro.bt.torrent import (
    full_book,
    mask_bits,
    piece_payload,
    set_to_mask,
)
from repro.core.chain import Chain, ChainRegistry
from repro.core.exchange import ExchangeLedger
from repro.core.flow_control import FlowController
from repro.core.messages import (
    EncryptedPieceMessage,
    PlainPieceMessage,
    PleadMessage,
    acquire_plain_piece,
    release_plain_piece,
)
from repro.core.policy import (
    PayeeDecision,
    ReciprocityKind,
    select_payee,
    should_opportunistically_seed,
)
from repro.core.transaction import Transaction, TransactionState
from repro.sim.events import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.swarm import Swarm

#: Retry cadence for obligations that could not be fulfilled right now
#: (payee busy, reassignment churn): without a retry timer a peer with
#: no other inbound events would sit on a fulfillable obligation.
OBLIGATION_RETRY_S = 2.0

#: Seconds a requestor waits for a key after reciprocating before it
#: pleads to the donor (the reception report or the key was
#: swallowed), so one lost control message cannot wedge a piece.
KEY_TIMEOUT_S = 60.0

#: Retransmission of unacknowledged reports and keys:
#: ``CONTROL_RETRY_BASE_S * 2**(attempt-1)`` seconds apart, capped at
#: ``CONTROL_RETRY_CAP_S``, at most ``CONTROL_RETRY_ATTEMPTS`` times.
#: Retry timers are scheduled *unconditionally* and no-op against
#: shared ledger state, so a fault-free run fires exactly the same
#: timers as a faulty one — the determinism contract survives.
CONTROL_RETRY_BASE_S = 2.0
CONTROL_RETRY_ATTEMPTS = 2
CONTROL_RETRY_CAP_S = 16.0


def _retry_delay(attempt: int) -> float:
    """Backoff before retransmission ``attempt`` (1-based)."""
    return min(CONTROL_RETRY_BASE_S * (2.0 ** (attempt - 1)),
               CONTROL_RETRY_CAP_S)


class TChainState:
    """Shared per-swarm T-Chain state (ledger, chain registry, timers)."""

    def __init__(self, swarm: "Swarm"):
        config = swarm.config
        self.swarm = swarm
        self.registry = ChainRegistry()
        self.ledger = ExchangeLedger(self.registry,
                                     real_crypto=config.real_crypto)
        #: The run's sanitizer, or None: fixed when the simulator is
        #: built, so everything that exists only to feed it (ledger
        #: mirroring, forgotten-neighbor ids) is decided once, here.
        self.sanitizer = getattr(swarm.sim, "sanitizer", None)
        # Mirror ledger transitions into it so fair-exchange
        # violations surface with a trace.
        self.ledger.sanitizer = self.sanitizer
        self.handover: Set[int] = set()
        self.colluders: Set[str] = set()
        self.stall_timeout_s = config.chain_stall_timeout_s
        self._sampler = PeriodicTask(
            swarm.sim, config.chain_sample_interval_s,
            lambda: self.registry.sample(swarm.sim.now), first_delay=0.0)

    @classmethod
    def of(cls, swarm: "Swarm") -> "TChainState":
        """The swarm's T-Chain state, created on first use."""
        state = getattr(swarm, "_tchain_state", None)
        if state is None:
            state = cls(swarm)
            swarm._tchain_state = state
        return state

    def are_colluders(self, a: str, b: str) -> bool:
        """Are both peers in the colluder set?"""
        return a in self.colluders and b in self.colluders


class _TChainNode(Peer):
    """Behaviour shared by T-Chain seeders and leechers (donor side)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.state = TChainState.of(self.swarm)
        # Forgotten-neighbor ids have one reader, the sanitizer's
        # underflow classification in _on_flow_underflow.
        self.flow = FlowController(
            self.swarm.config.flow_control_k,
            remember_forgotten=self.state.sanitizer is not None)
        # Adaptive receiver selection, the "banned" half (Sec. II-D2):
        # every written-off exchange is a strike; strikes back a
        # neighbor off exponentially (stall, 2*stall, 4*stall, ...)
        # and any reciprocation report clears them.  Honest peers
        # never accumulate strikes; silent free-riders decay to
        # nothing; colluders recycle at their false-report rate.
        self._strikes: Dict[str, int] = {}
        self._banned_until: Dict[str, float] = {}
        self.flow.on_underflow = self._on_flow_underflow

    def _on_flow_underflow(self, neighbor_id: str) -> None:
        # A confirm that finds an empty window is benign only when the
        # neighbor's flow state was dropped by forget() (disconnect
        # with a report still in flight); otherwise some exchange was
        # drained twice — escalate when the sanitizer is attached.
        sanitizer = self.state.sanitizer
        if sanitizer is not None:
            sanitizer.on_flow_underflow(
                self.id, neighbor_id,
                benign=self.flow.was_forgotten(neighbor_id))

    #: Backoff cap: stall × 2^(strikes−1) saturates here, so a chronic
    #: non-reciprocator is throttled to one donation per
    #: MAX_BACKOFF_FACTOR × stall rather than banned without bound —
    #: matching the paper's "slower than dial-up" trickle (Fig. 8).
    MAX_BACKOFF_FACTOR = 16

    def note_exchange_written_off(self, neighbor_id: str) -> None:
        """A donation to this neighbor died unreciprocated."""
        strikes = self._strikes.get(neighbor_id, 0) + 1
        self._strikes[neighbor_id] = strikes
        factor = min(2 ** (strikes - 1), self.MAX_BACKOFF_FACTOR)
        backoff = self.state.stall_timeout_s * factor
        self._banned_until[neighbor_id] = self.sim.now + backoff

    def note_exchange_completed(self, neighbor_id: str) -> None:
        """This neighbor reciprocated (or so a report claims)."""
        self._strikes.pop(neighbor_id, None)
        self._banned_until.pop(neighbor_id, None)

    def cooperative(self, neighbor_id: str) -> bool:
        """False while the neighbor is backed off."""
        return self.sim.now >= self._banned_until.get(neighbor_id, 0.0)

    def on_rescan(self) -> None:
        """Connection management: a *seeder* whose neighbor table is
        full snubs backed-off neighbors so useful peers can connect.

        Without this, re-announcing large-view free-riders eclipse the
        seeder the moment departures free its slots, and honest
        stragglers whose remaining pieces only the seeder holds starve
        behind a wall of attackers.  Ordinary leechers do NOT snub:
        strikes against honest-but-slow peers are common enough that
        leecher-side snubbing fragments the compliant topology and
        slows everyone down (measured on the Fig. 9 trace workload).
        """
        if self.kind != "seeder":
            return
        topology = self.swarm.topology
        if topology.degree(self.id) < topology.max_neighbors:
            return
        for neighbor_id in topology.sorted_neighbors(self.id):
            if not self.cooperative(neighbor_id) \
                    and not self.uploading_to(neighbor_id):
                topology.disconnect(self.id, neighbor_id)

    def accepts_connection_from(self, peer_id: str) -> bool:
        """A seeder refuses connections from peers it has backed off —
        otherwise evicted large-view free-riders reconnect within one
        announce period and re-eclipse it."""
        if self.kind != "seeder":
            return True
        return self.cooperative(peer_id)

    # ------------------------------------------------------------------
    # Donor planning
    # ------------------------------------------------------------------
    def _eligible_requestors(self) -> List[str]:
        """Neighbors we could start serving right now, sorted: live,
        wanting a piece of ours, not already being served, inside
        their flow window and not backed off."""
        return self._unblocked(
            self.swarm.columnar.wanters(self, self.book.cmask),
            self._in_flight_to)

    def _unblocked(self, ids: List[str], exclude=()) -> List[str]:
        """Drop ``exclude``, neighbors over their flow window
        (``flow.blocked``) and neighbors still backed off (``not
        cooperative``); order is kept."""
        blocked = self.flow.blocked
        if exclude or blocked:
            ids = [nid for nid in ids
                   if nid not in exclude and nid not in blocked]
        return self._cooperative(ids)

    def _cooperative(self, ids: List[str]) -> List[str]:
        """``ids`` minus the neighbors still backed off."""
        banned = self._banned_until
        if not banned:
            return ids
        now = self.sim.now
        return [nid for nid in ids if now >= banned.get(nid, 0.0)]

    def _wanting(self, requestor: Peer,
                 extra: Iterable[int]) -> List[str]:
        """Our live neighbors, requestor excluded, that want >=1 of
        the requestor's completed pieces or of ``extra`` — the
        Sec. II-B2 payee-candidacy scan, in sorted-id order."""
        requestor_id = requestor.id
        offer = requestor.book.cmask | set_to_mask(extra)
        return [nid for nid in self.swarm.columnar.wanters(self, offer)
                if nid != requestor_id]

    def _payee_candidates(self, requestor: Peer,
                          offered: Iterable[int]) -> List[str]:
        """Our neighbors that need ≥1 of the requestor's pieces
        (including the piece about to be uploaded), Sec. II-B2."""
        return self._cooperative(self._wanting(requestor, offered))

    def _plan_donation(self, requestor_id: str,
                       reciprocates: Optional[Transaction] = None,
                       forward_of: Optional[Transaction] = None,
                       ) -> Optional[UploadPlan]:
        """Build the upload plan for serving ``requestor_id``.

        ``reciprocates`` is the transaction this upload fulfils (we
        were its requestor); ``forward_of`` marks the newcomer forward
        case, fixing the piece.  Returns None when the requestor
        cannot be served; the caller decides what that means.
        """
        config = self.swarm.config
        requestor = self.swarm.find_peer(requestor_id)
        if requestor is None or not requestor.active:
            return None

        piece: Optional[int] = None
        decision: Optional[PayeeDecision] = None

        if forward_of is not None:
            # Newcomer forwarding: the piece is fixed.  The requestor
            # must still *want* it; wanted/expected/completed are
            # disjoint, so the two former overlapping checks (reject
            # unless wanted-or-expected, then reject expected-but-not-
            # wanted) both reduce to exactly this.
            piece = forward_of.piece_index
            if not requestor.book.wants(piece):
                return None
            decision = self._decide_payee(requestor, {piece})
        elif config.newcomer_bootstrap \
                and requestor.book.completed_count == 0 \
                and self.book.completed_count > 0:
            # Both-need rule (Sec. II-D1): pick payee and piece jointly.
            piece, decision = self._decide_bootstrap(requestor)
            if piece is None:
                # No both-need combination: fall back to plain LRF.
                piece = requestor.choose_piece_from(self)
                if piece is None:
                    return None
                decision = self._decide_payee(requestor, {piece})
        else:
            piece = requestor.choose_piece_from(self)
            if piece is None:
                return None
            decision = self._decide_payee(requestor, {piece})

        return self._materialize(requestor, piece, decision,
                                 reciprocates, forward_of)

    def _decide_payee(self, requestor: Peer,
                      offered: Iterable[int]) -> PayeeDecision:
        config = self.swarm.config
        direct_possible = self.is_interested_in(requestor)
        if not config.indirect_reciprocity:
            candidates: List[str] = []
        else:
            candidates = self._payee_candidates(requestor, offered)
        decision = select_payee(self.id, requestor.id, direct_possible,
                                candidates, self.flow, self.sim.rng)
        if decision.terminates_chain and candidates:
            # Someone *does* need the requestor's pieces, they are just
            # all over their flow window.  Terminating here would gift
            # a plaintext piece; instead keep the exchange encrypted
            # and pick the least-loaded candidate (the alternative
            # selection rule of Sec. II-D2).
            pool = self.flow.least_loaded(candidates)
            pool = [c for c in pool
                    if c not in (self.id, requestor.id)]
            if pool:
                return PayeeDecision(ReciprocityKind.INDIRECT,
                                     self.sim.rng.choice(sorted(pool)))
        return decision

    def _decide_bootstrap(self, requestor: Peer
                          ) -> Tuple[Optional[int],
                                     Optional[PayeeDecision]]:
        """Joint payee+piece choice for a newcomer requestor."""
        usable = self.book.cmask & requestor.book.wmask
        if not usable:
            return None, None
        candidates = self._unblocked(
            self.swarm.columnar.wanters(self, usable), (requestor.id,))
        if not candidates:
            return None, None
        payee_id = self.sim.rng.choice(candidates)
        payee = self.swarm.find_peer(payee_id)
        # The both-need rule (core.bootstrap.select_bootstrap_piece)
        # on masks: uniform over donor ∩ requestor-wants ∩ payee-wants,
        # non-empty because the payee was picked for wanting ``usable``.
        piece = self.sim.rng.choice(
            mask_bits(usable & payee.book.wmask))
        return piece, PayeeDecision(ReciprocityKind.INDIRECT, payee_id)

    def _materialize(self, requestor: Peer, piece: int,
                     decision: PayeeDecision,
                     reciprocates: Optional[Transaction],
                     forward_of: Optional[Transaction]
                     ) -> Optional[UploadPlan]:
        """Create the ledger transaction and the upload plan."""
        ledger = self.state.ledger
        now = self.sim.now
        if reciprocates is not None:
            chain = ledger.registry.get(reciprocates.chain_id)
            if not chain.active:
                # A watchdog or cancellation wrote the chain off while
                # this reciprocation was still pending; it lives on.
                ledger.registry.revive(chain.chain_id)
        else:
            chain = None  # lazily created below

        if decision.terminates_chain:
            if not self._may_terminate(reciprocates):
                return None
            if chain is None:
                chain = ledger.begin_chain(self.id, self.kind == "seeder",
                                           now)
            tx, _ = ledger.create_transaction(
                chain, self.id, requestor.id, None, piece, now,
                reciprocates=(reciprocates.transaction_id
                              if reciprocates else None),
                encrypted=False)
            payload = acquire_plain_piece(
                transaction_id=tx.transaction_id,
                chain_id=chain.chain_id, piece_index=piece,
                donor_id=self.id, requestor_id=requestor.id,
                reciprocates=tx.reciprocates)
            return UploadPlan(receiver_id=requestor.id, piece=piece,
                              payload=payload,
                              meta={"tx": tx.transaction_id})

        if chain is None:
            chain = ledger.begin_chain(self.id, self.kind == "seeder", now)
        payload_bytes = None
        if ledger.real_crypto and forward_of is None:
            payload_bytes = piece_payload(self.swarm.torrent, piece)
        tx, sealed = ledger.create_transaction(
            chain, self.id, requestor.id, decision.payee_id, piece, now,
            reciprocates=(reciprocates.transaction_id
                          if reciprocates else None),
            direct=decision.kind is ReciprocityKind.DIRECT,
            forward_of=(forward_of.transaction_id
                        if forward_of else None),
            payload=payload_bytes)
        payload = EncryptedPieceMessage(
            transaction_id=tx.transaction_id, chain_id=chain.chain_id,
            sealed=sealed, donor_id=self.id, requestor_id=requestor.id,
            payee_id=decision.payee_id, reciprocates=tx.reciprocates)
        return UploadPlan(receiver_id=requestor.id, piece=piece,
                          payload=payload,
                          meta={"tx": tx.transaction_id})

    def _may_terminate(self, reciprocates: Optional[Transaction]) -> bool:
        """May we upload unencrypted here?  Seeders and obligated
        donors must (the protocol requires the upload); voluntary
        donors simply decline instead of gifting pieces."""
        return self.kind == "seeder" or reciprocates is not None

    # ------------------------------------------------------------------
    # Donor-side message handling
    # ------------------------------------------------------------------
    def on_upload_started(self, plan: UploadPlan) -> None:
        if isinstance(plan.payload, EncryptedPieceMessage):
            self.flow.on_piece_sent(plan.receiver_id)
            timeout = self.state.stall_timeout_s
            if timeout:
                self.sim.schedule(timeout, _check_stall, self.state,
                                  plan.payload.transaction_id)

    def on_payload_delivered(self, plan: UploadPlan, payload) -> None:
        """Reclaim a consumed plain-piece message for the pool.

        Only when the receiver kept no reference: at this point the
        expected holders are the delivery frame's local, our
        ``payload`` parameter and ``getrefcount``'s own argument —
        three in total once ``plan.payload`` is dropped.  Anything
        above that means someone retained the message (a test, a
        collector) and it must not be recycled under them.
        """
        if type(payload) is PlainPieceMessage:
            plan.payload = None
            if sys.getrefcount(payload) <= 3:
                release_plain_piece(payload)

    def on_report(self, transaction_id: int, truthful: bool) -> None:
        """A reception report arrived for a transaction we donated."""
        ledger = self.state.ledger
        tx = ledger.get(transaction_id)
        if tx.state not in (TransactionState.RECIPROCATED,
                            TransactionState.DELIVERED):
            return  # duplicate / stale report
        if tx.state is TransactionState.DELIVERED and truthful:
            return  # truthful report cannot precede reciprocation
        ledger.report_reciprocation(transaction_id, self.sim.now,
                                    truthful=truthful)
        if self.active and not tx.written_off:
            self.flow.on_reciprocation_confirmed(tx.requestor_id)
        if self.active:
            self.note_exchange_completed(tx.requestor_id)
        key = ledger.release_key(transaction_id, self.sim.now)
        requestor = self.swarm.find_peer(tx.requestor_id)
        if requestor is not None and requestor.active:
            self.swarm.send_control(self.id, requestor,
                                    requestor.receive_key,
                                    transaction_id, key, kind="key")
            self._arm_key_retry(transaction_id, 1)
        if self.active:
            self.pump()

    def receive_key(self, transaction_id: int, key) -> None:
        """Leechers override; seeders never await keys."""

    # ------------------------------------------------------------------
    # Recovery: key retransmission and the plead path (docs/FAULTS.md)
    # ------------------------------------------------------------------
    def _arm_key_retry(self, transaction_id: int, attempt: int) -> None:
        if attempt > CONTROL_RETRY_ATTEMPTS:
            return
        self.sim.schedule(_retry_delay(attempt),
                          self._key_retry, transaction_id, attempt)

    def _key_retry(self, transaction_id: int, attempt: int) -> None:
        """Re-release a key the requestor demonstrably never got (its
        sealed piece is still pending).  Decided purely from shared
        ledger/peer state, so fault-free runs schedule — and skip —
        exactly the same timers."""
        if self.crashed:
            return
        ledger = self.state.ledger
        tx = ledger.get(transaction_id)
        if tx.state is not TransactionState.COMPLETED \
                or not tx.encrypted:
            return
        requestor = self.swarm.find_peer(tx.requestor_id)
        if requestor is None or not requestor.active:
            return
        if transaction_id not in getattr(requestor,
                                         "pending_sealed", {}):
            return  # the key landed; nothing to do
        self.swarm.metrics.recovery.key_retransmits += 1
        self.swarm.send_control(self.id, requestor,
                                requestor.receive_key, transaction_id,
                                ledger.peek_key(transaction_id),
                                kind="key")
        self._arm_key_retry(transaction_id, attempt + 1)

    def on_plead(self, msg: PleadMessage) -> None:
        """A requestor pleads: it reciprocated and no key ever came
        (Sec. II-B4).  Decide from the ledger, the shared ground
        truth:

        * COMPLETED — our key release was lost in transit: resend it.
        * RECIPROCATED — the reception report was swallowed (silent or
          crashed payee): roll the transaction back to DELIVERED,
          reassign the payee excluding the silent one, and tell the
          requestor to reciprocate afresh.
        * anything else — stale plead (a retransmitted report or an
          earlier reopen already settled the matter): ignore.
        """
        ledger = self.state.ledger
        tx = ledger.get(msg.transaction_id)
        if tx.requestor_id != msg.requestor_id:
            return  # forged or misrouted plead
        requestor = self.swarm.find_peer(tx.requestor_id)
        if requestor is None or not requestor.active:
            return
        if tx.state is TransactionState.COMPLETED:
            if tx.encrypted and msg.transaction_id in getattr(
                    requestor, "pending_sealed", {}):
                self.swarm.metrics.recovery.key_retransmits += 1
                self.swarm.send_control(
                    self.id, requestor, requestor.receive_key,
                    msg.transaction_id,
                    ledger.peek_key(msg.transaction_id), kind="key")
            return
        if tx.state is not TransactionState.RECIPROCATED:
            return
        old_payee = tx.payee_id
        ledger.reopen(msg.transaction_id, self.sim.now)
        self.swarm.metrics.recovery.reopens += 1
        exclude = (frozenset({old_payee}) if old_payee is not None
                   else frozenset())
        new_payee = self.reassign_or_forgive(tx, requestor,
                                             (tx.piece_index,),
                                             exclude=exclude)
        if new_payee is not None:
            self.swarm.send_control(self.id, requestor,
                                    requestor.on_reopened,
                                    msg.transaction_id, kind="reopen")

    # ------------------------------------------------------------------
    # Reassignment / forgiveness (Sec. II-B4)
    # ------------------------------------------------------------------
    def reassign_or_forgive(self, tx: Transaction,
                            requestor: Optional[Peer],
                            extra: Tuple[int, ...] = (),
                            exclude: frozenset = frozenset()
                            ) -> Optional[str]:
        """The designated payee is gone, satisfied or vetoed; as the
        donor of ``tx`` pick a replacement payee that wants one of the
        requestor's offerings — its completed pieces plus ``extra``
        (the exchange's own piece, when it counts as offerable) — or
        forgive the obligation.

        ``requestor`` is the peer whose offerings back the exchange;
        ``None`` means there is nothing to offer and forgiveness is
        forced.  ``exclude`` carries the requestor's veto list —
        neighbors whose pending window at the requestor is full
        (uncooperative per the requestor's own history, Sec. II-D2).
        Returns the new payee id, or None when forgiven.
        """
        ledger = self.state.ledger
        direct = (self.active and self.id not in exclude
                  and requestor is not None
                  and self.book.wmask & (requestor.book.cmask
                                         | set_to_mask(extra)))
        if direct:
            new_payee: Optional[str] = self.id
        elif requestor is None:
            new_payee = None
        else:
            candidates = self._unblocked(
                self._wanting(requestor, extra), exclude)
            new_payee = (self.sim.rng.choice(candidates)
                         if candidates else None)
        if new_payee is None:
            key = ledger.forgive(tx.transaction_id, self.sim.now)
            self.swarm.metrics.recovery.forgives += 1
            if self.active and self.id == tx.donor_id \
                    and not tx.written_off:
                # Drain the window only when we are the donor who
                # counted the upload, and — same guard as on_report —
                # only if the exchange was not already written off:
                # either way a second drain would double-decrement and
                # re-open a blocked neighbor early.  (A payee holding
                # the key after donor departure forgives on the
                # donor's behalf but never sent this piece, so its own
                # window owes nothing.)
                self.flow.on_reciprocation_confirmed(tx.requestor_id)
            requestor = self.swarm.find_peer(tx.requestor_id)
            if requestor is not None and requestor.active:
                self.swarm.send_control(self.id, requestor,
                                        requestor.receive_key,
                                        tx.transaction_id, key,
                                        kind="key")
                self._arm_key_retry(tx.transaction_id, 1)
            ledger.terminate_chain(tx.chain_id, self.sim.now)
            return None
        ledger.reassign_payee(tx.transaction_id, new_payee)
        return new_payee

    # ------------------------------------------------------------------
    # Departure (Sec. II-B4)
    # ------------------------------------------------------------------
    def on_upload_cancelled(self, plan: UploadPlan) -> None:
        """The receiver departed mid-transfer: drop the transaction.

        Chain-initiating uploads take their chain with them; cancelled
        *reciprocations* leave the chain alive — the leecher override
        re-queues the obligation so a replacement payee can be found.
        """
        tx_id = plan.meta.get("tx")
        if tx_id is None:
            return
        ledger = self.state.ledger
        tx = ledger.get(tx_id)
        if tx.state is TransactionState.CREATED:
            ledger.abort(tx_id, self.sim.now)
            if tx.reciprocates is None:
                ledger.terminate_chain(tx.chain_id, self.sim.now)

    def on_leave(self) -> None:
        ledger = self.state.ledger
        for tx in ledger.open_transactions_involving(self.id):
            if tx.donor_id == self.id and tx.encrypted:
                if tx.state is TransactionState.CREATED:
                    # Our upload is being cancelled by the departure.
                    ledger.abort(tx.transaction_id, self.sim.now)
                    ledger.terminate_chain(tx.chain_id, self.sim.now)
                elif tx.state is TransactionState.DELIVERED:
                    payee = self.swarm.find_peer(tx.payee_id) \
                        if tx.payee_id else None
                    if (payee is None or not payee.active
                            or tx.payee_id == self.id):
                        # Departed/self payee: pick a replacement
                        # before we go (Sec. II-B4).
                        payee = self._replacement_payee_for(tx)
                        if payee is not None:
                            self.state.ledger.reassign_payee(
                                tx.transaction_id, payee.id)
                    if payee is not None:
                        # Hand the key to the payee on the way out.
                        self.state.handover.add(tx.transaction_id)
                    else:
                        # Nobody to hand the key to: the exchange dies
                        # with us.  No key is gifted — the requestor
                        # drops the sealed piece and re-fetches it.
                        self._abort_on_departure(tx)
                elif tx.state is TransactionState.RECIPROCATED:
                    # The report is in flight; on_report still works
                    # after we leave (the key was sent on our way out).
                    pass
        super().on_leave()

    def _replacement_payee_for(self, tx: Transaction):
        """A live neighbor that needs something from ``tx``'s
        requestor, eligible to become the replacement payee."""
        requestor = self.swarm.find_peer(tx.requestor_id)
        if requestor is None or not requestor.active:
            return None
        ids = self._wanting(requestor, (tx.piece_index,))
        if not ids:
            return None
        return self.swarm.find_peer(self.sim.rng.choice(ids))

    def _abort_on_departure(self, tx: Transaction) -> None:
        _orphan_exchange(self.state, tx)


def _check_stall(state: TChainState, transaction_id: int) -> None:
    """Watchdog marking chains stalled by idle requestors terminated
    (metrics bookkeeping only — see SwarmConfig.chain_stall_timeout_s)."""
    ledger = state.ledger
    tx = ledger.get(transaction_id)
    if tx.state is TransactionState.ABORTED:
        # Aborted before ever being reciprocated (e.g. the requestor
        # discarded the sealed piece): dead exchange, write it off.
        _write_off(state, tx)
        return
    if tx.state is not TransactionState.DELIVERED:
        return
    chain = state.registry.get(tx.chain_id)
    if not chain.active:
        return
    requestor = state.swarm.find_peer(tx.requestor_id)
    if requestor is None or not requestor.active:
        ledger.terminate_chain(tx.chain_id, state.swarm.sim.now)
        _write_off(state, tx)
        return
    if tx.transaction_id in getattr(requestor, "obligations", ()):
        # The requestor still has the obligation queued: it is trying
        # (slow uplink, payee churn), not refusing.  Striking honest
        # 400 Kbps stragglers would exile them for the backoff period;
        # look again later instead.  (Free-riders do not linger here:
        # they discard the sealed piece, the transaction aborts, and
        # the write-off lands through the ABORTED branch above.)
        state.swarm.sim.schedule(state.stall_timeout_s, _check_stall,
                                 state, transaction_id)
        return
    if requestor.uplink.busy_slots == 0:
        # Idle but not reciprocating: free-riding; the chain is dead.
        # The donor writes the exchange off its pending window — the
        # dead transaction no longer counts as outstanding (the
        # free-rider's next window fills just as fast, so it stays
        # starved of throughput rather than permanently banned).
        ledger.terminate_chain(tx.chain_id, state.swarm.sim.now)
        _write_off(state, tx)
        return
    # Busy (backlogged) requestor: look again later.
    state.swarm.sim.schedule(state.stall_timeout_s, _check_stall,
                             state, transaction_id)


def _write_off(state: TChainState, tx: Transaction) -> None:
    if tx.written_off or not tx.encrypted:
        return
    tx.written_off = True
    donor = state.swarm.find_peer(tx.donor_id)
    if donor is not None and donor.active \
            and isinstance(donor, _TChainNode):
        donor.flow.write_off(tx.requestor_id)
        donor.note_exchange_written_off(tx.requestor_id)
        donor.pump()


class TChainSeeder(_TChainNode):
    """A T-Chain seeder: initiates chains on every free slot."""

    kind = "seeder"

    def __init__(self, swarm: "Swarm", peer_id: Optional[str] = None,
                 capacity_kbps: Optional[float] = None,
                 n_slots: Optional[int] = None):
        super().__init__(
            swarm,
            peer_id if peer_id is not None else swarm.new_peer_id("S"),
            capacity_kbps if capacity_kbps is not None
            else swarm.config.seeder_capacity_kbps,
            n_slots if n_slots is not None else swarm.config.seeder_slots,
            book=full_book(swarm.torrent))

    def next_upload(self) -> Optional[UploadPlan]:
        candidates = self._eligible_requestors()
        while candidates:
            requestor_id = self.sim.rng.choice(candidates)
            plan = self._plan_donation(requestor_id)
            if plan is not None:
                return plan
            candidates.remove(requestor_id)
        return None


class TChainLeecher(BaselineLeecher, _TChainNode):
    """A compliant T-Chain leecher."""

    kind = "leecher"

    def __init__(self, swarm: "Swarm", peer_id: Optional[str] = None,
                 capacity_kbps: Optional[float] = None):
        super().__init__(swarm, peer_id, capacity_kbps,
                         n_slots=swarm.config.upload_slots)
        #: transaction ids whose reciprocation we still owe, FIFO
        self.obligations: List[int] = []
        self._retry_pending = False
        #: tx id -> sealed piece held until the key arrives
        self.pending_sealed: Dict[int, object] = {}
        #: tx id -> plead count (each key timeout re-pleads)
        self._plead_attempts: Dict[int, int] = {}
        #: (time, piece, "encrypted"|"decrypted") for Fig. 5
        self.piece_log: List[Tuple[float, int, str]] = []

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def next_upload(self) -> Optional[UploadPlan]:
        # With no obligations the fulfilment scan is a guaranteed
        # no-op (and schedules no retry), so skip the call entirely —
        # this is the common case for every post-payload pump.
        if self.obligations:
            plan = self._next_obligation_upload()
            if plan is not None:
                return plan
        if self.swarm.config.opportunistic_seeding \
                and should_opportunistically_seed(
                    self.book.completed_count, len(self.obligations)):
            return self._opportunistic_plan()
        return None

    def _next_obligation_upload(self) -> Optional[UploadPlan]:
        ledger = self.state.ledger
        for tx_id in list(self.obligations):
            tx = ledger.get(tx_id)
            if tx.state is not TransactionState.DELIVERED:
                # Completed through forgiveness or collusion, or aborted.
                self._drop_obligation(tx_id)
                continue
            plan = self._try_fulfil(tx)
            if plan is not None:
                self._drop_obligation(tx_id)
                plan.meta["obligation"] = tx_id
                return plan
            if tx.state is not TransactionState.DELIVERED:
                # _try_fulfil settled it (forgiven or aborted).
                self._drop_obligation(tx_id)
        if self.obligations:
            self._schedule_obligation_retry()
        return None

    def _drop_obligation(self, tx_id: int) -> None:
        if tx_id in self.obligations:
            self.obligations.remove(tx_id)

    def _schedule_obligation_retry(self) -> None:
        if self._retry_pending:
            return
        self._retry_pending = True
        self.sim.schedule(OBLIGATION_RETRY_S, self._retry_pump)

    def _retry_pump(self) -> None:
        self._retry_pending = False
        if self.active:
            self.pump()

    def _try_fulfil(self, tx: Transaction) -> Optional[UploadPlan]:
        """Attempt to reciprocate ``tx`` by uploading to its payee."""
        forward = None
        if self.book.completed_count == 0:
            forward = tx  # newcomer: forward the sealed piece itself
        extra = (tx.piece_index,) if forward is not None else ()

        payee = self.swarm.find_peer(tx.payee_id)
        # The payee is unusable if gone, satisfied, or — the adaptive
        # receiver selection of Sec. II-D2, applied by the peer who
        # actually holds the history — known to us as uncooperative
        # (our own pending window on it is full).
        payee_stale = (payee is None or not payee.active
                       or not payee.book.wmask & (self.book.cmask
                                                  | set_to_mask(extra))
                       or payee.id in self.flow.blocked)
        if payee_stale:
            # Our veto list: live neighbors over their pending window
            # at us.
            peers = self.swarm.peers
            are_neighbors = self.swarm.topology.are_neighbors
            banned = set(
                nid for nid in self.flow.blocked
                if are_neighbors(self.id, nid)
                and (peer := peers.get(nid)) is not None
                and peer.active)
            if payee is not None:
                banned.add(payee.id)  # whatever made it stale persists
            banned = frozenset(banned)
            donor = self.swarm.find_peer(tx.donor_id)
            if donor is not None and donor.active:
                holder = donor
            elif tx.transaction_id in self.state.handover \
                    and payee is not None and payee.active:
                # The donor left and handed its key to the payee; the
                # payee reassigns (or forgives) on the donor's behalf.
                holder = payee
            else:
                _orphan_exchange(self.state, tx)
                return None
            new_payee = holder.reassign_or_forgive(tx, self, extra,
                                                   exclude=banned)
            if new_payee is None:
                return None
            payee = self.swarm.find_peer(new_payee)
            if payee is None or not payee.active:
                return None
        if payee.id == self.id:
            # Direct reciprocity onto ourselves cannot be uploaded;
            # only happens via reassignment races — forgive instead.
            donor = self.swarm.find_peer(tx.donor_id)
            if donor is not None and donor.active:
                donor.reassign_or_forgive(tx, None)
            else:
                _orphan_exchange(self.state, tx)
            return None
        if self.uploading_to(payee.id):
            return None  # busy with this receiver; retry on next pump
        return self._plan_donation(payee.id, reciprocates=tx,
                                   forward_of=forward)

    def _opportunistic_plan(self) -> Optional[UploadPlan]:
        """Initiate a chain ourselves (Sec. II-D3).

        The initiating leecher "may, and probably will, designate
        itself as the leecher to whom C must reciprocate, which
        benefits B itself" — so it rationally prefers requestors that
        *possess a completed piece it needs* (direct reciprocity
        possible).  Peers with nothing to give back — newcomers and,
        crucially, free-riders sitting on undecrypted pieces — are
        only served when no direct candidate exists.  This is what
        keeps voluntary donations from being farmed by free-riders.
        """
        direct, fallback = [], []
        wanted = self.book.wmask
        peers = self.swarm.peers
        for candidate_id in self._eligible_requestors():
            if peers[candidate_id].book.cmask & wanted:
                direct.append(candidate_id)
            else:
                fallback.append(candidate_id)
        for pool in (direct, fallback):
            while pool:
                requestor_id = self.sim.rng.choice(pool)
                plan = self._plan_donation(requestor_id)
                if plan is not None:
                    return plan
                pool.remove(requestor_id)
        return None

    def on_plan_failed(self, plan: UploadPlan) -> None:
        obligation = plan.meta.get("obligation")
        if obligation is not None:
            self.obligations.insert(0, obligation)

    def on_upload_cancelled(self, plan: UploadPlan) -> None:
        super().on_upload_cancelled(plan)
        # A cancelled reciprocation leaves its obligation unfulfilled:
        # put it back so the donor can designate a replacement payee.
        obligation = plan.meta.get("obligation")
        if obligation is None or not self.active:
            return
        tx = self.state.ledger.get(obligation)
        if tx.state is TransactionState.DELIVERED \
                and obligation not in self.obligations:
            self.obligations.append(obligation)
            self.pump()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def on_payload(self, payload, uploader_id: str) -> None:
        if isinstance(payload, EncryptedPieceMessage):
            self._on_encrypted_piece(payload)
        elif isinstance(payload, PlainPieceMessage):
            self._on_plain_piece(payload)
        else:  # pragma: no cover - protocol mixing is a bug
            raise TypeError(f"unexpected payload {payload!r}")
        self.pump()

    def _dead_letter(self, transaction_id: int, piece: int) -> bool:
        """True when an in-flight piece lands on an aborted exchange.

        The transfer finished (or was stalled by fault injection)
        before the donor departed; the departure aborted the
        still-CREATED transaction, so the late payload is a dead
        letter — drop it rather than drive the ledger through an
        illegal ABORTED -> DELIVERED edge, and put the piece back on
        the want list so it is re-fetched from someone reachable.
        """
        tx = self.state.ledger.get(transaction_id)
        if tx.state is not TransactionState.ABORTED:
            return False
        self.book.unexpect(piece)
        self.swarm.metrics.recovery.dead_letters += 1
        return True

    def _on_encrypted_piece(self, msg: EncryptedPieceMessage) -> None:
        if self._dead_letter(msg.transaction_id,
                             msg.sealed.piece_index):
            return
        ledger = self.state.ledger
        self.pending_sealed[msg.transaction_id] = msg.sealed
        self.piece_log.append((self.sim.now, msg.sealed.piece_index,
                               "encrypted"))
        prev = ledger.mark_delivered(msg.transaction_id, self.sim.now)
        if prev is not None:
            self._report_as_payee(prev)
        self.obligations.append(msg.transaction_id)
        self.sim.schedule(KEY_TIMEOUT_S, self._check_key_timeout,
                          msg.transaction_id)
        self._maybe_collude(msg)

    def _on_plain_piece(self, msg: PlainPieceMessage) -> None:
        if self._dead_letter(msg.transaction_id, msg.piece_index):
            return
        ledger = self.state.ledger
        prev = ledger.mark_delivered(msg.transaction_id, self.sim.now)
        if prev is not None:
            self._report_as_payee(prev)
        self.piece_log.append((self.sim.now, msg.piece_index, "decrypted"))
        self.complete_piece(msg.piece_index)

    def _report_as_payee(self, prev: Transaction) -> None:
        """We are the payee of ``prev``: report the reciprocation,
        retransmitting with backoff until the donor's ledger shows it
        landed."""
        self._send_report(prev.transaction_id, 1)

    def _send_report(self, transaction_id: int, attempt: int) -> None:
        ledger = self.state.ledger
        tx = ledger.get(transaction_id)
        if attempt > 1:
            # Retransmission timer.  The ledger is shared state:
            # REPORTED / COMPLETED mean the report landed, and a
            # reopen (DELIVERED) or abort means our duty is void.
            if not self.active \
                    or tx.state is not TransactionState.RECIPROCATED:
                return
            self.swarm.metrics.recovery.report_retransmits += 1
        donor = self.swarm.find_peer(tx.donor_id)
        if donor is not None:
            self.swarm.send_control(self.id, donor, donor.on_report,
                                    transaction_id, True, kind="report")
        elif transaction_id in self.state.handover:
            # The donor left and handed us the key (Sec. II-B4): the
            # release is a local act, nothing to retransmit.
            self.sim.schedule(self.swarm.config.control_latency_s,
                              self._release_as_holder, transaction_id)
            return
        else:
            return  # donor gone, no handover: the plead path cleans up
        if attempt <= CONTROL_RETRY_ATTEMPTS:
            self.sim.schedule(_retry_delay(attempt),
                              self._send_report, transaction_id,
                              attempt + 1)

    def _release_as_holder(self, transaction_id: int) -> None:
        ledger = self.state.ledger
        tx = ledger.get(transaction_id)
        if tx.state is not TransactionState.RECIPROCATED:
            return
        ledger.report_reciprocation(transaction_id, self.sim.now)
        key = ledger.release_key(transaction_id, self.sim.now)
        requestor = self.swarm.find_peer(tx.requestor_id)
        if requestor is not None and requestor.active:
            self.swarm.send_control(self.id, requestor,
                                    requestor.receive_key,
                                    transaction_id, key, kind="key")
            self._arm_key_retry(transaction_id, 1)

    def _rearm_key_timeout(self, transaction_id: int) -> None:
        self.sim.schedule(KEY_TIMEOUT_S, self._check_key_timeout,
                          transaction_id)

    def _check_key_timeout(self, transaction_id: int) -> None:
        """We hold a sealed piece long past reciprocating and no key
        came: the reception report or the key release was swallowed
        (lossy control plane, silent or crashed payee).  Plead the
        case to the donor (Sec. II-B4); with the donor gone and
        nobody holding its key duty, write the exchange off."""
        if not self.active:
            return
        if transaction_id not in self.pending_sealed:
            return
        recovery = self.swarm.metrics.recovery
        tx = self.state.ledger.get(transaction_id)
        if tx.state is TransactionState.DELIVERED:
            if transaction_id not in self.obligations:
                # Not our backlog: a reopen's notification was lost —
                # requeue so the obligation is actually retried.
                self.obligations.append(transaction_id)
                self.pump()
            self._rearm_key_timeout(transaction_id)
            return
        if tx.state not in (TransactionState.RECIPROCATED,
                            TransactionState.COMPLETED):
            return
        recovery.key_timeouts += 1
        donor = self.swarm.find_peer(tx.donor_id)
        if donor is not None and donor.active:
            recovery.pleads += 1
            attempt = self._plead_attempts.get(transaction_id, 0) + 1
            self._plead_attempts[transaction_id] = attempt
            self.swarm.send_control(
                self.id, donor, donor.on_plead,
                PleadMessage(self.id, transaction_id, attempt),
                kind="plead")
            self._rearm_key_timeout(transaction_id)
            return
        if tx.state is TransactionState.RECIPROCATED \
                and transaction_id in self.state.handover:
            payee = self.swarm.find_peer(tx.payee_id) \
                if tx.payee_id else None
            if payee is not None and payee.active:
                # The departed donor handed its key duty to the
                # payee; that release is a local act which cannot be
                # lost — wait it out.
                self._rearm_key_timeout(transaction_id)
                return
        # Donor unreachable (crashed or departed) and nobody holds
        # its key duty: the exchange is orphaned.  No key is gifted —
        # drop the sealed piece and re-fetch the piece elsewhere.
        _orphan_exchange(self.state, tx)

    def on_reopened(self, transaction_id: int) -> None:
        """The donor honored our plead: the transaction is DELIVERED
        again with a fresh payee — reciprocate anew."""
        if not self.active:
            return
        if transaction_id not in self.pending_sealed:
            return
        tx = self.state.ledger.get(transaction_id)
        if tx.state is TransactionState.DELIVERED \
                and transaction_id not in self.obligations:
            self.obligations.append(transaction_id)
        self.pump()

    def receive_key(self, transaction_id: int, key) -> None:
        if not self.active:
            return
        sealed = self.pending_sealed.pop(transaction_id, None)
        if sealed is None:
            return
        expected = None
        if sealed.ciphertext is not None:
            # real_crypto mode: decrypt and verify against ground
            # truth — an authentication or content failure here is a
            # protocol bug, not a recoverable condition.
            expected = piece_payload(self.swarm.torrent,
                                     sealed.piece_index)
        sealed.open(key, expected_plaintext=expected)
        self.piece_log.append((self.sim.now, sealed.piece_index,
                               "decrypted"))
        self.complete_piece(sealed.piece_index)
        self.pump()

    def _maybe_collude(self, msg: EncryptedPieceMessage) -> None:
        """Collusion attack hook — compliant leechers never collude;
        colluding free-riders override the guard via the colluder set
        (Sec. III-A4 / Fig. 8)."""
        if not self.state.are_colluders(self.id, msg.payee_id):
            return
        payee = self.swarm.find_peer(msg.payee_id)
        donor = self.swarm.find_peer(msg.donor_id)
        if payee is None or donor is None:
            return
        latency = self.swarm.config.control_latency_s
        # The colluding payee vouches for a reciprocation that never
        # happened; the donor cannot tell and releases the key.  The
        # false report is an ordinary control message — a faulty
        # control plane drops colluders' traffic like anyone else's.
        self.swarm.send_control(msg.payee_id, donor, donor.on_report,
                                msg.transaction_id, False,
                                kind="report", latency=2 * latency)

    # ------------------------------------------------------------------
    # Departure / identity change
    # ------------------------------------------------------------------
    def _forfeit_requestor_exchanges(self) -> None:
        """Abort every unfulfilled reciprocation duty we hold."""
        ledger = self.state.ledger
        for tx in ledger.open_transactions_involving(self.id):
            if tx.requestor_id == self.id \
                    and tx.state is TransactionState.DELIVERED:
                ledger.abort(tx.transaction_id, self.sim.now)
                ledger.terminate_chain(tx.chain_id, self.sim.now)
        self.obligations.clear()
        self.pending_sealed.clear()
        self._plead_attempts.clear()

    def on_leave(self) -> None:
        # Unfulfilled obligations die with us: both the queued ones and
        # any whose reciprocation upload is being cancelled mid-flight.
        self._forfeit_requestor_exchanges()
        super().on_leave()

    def on_whitewash(self) -> None:
        """Whitewashing forfeits every in-flight exchange.

        The open transactions name the *abandoned* identity, so a
        report, plead or key addressed to or from the new identity is
        indistinguishable from a forgery and gets ignored — which is
        exactly why encrypted pieces defeat whitewashing
        (Sec. III-A3).  Unlike a departure the peer stays, so each
        dropped sealed piece is un-expected first: the piece stays
        wanted and can be re-fetched under the new identity.
        """
        for sealed in self.pending_sealed.values():
            self.book.unexpect(sealed.piece_index)
        self._forfeit_requestor_exchanges()
        super().on_whitewash()

    def on_neighbor_disconnected(self, neighbor_id: str) -> None:
        self.flow.forget(neighbor_id)
        super().on_neighbor_disconnected(neighbor_id)


def _orphan_exchange(state: TChainState, tx: Transaction) -> None:
    """Last-resort cleanup: the donor (and any key-duty holder) is
    unreachable.

    The exchange is dead.  An open transaction aborts, taking its
    chain; either way no key is gifted — the requestor drops the
    sealed piece so it can re-fetch the piece from someone reachable.
    The loss is bounded by design (Sec. II-C): one upload, never the
    whole download.
    """
    if tx.state not in (TransactionState.COMPLETED,
                        TransactionState.ABORTED):
        state.ledger.abort(tx.transaction_id, state.swarm.sim.now)
        state.ledger.terminate_chain(tx.chain_id, state.swarm.sim.now)
    state.swarm.metrics.recovery.orphaned_chains += 1
    _drop_sealed_at_requestor(state, tx)


def _drop_sealed_at_requestor(state: TChainState,
                              tx: Transaction) -> None:
    """Clear a dead transaction's sealed piece from its requestor."""
    requestor = state.swarm.find_peer(tx.requestor_id)
    if requestor is None or not requestor.active \
            or not isinstance(requestor, TChainLeecher):
        return
    sealed = requestor.pending_sealed.pop(tx.transaction_id, None)
    if sealed is not None:
        requestor.book.unexpect(sealed.piece_index)
    if tx.transaction_id in requestor.obligations:
        requestor.obligations.remove(tx.transaction_id)
    requestor.pump()
