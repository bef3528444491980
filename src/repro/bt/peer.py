"""Base peer machinery shared by every protocol.

A :class:`Peer` owns an uplink, a piece book and the generic serving
loop: whenever an upload slot is free, :meth:`pump` asks the protocol
subclass for the next :class:`UploadPlan` and starts the transfer.
Subclasses implement

* :meth:`next_upload` — whom to serve next and what to send;
* :meth:`on_payload` — what receiving a payload means (baselines
  complete the piece immediately; T-Chain holds sealed pieces);

and may override the lifecycle hooks (:meth:`on_join`,
:meth:`on_leave`, :meth:`on_neighbor_connected`, ...).

Payload accounting (``kb_uploaded`` / ``kb_downloaded``) counts file
pieces only — control messages are free per Sec. III-C — and feeds the
fairness-factor metric of Fig. 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, TYPE_CHECKING

from repro.bt.piece_selection import rarest_in_mask
from repro.bt.torrent import PieceBook
from repro.net.bandwidth import Transfer, Uplink
from repro.sim.events import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.swarm import Swarm


@dataclass(slots=True)
class UploadPlan:
    """One piece upload the protocol decided to make.

    ``payload`` is what lands at the receiver (an int piece index for
    plain protocols, a message object for T-Chain); the size is the
    torrent's piece size.  T-Chain fills ``tx`` (the ledger exchange
    the upload carries) and ``obligation`` (the exchange it
    reciprocates, when it fulfils one); ``uploader_id`` is filled in
    by :meth:`Peer.start_upload`.
    """

    receiver_id: str
    piece: int
    payload: Any = None
    tx: Optional[int] = None
    obligation: Optional[int] = None
    uploader_id: Optional[str] = None


class Peer:
    """A swarm participant (leecher or seeder)."""

    kind = "leecher"  # metrics label; subclasses override

    #: Uploads owed whether or not a piece is held.  Only T-Chain
    #: leechers ever owe any (a newcomer reciprocates by forwarding the
    #: sealed piece itself, Sec. II-D1), which is why :meth:`pump`
    #: cannot read "nothing to upload" off an empty book alone.
    obligations: Sequence[int] = ()

    def __init__(self, swarm: "Swarm", peer_id: str,
                 capacity_kbps: float, n_slots: int,
                 book: Optional[PieceBook] = None):
        self.swarm = swarm
        self.sim = swarm.sim
        self.id = peer_id
        self.book = book if book is not None else PieceBook(swarm.torrent)
        self.uplink = Uplink(self.sim, capacity_kbps, n_slots)
        self.active = False
        #: True after an *unclean* departure (:meth:`crash`): the host
        #: is dead and processes no further control messages.
        self.crashed = False
        self.join_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.leave_time: Optional[float] = None
        #: when the first piece became usable (bootstrap latency)
        self.first_piece_at: Optional[float] = None
        self.kb_uploaded = 0.0
        self.kb_downloaded = 0.0
        self.pieces_uploaded = 0
        self.pieces_downloaded = 0
        self.unlimited_neighbors = False  # large-view exploit sets this
        self._rescan_task = None
        # Transfers in start order, so cancellation order is
        # deterministic; each one's ``meta`` is its UploadPlan.
        self._incoming: List[Transfer] = []
        #: our in-flight uploads, at most ``n_slots`` of them: the one
        #: record of whom we are uploading to
        self._outgoing: List[Transfer] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def join(self) -> None:
        """Enter the swarm: announce, connect, start protocol tasks."""
        if self.active:
            raise RuntimeError(f"{self.id} already joined")
        self.active = True
        self.join_time = self.sim.now
        swarm = self.swarm
        swarm.register(self)
        # A newcomer has no neighbours to leave out.
        strangers = swarm.tracker.announce(self.id)
        swarm.tracker.join(self.id)
        for other in strangers:
            swarm.connect(self.id, other)
        # Periodic re-scan: several serving conditions are time-based
        # (flow windows, backoff expiry, trust/credit changes) and
        # produce no event of their own; real clients re-evaluate on
        # the unchoke cadence, so every peer pumps periodically too.
        self._rescan_task = PeriodicTask(
            self.sim, swarm.config.rechoke_interval_s, self._rescan)
        self.on_join()
        self.pump()

    def _rescan(self) -> None:
        if not self.active:
            return
        self.on_rescan()
        # Starvation detection: we want pieces but no current neighbor
        # has any of them (e.g. attackers eclipsed the peers that do).
        # A real client goes back to the tracker in that situation.
        if self.book.wmask \
                and not self.swarm.columnar.has_provider(self):
            self.refill_neighbors()
        self.pump()

    def on_rescan(self) -> None:
        """Protocol hook on the periodic re-scan tick."""

    def accepts_connection_from(self, peer_id: str) -> bool:
        """May ``peer_id`` become our neighbor?  Default: yes."""
        return True

    def leave(self) -> None:
        """Exit the swarm, severing connections and transfers."""
        if not self.active:
            return
        self.active = False
        self.leave_time = self.sim.now
        self.swarm.note_deactivated(self)
        if self._rescan_task is not None:
            self._rescan_task.stop()
        self.on_leave()
        # Cancel transfers headed to us; the uploaders get their slots
        # back immediately (they would notice the TCP reset).
        for transfer in list(self._incoming):
            uploader = self.swarm.find_peer(transfer.meta.uploader_id)
            if uploader is not None:
                uploader._cancel_outgoing(transfer)
        self._incoming.clear()
        self.uplink.close()  # cancels our outgoing transfers
        for transfer in list(self._outgoing):
            self._drop_outgoing(transfer)
        self.swarm.tracker.leave(self.id)
        self.swarm.deregister(self)

    def crash(self) -> None:
        """Unclean departure: vanish mid-whatever, no protocol goodbye.

        Unlike :meth:`leave`, the :meth:`on_leave` hook does NOT run —
        no key handover, no payee reassignment, no obligation cleanup
        (Sec. II-B4 describes what a *clean* leaver does; a crash is
        exactly the absence of that).  Transfers sever the way a TCP
        reset would, and the swarm records the peer as departed.  The
        recovery layer of the survivors must cope with everything the
        crash stranded.
        """
        if not self.active:
            return
        self.active = False
        self.crashed = True
        self.leave_time = self.sim.now
        self.swarm.note_deactivated(self)
        if self._rescan_task is not None:
            self._rescan_task.stop()
        for transfer in list(self._incoming):
            uploader = self.swarm.find_peer(transfer.meta.uploader_id)
            if uploader is not None:
                uploader._cancel_outgoing(transfer)
        self._incoming.clear()
        self.uplink.close()
        for transfer in list(self._outgoing):
            self._drop_outgoing(transfer)
        self.swarm.tracker.leave(self.id)
        self.on_crash()
        self.swarm.deregister(self)

    def whitewash(self) -> str:
        """Reconnect under a fresh identity (the whitewashing attack).

        All connections and in-flight transfers drop, neighbors forget
        their local history about the old id, and the peer rejoins as
        an apparent newcomer — keeping its pieces and its download
        counters.  Returns the new id.
        """
        if not self.active:
            return self.id
        # Block inbound plans while connections drop: cancelled
        # uploaders re-pump immediately and must not start transfers
        # addressed to the id we are about to discard.
        self.active = False
        self.swarm.note_deactivated(self)
        for transfer in list(self._incoming):
            uploader = self.swarm.find_peer(transfer.meta.uploader_id)
            if uploader is not None:
                uploader._cancel_outgoing(transfer)
        self._incoming.clear()
        for transfer in list(self._outgoing):
            transfer.cancel()
            self._drop_outgoing(transfer)
        self.on_whitewash()
        self.active = True
        new_id = self.swarm.rebrand(self)
        self.on_rebranded()
        return new_id

    def on_whitewash(self) -> None:
        """Protocol hook fired just before an identity change."""

    def on_rebranded(self) -> None:
        """Protocol hook fired after the new identity is connected."""

    def refill_neighbors(self) -> None:
        """Ask the tracker for more members when running low."""
        if not self.active:
            return
        # The tracker answers with strangers only: refills mostly
        # draw peers we already know (in a swarm no larger than the
        # refill threshold, nobody else), and it drops those itself.
        swarm = self.swarm
        for other in swarm.tracker.announce(
                self.id, swarm.columnar.neighbor_ids(self.id)):
            swarm.connect(self.id, other)

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------
    def pump(self) -> None:
        """Start uploads while slots are free and work exists."""
        uplink = self.uplink
        if not self.active or uplink.capacity_kbps <= 0:
            return
        if not self.book.cmask and not self.obligations:
            # Empty-handed: with nothing held and nothing owed every
            # protocol's next_upload() is a guaranteed None that draws
            # nothing and schedules nothing (no neighbor can want a
            # piece of an empty book), so the connect storm of a
            # joining crowd stops here.  tests/test_empty_handed.py
            # holds every registered protocol to that.
            return
        n_slots = uplink.n_slots
        while uplink.busy_slots < n_slots:
            plan = self.next_upload()
            if plan is None:
                return
            started = self.start_upload(plan)
            if not started:
                self.on_plan_failed(plan)
                return

    def start_upload(self, plan: UploadPlan) -> bool:
        """Begin the transfer described by ``plan``."""
        receiver = self.swarm.find_peer(plan.receiver_id)
        if receiver is None or not receiver.active:
            return False
        size = self.swarm.torrent.piece_size_kb
        plan.uploader_id = self.id
        floor_s = 0.0
        net = self.swarm.net
        if net is not None and not net._inert:
            # Delivery cannot beat the path: propagation + bottleneck
            # serialization floors the slot time.  None means no route
            # (severed partition) — the piece cannot start; the plan
            # fails and planning retries after topology changes.  An
            # inert model is bypassed wholesale (see Swarm.send_control).
            path_floor = net.transfer_floor(self.id, plan.receiver_id,
                                            size)
            if path_floor is None:
                return False
            floor_s = path_floor
        transfer = self.uplink.try_start(size, self._upload_finished,
                                         meta=plan,
                                         min_duration_s=floor_s)
        if transfer is None:
            return False
        self._outgoing.append(transfer)
        receiver._incoming.append(transfer)
        receiver.book.expect(plan.piece)
        self.swarm.note_activity()
        self.on_upload_started(plan)
        return True

    def _upload_finished(self, transfer: Transfer) -> None:
        self._outgoing.remove(transfer)
        plan = transfer.meta
        self.kb_uploaded += transfer.size_kb
        self.pieces_uploaded += 1
        receiver = self.swarm.find_peer(plan.receiver_id)
        if receiver is not None and receiver.active:
            if transfer in receiver._incoming:
                receiver._incoming.remove(transfer)
            receiver.kb_downloaded += transfer.size_kb
            receiver.pieces_downloaded += 1
            payload = plan.payload if plan.payload is not None \
                else plan.piece
            injector = self.swarm.fault_injector
            stall = injector.stall_delay() if injector is not None \
                else 0.0
            if stall > 0.0:
                self.sim.schedule(stall, self._deliver_payload,
                                  receiver, payload)
            else:
                receiver.on_payload(payload, self.id)
        self.on_upload_finished(plan)
        self.pump()

    def _deliver_payload(self, receiver: "Peer", payload: Any) -> None:
        """A stalled payload lands late (fault injection; the transfer
        itself finished and was already accounted)."""
        if receiver.active:
            receiver.on_payload(payload, self.id)

    def _cancel_outgoing(self, transfer: Transfer) -> None:
        """The receiver vanished mid-transfer."""
        if transfer not in self._outgoing:
            return
        transfer.cancel()
        self._drop_outgoing(transfer)
        self.on_upload_cancelled(transfer.meta)
        self.pump()

    def _drop_outgoing(self, transfer: Transfer) -> None:
        if transfer not in self._outgoing:
            return
        self._outgoing.remove(transfer)
        plan = transfer.meta
        receiver = self.swarm.find_peer(plan.receiver_id)
        if receiver is not None:
            if transfer in receiver._incoming:
                receiver._incoming.remove(transfer)
            receiver.book.unexpect(plan.piece)

    def uploading_to(self, peer_id: str) -> bool:
        """True while a transfer to ``peer_id`` is in flight."""
        for transfer in self._outgoing:
            if transfer.meta.receiver_id == peer_id:
                return True
        return False

    def serveable_neighbors(self) -> List[str]:
        """Live neighbors that want a piece of ours and have no
        in-flight piece from us, in sorted-id order (a fresh list:
        our few in-flight receivers are struck from it in place)."""
        wanting = self.swarm.columnar.wanters(self, self.book.cmask)
        for transfer in self._outgoing:
            receiver_id = transfer.meta.receiver_id
            if receiver_id in wanting:
                wanting.remove(receiver_id)
        return wanting

    # ------------------------------------------------------------------
    # Piece completion
    # ------------------------------------------------------------------
    def complete_piece(self, piece: int) -> None:
        """A piece became usable; finish the download when done."""
        newly = self.book.add_completed(piece)
        if newly:
            if self.first_piece_at is None:
                self.first_piece_at = self.sim.now
            self.on_piece_completed(piece)
        if self.book.is_complete and self.kind != "seeder" \
                and self.finish_time is None:
            self.finish_time = self.sim.now
            self.on_download_complete()

    def on_download_complete(self) -> None:
        """Default: leave immediately upon completion (Sec. IV-A)."""
        self.swarm.on_peer_finished(self)
        self.leave()

    # ------------------------------------------------------------------
    # Neighbor views
    # ------------------------------------------------------------------
    def neighbor_peers(self) -> list:
        """Active neighbor Peer objects, in sorted-id order.

        Walks the swarm state's neighbour rows (kept in sorted-id
        order, so no per-process hash order reaches rng draws or
        upload scheduling) and reads the peers off the ``objs`` column.
        Returns a fresh list (a comprehension beats a generator's
        per-item frame switches, and callers may connect or disconnect
        while walking it).
        """
        state = self.swarm.columnar
        row = state.row_of.get(self.id)
        if row is None:
            return []
        objs, alive = state.objs, state.alive
        return [objs[nrow] for nrow in state.adj_rows[row] if alive[nrow]]

    def interested_neighbors(self) -> list:
        """Neighbors that want at least one of our completed pieces,
        in sorted-id order."""
        return self.swarm.columnar.wanters(self, self.book.cmask)

    def is_interested_in(self, other: "Peer") -> bool:
        """Do we want a piece the other peer has completed?"""
        return bool(self.book.wmask & other.book.cmask)

    def choose_piece_from(self, uploader: "Peer") -> Optional[int]:
        """Receiver-side LRF piece choice (Sec. II-A)."""
        candidates = self.book.wmask & uploader.book.cmask
        if not candidates:
            return None
        return rarest_in_mask(candidates,
                              self.swarm.columnar.availability(self),
                              self.sim.rng)

    # ------------------------------------------------------------------
    # Protocol hooks (subclasses override)
    # ------------------------------------------------------------------
    def next_upload(self) -> Optional[UploadPlan]:
        """Decide the next upload; ``None`` when nothing to send."""
        raise NotImplementedError

    def on_payload(self, payload: Any, uploader_id: str) -> None:
        """A payload arrived.  Baselines complete the piece at once."""
        self.complete_piece(int(payload))

    def on_join(self) -> None:
        """Called after connecting to the swarm."""

    def on_leave(self) -> None:
        """Called before connections are severed."""

    def on_crash(self) -> None:
        """Called by :meth:`crash` instead of :meth:`on_leave`, once
        connections are gone: bookkeeping only, no protocol goodbye."""

    def on_neighbor_connected(self, neighbor_id: str) -> None:
        """A new neighbor appeared; default: try to serve."""
        self.pump()

    def on_neighbor_disconnected(self, neighbor_id: str) -> None:
        """A neighbor left; default: refill when low."""
        if self.active and self.swarm.columnar.needs_refill(self.id):
            self.refill_neighbors()

    def on_piece_completed(self, piece: int) -> None:
        """A piece of ours became usable."""

    def on_upload_started(self, plan: UploadPlan) -> None:
        """An upload began."""

    def on_upload_finished(self, plan: UploadPlan) -> None:
        """An upload finished (before the next pump)."""

    def on_upload_cancelled(self, plan: UploadPlan) -> None:
        """An outgoing transfer was cancelled (receiver departed)."""

    def on_plan_failed(self, plan: UploadPlan) -> None:
        """A plan returned by :meth:`next_upload` could not start."""

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"{type(self).__name__}({self.id}, "
                f"{self.book.completed_count}/"
                f"{self.swarm.torrent.n_pieces})")
