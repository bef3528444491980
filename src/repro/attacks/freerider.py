"""Free-rider construction.

:func:`make_freerider` derives, from any compliant leecher class, a
strategic peer that contributes zero upload bandwidth while employing
the evasion techniques of Sec. IV-C:

* it never uploads (``next_upload`` always declines and the uplink has
  zero capacity, so even protocol-internal paths cannot spend
  bandwidth);
* with ``large_view`` it keeps an unlimited neighbor set and
  re-announces to the tracker every rechoke period, maximizing its
  exposure to optimistic unchokes and seeder rotations;
* with ``whitewash`` it resets its identity after every received
  piece, wiping neighbors' history (deficits, contribution counts,
  pending windows) about it;
* with ``collude`` (T-Chain only) it joins the colluder set, whose
  payees file false reception reports for fellow members (Fig. 8);
* with ``send_reports`` (T-Chain only, the default) it still files
  *truthful* reception reports when it is a payee (reports are free
  control messages, not bandwidth contribution); without it, it stays
  silent — the ablation for fully silent attackers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Type

from repro.bt.config import RECHOKE_INTERVAL_S
from repro.bt.peer import UploadPlan
from repro.bt.protocols.eigentrust import EigenTrustLeecher, TrustAuthority
from repro.bt.protocols.tchain import TChainLeecher, TChainState
from repro.sim.events import PeriodicTask

#: fabricated local-trust mass per false-praise round (EigenTrust)
FALSE_PRAISE_WEIGHT = 5.0


@dataclass(frozen=True)
class FreeRiderOptions:
    """Which strategic manipulations the free-rider employs."""

    large_view: bool = True
    whitewash: bool = True
    collude: bool = False
    send_reports: bool = True


_CLASS_CACHE: Dict[tuple, type] = {}

#: How long a T-Chain free-rider sits on an undecryptable sealed piece
#: before discarding it to retry with a fresh payee draw.
_STALE_SEALED_AFTER_S = 30.0


def make_freerider(leecher_cls: Type,
                   options: FreeRiderOptions = FreeRiderOptions()) -> Type:
    """A free-riding subclass of ``leecher_cls`` (class is cached)."""
    cache_key = (leecher_cls, options)
    cached = _CLASS_CACHE.get(cache_key)
    if cached is not None:
        return cached

    is_tchain = issubclass(leecher_cls, TChainLeecher)
    is_eigentrust = issubclass(leecher_cls, EigenTrustLeecher)

    class FreeRider(leecher_cls):
        """A strategic non-contributing leecher."""

        kind = "freerider"

        def __init__(self, swarm, peer_id: Optional[str] = None):
            super().__init__(
                swarm,
                peer_id if peer_id is not None
                else swarm.new_peer_id("F"),
                capacity_kbps=0.0)
            self.unlimited_neighbors = options.large_view
            self._announce_task: Optional[PeriodicTask] = None
            self._discard_task: Optional[PeriodicTask] = None
            self._praise_task: Optional[PeriodicTask] = None
            self.whitewash_count = 0

        # -- zero contribution ----------------------------------------
        def next_upload(self) -> Optional[UploadPlan]:
            return None

        # -- large-view exploit ---------------------------------------
        def on_join(self) -> None:
            super().on_join()
            if options.large_view:
                self._announce_task = PeriodicTask(
                    self.sim, RECHOKE_INTERVAL_S, self.refill_neighbors)
            if options.collude and is_tchain:
                TChainState.of(self.swarm).colluders.add(self.id)
            if options.collude and is_eigentrust:
                # False-praise ring (Sec. V / Table II): colluders
                # feed each other fabricated local trust every epoch.
                authority = TrustAuthority.of(self.swarm)
                authority.colluders.add(self.id)
                self._praise_task = PeriodicTask(
                    self.sim, RECHOKE_INTERVAL_S,
                    self._spread_false_praise)
            if is_tchain:
                # A rational free-rider never reciprocates, so a sealed
                # piece whose key has not arrived (no colluding payee
                # vouched for it) is dead weight: discard it and let
                # the piece be fetched again — maybe with a luckier
                # payee draw next time.
                self._discard_task = PeriodicTask(
                    self.sim, _STALE_SEALED_AFTER_S,
                    self._discard_stale_sealed)

        def stop_timers(self) -> None:
            for task in (self._announce_task, self._discard_task,
                         self._praise_task):
                if task is not None:
                    task.stop()
            super().stop_timers()

        def _spread_false_praise(self) -> None:
            if not self.active:
                return
            authority = TrustAuthority.of(self.swarm)
            for fellow in sorted(authority.colluders):
                if fellow != self.id:
                    authority.report_praise(self.id, fellow,
                                            FALSE_PRAISE_WEIGHT)

        def _discard_stale_sealed(self) -> None:
            if not self.active:
                return
            ledger = TChainState.of(self.swarm).ledger
            now = self.sim.now
            for tx_id in list(self.pending_sealed):
                tx = ledger.find(tx_id)
                if tx is None or not tx.is_open:
                    continue
                delivered = tx.delivered_at if tx.delivered_at \
                    is not None else now
                if now - delivered < _STALE_SEALED_AFTER_S:
                    continue
                sealed = self.drop_sealed(tx_id)
                self.book.unexpect(sealed.piece_index)
                self._drop_obligation(tx_id)
                ledger.abort(tx_id, now)
                ledger.terminate_chain(tx.chain_id, now)

        # -- whitewashing ----------------------------------------------
        def on_piece_completed(self, piece: int) -> None:
            super().on_piece_completed(piece)
            if options.whitewash and self.active:
                # A rational attacker resets its identity only after
                # extracting a *usable* piece — that is what wipes the
                # negative history worth wiping (Sec. IV-C).  Under
                # T-Chain pieces arrive encrypted and useless, so the
                # trigger never fires and flow-control bans stick
                # (Sec. III-A3).  Reconnect after the current event
                # settles, as a real client would drop and redial TCP.
                self.sim.call_now(self._whitewash_now)

        def _whitewash_now(self) -> None:
            if not self.active:
                return
            old_id = self.id
            new_id = self.whitewash()
            if new_id != old_id:
                self.whitewash_count += 1
                if options.collude and is_tchain:
                    colluders = TChainState.of(self.swarm).colluders
                    colluders.discard(old_id)
                    colluders.add(new_id)

        def on_whitewash(self) -> None:
            if is_tchain:
                # A new identity walks away from old obligations.
                self.obligations = ()

        # -- T-Chain reporting policy ----------------------------------
        if is_tchain and not options.send_reports:
            def _report_as_payee(self, prev) -> None:
                """Silent: a reciprocation to us goes unreported."""

    FreeRider.__name__ = f"FreeRiding{leecher_cls.__name__}"
    FreeRider.__qualname__ = FreeRider.__name__
    _CLASS_CACHE[cache_key] = FreeRider
    return FreeRider


def make_freerider_factory(swarm, leecher_cls: Type,
                           options: FreeRiderOptions = FreeRiderOptions()):
    """A zero-argument factory for arrival schedules."""
    cls = make_freerider(leecher_cls, options)
    return lambda: cls(swarm)
