"""Uplink bandwidth model.

Each peer owns an :class:`Uplink` with a fixed capacity split across
``n_slots`` parallel upload slots (the standard slot model of
BitTorrent simulators: original BitTorrent serves 4 regular unchokes
plus 1 optimistic unchoke, each at roughly capacity/5).  A piece
transfer occupies one slot for ``piece_bits / slot_rate`` seconds.

The uplink also keeps the accounting behind the paper's *uplink
utilization* metric (Fig. 3(b)): bits actually pushed versus capacity
over the peer's time in the swarm.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import EventHandle, Simulator


def _transfer_seq(transfer: "Transfer") -> int:
    """Sort key for in-flight views (module-level so the per-event
    ``in_flight`` copy doesn't also build a closure — SL303)."""
    return transfer.seq


class Transfer:
    """One in-flight piece upload occupying a slot."""

    __slots__ = ("uplink", "size_kb", "rate_kbps", "started_at",
                 "on_complete", "meta", "_event", "done", "cancelled",
                 "seq", "_idx")

    def __init__(self, uplink: "Uplink", size_kb: float, rate_kbps: float,
                 on_complete: Callable[["Transfer"], Any], meta: Any,
                 min_duration_s: float = 0.0):
        self.uplink = uplink
        self.size_kb = size_kb
        self.rate_kbps = rate_kbps
        self.started_at = uplink.sim.now
        self.on_complete = on_complete
        self.meta = meta
        self.done = False
        self.cancelled = False
        self.seq = -1  # start order, assigned by the uplink
        self._idx = -1  # position in the uplink's swap-pop list
        duration = (size_kb * 8.0) / rate_kbps
        if min_duration_s > duration:
            # Network-substrate floor: the path (latency + bottleneck
            # serialization) is slower than the slot, so the slot is
            # held for the full path time at the implied lower rate.
            duration = min_duration_s
            self.rate_kbps = (size_kb * 8.0) / duration
        self._event: Optional[EventHandle] = uplink.sim.schedule(
            duration, self._finish)

    @property
    def duration(self) -> float:
        """Nominal transfer duration in seconds."""
        return (self.size_kb * 8.0) / self.rate_kbps

    def _finish(self) -> None:
        self.done = True
        self._event = None
        self.uplink._complete(self)
        self.on_complete(self)

    def cancel(self) -> None:
        """Abort the transfer (e.g. the uploader departed).

        Bits pushed so far still count toward utilization — the
        bandwidth was really spent.
        """
        if self.done or self.cancelled:
            return
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None
        elapsed = self.uplink.sim.now - self.started_at
        partial_kb = min(self.size_kb, elapsed * self.rate_kbps / 8.0)
        self.uplink._abort(self, partial_kb)


class Uplink:
    """A peer's upload link: ``n_slots`` slots of capacity/n each.

    Parameters
    ----------
    sim:
        The simulator (for scheduling and the clock).
    capacity_kbps:
        Total upload capacity.  Zero capacity models a strict
        free-rider; such an uplink never starts transfers.
    n_slots:
        Number of parallel upload slots.
    """

    __slots__ = ("sim", "capacity_kbps", "n_slots", "busy_slots", "kb_sent",
                 "opened_at", "closed_at", "_transfers", "_next_seq",
                 "_sanitizer")

    def __init__(self, sim: Simulator, capacity_kbps: float,
                 n_slots: int = 4):
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if capacity_kbps < 0:
            raise ValueError("capacity must be >= 0")
        self.sim = sim
        self.capacity_kbps = capacity_kbps
        self.n_slots = n_slots
        self.busy_slots = 0
        self.kb_sent = 0.0
        self.opened_at = sim.now
        self.closed_at: Optional[float] = None
        # Removal is O(1) swap-pop (each transfer knows its index), so
        # the list order is *not* start order; anything order-sensitive
        # must sort by ``Transfer.seq`` (see close/in_flight).
        self._transfers: list = []
        self._next_seq = 0
        # Conservation checks ride along when the simulator runs with
        # sanitize=True; None otherwise, costing one attribute read.
        self._sanitizer = getattr(sim, "sanitizer", None)

    @property
    def slot_rate_kbps(self) -> float:
        """Rate of one slot."""
        return self.capacity_kbps / self.n_slots

    @property
    def idle_slots(self) -> int:
        """Slots currently free."""
        return self.n_slots - self.busy_slots

    def try_start(self, size_kb: float,
                  on_complete: Callable[[Transfer], Any],
                  meta: Any = None,
                  min_duration_s: float = 0.0) -> Optional[Transfer]:
        """Start a transfer if a slot is free; ``None`` otherwise.

        A zero-capacity uplink never transfers (strict free-rider).
        ``min_duration_s`` floors the delivery time (the network
        substrate's path latency + bottleneck serialization): the
        piece lands at ``max(slot time, min_duration_s)``.
        """
        if self.closed_at is not None:
            return None
        if self.capacity_kbps <= 0 or self.busy_slots >= self.n_slots:
            return None
        self.busy_slots += 1
        transfer = Transfer(self, size_kb, self.slot_rate_kbps,
                            on_complete, meta,
                            min_duration_s=min_duration_s)
        transfer.seq = self._next_seq
        self._next_seq += 1
        transfer._idx = len(self._transfers)
        self._transfers.append(transfer)
        if self._sanitizer is not None:
            self._sanitizer.on_transfer_start(self, transfer)
        return transfer

    def _remove(self, transfer: Transfer) -> None:
        """Unlink a transfer in O(1): move the tail into its slot."""
        transfers = self._transfers
        idx = transfer._idx
        tail = transfers.pop()
        if tail is not transfer:
            transfers[idx] = tail
            tail._idx = idx
        transfer._idx = -1

    def _complete(self, transfer: Transfer) -> None:
        self.busy_slots -= 1
        self.kb_sent += transfer.size_kb
        self._remove(transfer)
        if self._sanitizer is not None:
            self._sanitizer.on_transfer_end(self, transfer,
                                            transfer.size_kb)

    def _abort(self, transfer: Transfer, partial_kb: float) -> None:
        self.busy_slots -= 1
        self.kb_sent += partial_kb
        self._remove(transfer)
        if self._sanitizer is not None:
            self._sanitizer.on_transfer_end(self, transfer, partial_kb)

    def close(self) -> None:
        """The peer left the swarm: cancel in-flight transfers and
        freeze the utilization window."""
        if self.closed_at is not None:
            return
        # Cancel in start order: the internal list is swap-pop
        # scrambled, and cancellation order feeds float accumulation
        # (kb_sent) and sanitizer hooks, which must stay bit-stable.
        for transfer in self.in_flight():
            transfer.cancel()
        self.closed_at = self.sim.now

    def in_flight(self) -> list:
        """Currently running transfers (copy, in start order)."""
        return sorted(self._transfers, key=_transfer_seq)

    def utilization(self, now: Optional[float] = None) -> float:
        """Fraction of capacity actually used while in the swarm.

        An explicit ``now`` samples the window ``[opened_at, now]``
        even after the uplink closed (retroactive metric sampling of a
        departed peer); the window never extends past ``closed_at``.
        """
        if now is None:
            end = self.closed_at if self.closed_at is not None \
                else self.sim.now
        elif self.closed_at is not None:
            end = min(self.closed_at, now)
        else:
            end = now
        elapsed = end - self.opened_at
        if elapsed <= 0 or self.capacity_kbps <= 0:
            return 0.0
        return min(1.0, (self.kb_sent * 8.0)
                   / (self.capacity_kbps * elapsed))
