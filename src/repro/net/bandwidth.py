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

from repro.sim.engine import OwnerEvent, Simulator


class Transfer(OwnerEvent):
    """One in-flight piece upload occupying a slot.

    The transfer is its own completion event (:meth:`Simulator.arm`):
    while it is in flight its heap entry is the only scheduling state,
    and :meth:`cancel` kills that entry.
    """

    __slots__ = ("uplink", "size_kb", "rate_kbps", "started_at", "meta",
                 "done")

    def __init__(self, uplink: "Uplink", size_kb: float, rate_kbps: float,
                 meta: Any, min_duration_s: float = 0.0):
        self.uplink = uplink
        self.size_kb = size_kb
        self.rate_kbps = rate_kbps
        self.started_at = uplink.sim.now
        self.meta = meta
        self.done = False
        self.cancelled = False
        duration = (size_kb * 8.0) / rate_kbps
        if min_duration_s > duration:
            # Network-substrate floor: the path (latency + bottleneck
            # serialization) is slower than the slot, so the slot is
            # held for the full path time at the implied lower rate.
            duration = min_duration_s
            self.rate_kbps = (size_kb * 8.0) / duration
        uplink.sim.arm(duration, self)

    @property
    def duration(self) -> float:
        """Nominal transfer duration in seconds."""
        return (self.size_kb * 8.0) / self.rate_kbps

    def _finish(self) -> None:
        self.done = True
        uplink = self.uplink
        uplink._complete(self)
        if uplink.on_complete is not None:
            uplink.on_complete(self)

    fire = _finish

    def cancel(self) -> None:
        """Abort the transfer (e.g. the uploader departed).

        Bits pushed so far still count toward utilization — the
        bandwidth was really spent.
        """
        if self.done or self.cancelled:
            return
        self.cancelled = True
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
    on_complete:
        Called with each transfer that completes (not with cancelled
        ones); one callback for the whole uplink.  :meth:`close` drops
        it, so an owner's bound method keeps no cycle past departure.
    """

    __slots__ = ("sim", "capacity_kbps", "n_slots", "busy_slots", "kb_sent",
                 "opened_at", "closed_at", "on_complete", "transfers",
                 "_sanitizer")

    def __init__(self, sim: Simulator, capacity_kbps: float,
                 n_slots: int = 4,
                 on_complete: Optional[Callable[[Transfer], Any]] = None):
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
        self.on_complete = on_complete
        #: The in-flight transfers in start order: the one record of
        #: what this uplink is sending (at most ``n_slots``, so
        #: removal by ``list.remove`` is cheap and keeps the order).
        self.transfers: list = []
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

    def try_start(self, size_kb: float, meta: Any = None,
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
        transfer = Transfer(self, size_kb, self.slot_rate_kbps, meta,
                            min_duration_s=min_duration_s)
        self.transfers.append(transfer)
        if self._sanitizer is not None:
            self._sanitizer.on_transfer_start(self, transfer)
        return transfer

    def _complete(self, transfer: Transfer) -> None:
        self.busy_slots -= 1
        self.kb_sent += transfer.size_kb
        self.transfers.remove(transfer)
        if self._sanitizer is not None:
            self._sanitizer.on_transfer_end(self, transfer,
                                            transfer.size_kb)

    def _abort(self, transfer: Transfer, partial_kb: float) -> None:
        self.busy_slots -= 1
        self.kb_sent += partial_kb
        self.transfers.remove(transfer)
        if self._sanitizer is not None:
            self._sanitizer.on_transfer_end(self, transfer, partial_kb)

    def close(self) -> list:
        """The peer left the swarm: cancel in-flight transfers, drop
        the completion callback and freeze the utilization window.
        Returns the cancelled transfers in start order, the order they
        were cancelled in: it feeds ``kb_sent``'s float sum and the
        sanitizer hooks, which must stay bit-stable."""
        if self.closed_at is not None:
            return []
        cancelled = self.in_flight()
        for transfer in cancelled:
            transfer.cancel()
        self.on_complete = None
        self.closed_at = self.sim.now
        return cancelled

    def in_flight(self) -> list:
        """Currently running transfers (copy, in start order)."""
        return self.transfers[:]

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
