"""Flow control: adaptive receiver selection (Sec. II-D2).

Each peer records, per neighbor, the number of *pending* file pieces —
encrypted pieces it uploaded to that neighbor for which no notification
of reciprocation has arrived yet.  A neighbor with ``k`` or more
pending pieces is neither selected to receive pieces nor designated as
a payee until its backlog drains.  The paper fixes ``k = 2``.

This one mechanism both smooths heterogeneous upload capacities and
starves free-riders: a peer that never reciprocates accumulates pending
pieces at every honest neighbor and is quietly banned everywhere, with
no reputation system or information sharing required.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Dict, Iterable, List, Optional

DEFAULT_PENDING_LIMIT = 2
"""The paper's k = 2 (Sec. II-D2)."""

#: ``FlowController.blocked`` while no neighbor is over the window
_NONE_BLOCKED: AbstractSet[str] = frozenset()


class FlowController:
    """Per-peer pending-piece accounting.

    Parameters
    ----------
    pending_limit:
        The window k, fixed for the controller's life.  Neighbors at
        or above the limit are ineligible.
    """

    __slots__ = ("pending_limit", "_pending", "blocked", "_forgotten",
                 "underflows", "on_underflow")

    def __init__(self, pending_limit: int = DEFAULT_PENDING_LIMIT,
                 remember_forgotten: bool = True):
        if pending_limit < 1:
            raise ValueError("pending_limit must be >= 1")
        self.pending_limit = pending_limit
        self._pending: Dict[str, int] = {}
        #: The window itself: ids whose pending count is at or over
        #: the limit, i.e. exactly the neighbors that are not
        #: :meth:`eligible`.  Edited only here, where a count crosses
        #: the limit; read it freely (a planning loop pays one set
        #: lookup per neighbor instead of a method call).  Most windows
        #: are open at any moment, so the set is made when a neighbor
        #: blocks and dropped when the last one unblocks.
        self.blocked: AbstractSet[str] = _NONE_BLOCKED
        #: Every id :meth:`forget` ever dropped, or ``None`` when the
        #: owner will never ask :meth:`was_forgotten` (a T-Chain node
        #: in an unsanitized run): the set only grows, one id per
        #: departed neighbor per peer.
        self._forgotten: Optional[set] = \
            set() if remember_forgotten else None
        #: Decrements that arrived with an already-empty window.  A
        #: nonzero count after a run where no neighbor was forgotten
        #: means some exchange was confirmed/written off twice — the
        #: window would have re-opened early without the zero floor.
        self.underflows = 0
        #: Fired as ``(neighbor_id,)`` when a decrement finds an empty
        #: window.  The count stays floored at zero and the window does
        #: not move; the owner decides whether the underflow is benign
        #: (a confirm straggling in after ``forget``) or an accounting
        #: bug worth escalating to the sanitizer.
        self.on_underflow: Optional[Callable[[str], None]] = None

    def on_piece_sent(self, neighbor_id: str) -> None:
        """An encrypted piece was uploaded to ``neighbor_id``."""
        count = self._pending.get(neighbor_id, 0) + 1
        self._pending[neighbor_id] = count
        # count steps by one, so == pending_limit is exactly the
        # eligible -> blocked flip.
        if count == self.pending_limit:
            if self.blocked:
                self.blocked.add(neighbor_id)
            else:
                self.blocked = {neighbor_id}

    def on_reciprocation_confirmed(self, neighbor_id: str) -> None:
        """A reciprocation notification for ``neighbor_id`` arrived."""
        count = self._pending.get(neighbor_id, 0)
        if count == 0:
            # Floor at zero: a duplicate confirm/write-off must not
            # push the window negative (the next on_piece_sent would
            # then under-count the true backlog and re-open a blocked
            # neighbor early).
            self.underflows += 1
            if self.on_underflow is not None:
                self.on_underflow(neighbor_id)
            return
        if count == 1:
            self._pending.pop(neighbor_id, None)
        else:
            self._pending[neighbor_id] = count - 1
        # The blocked -> eligible flip: the count drops off the limit.
        if count == self.pending_limit:
            self._unblock(neighbor_id)

    def _unblock(self, neighbor_id: str) -> None:
        blocked = self.blocked
        if neighbor_id in blocked:
            if len(blocked) == 1:
                self.blocked = _NONE_BLOCKED
            else:
                blocked.discard(neighbor_id)

    def write_off(self, neighbor_id: str) -> None:
        """Write one dead exchange off the neighbor's window.

        Called when the donor abandons a transaction (stall watchdog,
        abort): pending pieces track *outstanding* exchanges, not
        lifetime debt, so a written-off exchange stops occupying the
        window.  A persistent non-reciprocator still spends its whole
        window on dead exchanges at any moment — it stays starved of
        throughput — but is not banned beyond the write-off horizon.
        """
        self.on_reciprocation_confirmed(neighbor_id)

    def forget(self, neighbor_id: str) -> None:
        """Drop state for a departed neighbor.

        With ``remember_forgotten`` the id is kept for :meth:`was_forgotten`,
        so a straggling confirm (a report in flight when the neighbor
        disconnected) is told apart from a genuine double-drain underflow.
        """
        self._pending.pop(neighbor_id, None)
        if self._forgotten is not None:
            self._forgotten.add(neighbor_id)
        self._unblock(neighbor_id)

    def was_forgotten(self, neighbor_id: str) -> bool:
        """True if ``forget`` was ever called for this neighbor
        (always False when built with ``remember_forgotten=False``)."""
        return self._forgotten is not None \
            and neighbor_id in self._forgotten

    def pending(self, neighbor_id: str) -> int:
        """Current pending count for a neighbor."""
        return self._pending.get(neighbor_id, 0)

    def eligible(self, neighbor_id: str) -> bool:
        """True while the neighbor is under the window."""
        return neighbor_id not in self.blocked

    def least_loaded(self, neighbor_ids: Iterable[str]) -> List[str]:
        """Neighbors with the smallest pending count (the alternative
        selection rule mentioned in Sec. II-D2)."""
        ids = list(neighbor_ids)
        if not ids:
            return []
        low = min(self.pending(n) for n in ids)
        return [n for n in ids if self.pending(n) == low]

    def check_consistency(self) -> None:
        """Assert the window equals a recount of the pending map."""
        expected = {n for n, count in self._pending.items()
                    if count >= self.pending_limit}
        assert self.blocked == expected, (
            f"blocked {sorted(self.blocked)} != over-window "
            f"{sorted(expected)}")

    @property
    def total_pending(self) -> int:
        """Total outstanding pieces across all neighbors."""
        return sum(self._pending.values())
