"""Runtime simulation sanitizer.

Where :mod:`repro.devtools.rules` checks *source*, the sanitizer
checks *executions*.  ``Simulator(sanitize=True)`` attaches a
:class:`SimulationSanitizer` that the engine, the exchange ledger and
the bandwidth model call into at every protocol-relevant step, keeping
independent shadow state and raising :class:`SanitizerError` the
moment an invariant breaks:

* **heap-time monotonicity** — fired events never move the clock
  backwards, and no event carries a non-finite or negative time;
* **bandwidth conservation** — an uplink never reports more kilobytes
  sent than its capacity allows over its open window, and its slot
  count stays within ``[0, n_slots]``;
* **piece conservation** — a completed transfer credits exactly the
  piece size it started with; an aborted one never credits more;
* **almost-fair exchange** — a key is only released for a transaction
  whose reception report the sanitizer itself observed, and a
  *truthful* report only follows a reciprocation the sanitizer
  observed (the one sanctioned exception, a colluding false report,
  is tracked separately — it is a modelled attack, not a bug);
* **unwanted pumps** — a pump stopped at a peer's ``unwanted`` bit is
  recounted: no live neighbour may want a piece the peer holds.

Because the shadow state is independent of the ledger's own state
machine, the sanitizer catches corruption that bypasses the public
API (e.g. a transaction whose ``state`` field was overwritten), not
just illegal calls the ledger would refuse anyway.

The sanitizer keeps a bounded diagnostic trace of recent hook events;
every :class:`SanitizerError` message ends with it, so a failure deep
in a million-event run still shows the path that led there.

:class:`AllocProfile` is the other engine sink here: attached with
``sim.add_observer(AllocProfile())`` it records per-event-type
allocation deltas; its per-event ceilings in the test suite are the
one guard on the simulator's allocation bill.
"""

from __future__ import annotations

import gc
import math
import sys
import tracemalloc
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set

#: Relative slack for floating-point accumulation in conservation
#: checks.  Uplink accounting sums at most a few thousand transfers,
#: so parts-per-million covers the worst realistic drift.
EPS = 1e-6

#: Diagnostic trace depth.
TRACE_DEPTH = 32


class SanitizerError(AssertionError):
    """A simulation invariant was violated at runtime."""


class SimulationSanitizer:
    """Shadow-state invariant checker for one :class:`Simulator`.

    Parameters
    ----------
    sim:
        The simulator being watched (for the clock in diagnostics).
        May be None in unit tests exercising single hooks.
    """

    def __init__(self, sim: Optional[Any] = None):
        self.sim = sim
        self.checks_run = 0
        self._trace: Deque[str] = deque(maxlen=TRACE_DEPTH)
        self._last_event_time = -math.inf
        # Exchange shadow state, keyed by transaction id.
        self._delivered: Set[int] = set()
        self._reciprocated: Set[int] = set()
        self._reported: Dict[int, bool] = {}  # id -> truthful
        self._forgiven: Set[int] = set()
        self._released: Set[int] = set()
        self._aborted: Set[int] = set()
        self.collusion_releases = 0

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def _note(self, message: str) -> None:
        now = getattr(self.sim, "now", None)
        stamp = f"t={now:.6g}" if isinstance(now, float) else "t=?"
        self._trace.append(f"[{stamp}] {message}")

    def _fail(self, message: str) -> None:
        trace = "\n  ".join(self._trace) or "(empty)"
        raise SanitizerError(
            f"{message}\nrecent simulation trace (oldest first):\n"
            f"  {trace}")

    # ------------------------------------------------------------------
    # Engine hooks (repro.sim.engine)
    # ------------------------------------------------------------------
    def on_schedule(self, time: Any) -> None:
        """A new event entered the heap, to fire at ``time``."""
        self.checks_run += 1
        if not isinstance(time, (int, float)) or not math.isfinite(time):
            self._fail(f"event scheduled at non-finite time {time!r}")
        if time < 0:
            self._fail(f"event scheduled at negative time {time!r}")

    def begin(self, handle: Any) -> None:
        """Sink hook: the engine is about to fire ``handle``."""
        self.checks_run += 1
        if handle.time < self._last_event_time:
            self._fail(
                f"heap-time monotonicity violated: firing event at "
                f"t={handle.time!r} after t={self._last_event_time!r}")
        sim_now = getattr(self.sim, "now", None)
        if sim_now is not None and handle.time < sim_now - 0.0:
            self._fail(
                f"event at t={handle.time!r} fires behind the clock "
                f"(now={sim_now!r})")
        self._last_event_time = handle.time
        self._note(f"event seq={handle.seq} at t={handle.time:.6g}")

    # ------------------------------------------------------------------
    # Bandwidth hooks (repro.net.bandwidth)
    # ------------------------------------------------------------------
    def on_transfer_start(self, uplink: Any, transfer: Any) -> None:
        """An uplink slot was occupied."""
        self.checks_run += 1
        if uplink.busy_slots < 0 or uplink.busy_slots > uplink.n_slots:
            self._fail(
                f"uplink busy_slots={uplink.busy_slots} outside "
                f"[0, {uplink.n_slots}]")
        if transfer.size_kb < 0:
            self._fail(f"negative transfer size {transfer.size_kb!r}")
        self._note(f"transfer start {transfer.size_kb:g} KB "
                   f"({uplink.busy_slots}/{uplink.n_slots} slots)")

    def on_transfer_end(self, uplink: Any, transfer: Any,
                        credited_kb: float) -> None:
        """A transfer completed or aborted, crediting ``credited_kb``."""
        self.checks_run += 1
        if uplink.busy_slots < 0 or uplink.busy_slots > uplink.n_slots:
            self._fail(
                f"uplink busy_slots={uplink.busy_slots} outside "
                f"[0, {uplink.n_slots}]")
        if credited_kb < 0 or credited_kb > transfer.size_kb * (1 + EPS):
            self._fail(
                f"piece conservation violated: transfer of "
                f"{transfer.size_kb:g} KB credited {credited_kb:g} KB")
        self._check_uplink_conservation(uplink)
        self._note(f"transfer end +{credited_kb:g} KB "
                   f"(total {uplink.kb_sent:g} KB)")

    def _check_uplink_conservation(self, uplink: Any) -> None:
        now = uplink.sim.now
        end = uplink.closed_at if uplink.closed_at is not None else now
        window_s = max(0.0, end - uplink.opened_at)
        budget_kb = uplink.capacity_kbps * window_s / 8.0
        if uplink.kb_sent > budget_kb * (1 + EPS) + EPS:
            self._fail(
                f"bandwidth conservation violated: uplink sent "
                f"{uplink.kb_sent:g} KB but capacity "
                f"{uplink.capacity_kbps:g} Kbps over {window_s:g} s "
                f"allows only {budget_kb:g} KB")

    # ------------------------------------------------------------------
    # Flow-control hooks (repro.core.flow_control via the protocol)
    # ------------------------------------------------------------------
    def on_flow_underflow(self, donor_id: str, neighbor_id: str,
                          benign: bool = False) -> None:
        """A flow window was drained past empty.

        ``benign`` means the owner can account for it (the neighbor's
        state was dropped by ``forget`` after a disconnect, so a
        straggling reciprocation confirm legitimately finds an empty
        window).  A non-benign underflow is a double confirm/write-off
        for the same exchange — exactly the accounting bug that would
        re-open a blocked neighbor early if the count went negative.
        """
        self.checks_run += 1
        if benign:
            self._note(f"flow underflow {donor_id}->{neighbor_id} "
                       f"(benign: neighbor state was forgotten)")
            return
        self._fail(
            f"flow-control window underflow: donor {donor_id} drained "
            f"an empty window for neighbor {neighbor_id} that was "
            f"never forgotten (duplicate reciprocation confirm or "
            f"write-off for one exchange)")

    # ------------------------------------------------------------------
    # Swarm-state hooks (repro.bt.peer)
    # ------------------------------------------------------------------
    def on_unwanted_pump(self, peer: Any) -> None:
        """``Peer.pump`` stopped at the peer's ``unwanted`` bit."""
        self.checks_run += 1
        wanting = [other.id for other in peer.neighbor_peers()
                   if other.book.wmask & peer.book.cmask]
        if wanting:
            self._fail(f"pump of {peer.id} stopped as unwanted, but "
                       f"neighbors {wanting} want a piece it holds")

    def on_all_known_refill(self, peer: Any) -> None:
        """``Peer.refill_neighbors`` judged by degree that the peer
        knows every other member: its neighbour set must be exactly
        the other members, so that ``Tracker.announce`` with that set
        would have returned ``[]``."""
        self.checks_run += 1
        tracker = peer.swarm.tracker
        known = peer.swarm.columnar.neighbor_ids(peer.id)
        outsiders = sorted(other for other in known
                           if not tracker.is_member(other))
        if outsiders or peer.id in known \
                or len(known) != tracker.member_count - 1:
            self._fail(f"refill of {peer.id} skipped as all-known, but "
                       f"its neighbours {sorted(known)} are not the "
                       f"other {tracker.member_count - 1} members "
                       f"(non-members: {outsiders})")

    # ------------------------------------------------------------------
    # Exchange hooks (repro.core.exchange)
    # ------------------------------------------------------------------
    def on_transaction_created(self, tx: Any) -> None:
        self.checks_run += 1
        self._note(f"tx {tx.transaction_id} created "
                   f"({tx.donor_id}->{tx.requestor_id}, "
                   f"payee={tx.payee_id})")

    def on_delivered(self, tx: Any) -> None:
        self.checks_run += 1
        self._delivered.add(tx.transaction_id)
        self._note(f"tx {tx.transaction_id} delivered")

    def on_reciprocated(self, tx: Any, by_tx: Any) -> None:
        """``by_tx``'s delivery fulfilled ``tx``'s reciprocation duty."""
        self.checks_run += 1
        if tx.transaction_id not in self._delivered:
            self._fail(
                f"transaction {tx.transaction_id} reciprocated before "
                f"its own delivery was observed")
        self._reciprocated.add(tx.transaction_id)
        self._note(f"tx {tx.transaction_id} reciprocated by "
                   f"tx {by_tx.transaction_id}")

    def on_report(self, tx: Any, truthful: bool) -> None:
        """A reception report reached the donor."""
        self.checks_run += 1
        if truthful and tx.transaction_id not in self._reciprocated:
            self._fail(
                f"truthful reception report for transaction "
                f"{tx.transaction_id} without an observed reciprocation")
        self._reported[tx.transaction_id] = truthful
        kind = "truthful" if truthful else "COLLUSIVE"
        self._note(f"tx {tx.transaction_id} reported ({kind})")

    def on_forgive(self, tx: Any) -> None:
        """The donor waived reciprocation (sanctioned escape hatch)."""
        self.checks_run += 1
        if tx.transaction_id not in self._delivered:
            self._fail(
                f"transaction {tx.transaction_id} forgiven before "
                f"delivery")
        self._forgiven.add(tx.transaction_id)
        self._note(f"tx {tx.transaction_id} forgiven")

    def on_reopen(self, tx: Any) -> None:
        """A reciprocated-but-unreported transaction rolled back to
        DELIVERED (the silent-payee recovery of Sec. II-B4).

        The shadow reciprocation/report facts are withdrawn: the
        requestor owes a *fresh* reciprocation, and a key released on
        the stale evidence must fail as a violation rather than ride
        on state from before the rollback.
        """
        self.checks_run += 1
        tx_id = tx.transaction_id
        if tx_id not in self._reciprocated:
            self._fail(
                f"transaction {tx_id} reopened but no reciprocation "
                f"was ever observed (reopen is only legal from "
                f"RECIPROCATED)")
        if tx_id in self._released:
            self._fail(
                f"transaction {tx_id} reopened after its key was "
                f"released")
        self._reciprocated.discard(tx_id)
        self._reported.pop(tx_id, None)
        self._note(f"tx {tx_id} reopened (reciprocation withdrawn)")

    def on_abort(self, tx: Any) -> None:
        """A transaction died (unrecoverable departure / write-off)."""
        self.checks_run += 1
        tx_id = tx.transaction_id
        if tx_id in self._released:
            self._fail(
                f"transaction {tx_id} aborted after its key was "
                f"released (completed exchanges cannot abort)")
        self._aborted.add(tx_id)
        self._note(f"tx {tx_id} aborted")

    def on_key_release(self, tx: Any) -> None:
        """The fair-exchange core: no observed report, no key."""
        self.checks_run += 1
        tx_id = tx.transaction_id
        if tx_id in self._released:
            self._fail(f"key for transaction {tx_id} released twice")
        if tx_id in self._aborted:
            self._fail(
                f"fair-exchange violation: key for transaction "
                f"{tx_id} released after the transaction aborted")
        if tx_id in self._forgiven:
            self._released.add(tx_id)
            self._note(f"tx {tx_id} key released (forgiven)")
            return
        if tx_id not in self._reported:
            self._fail(
                f"fair-exchange violation: key for transaction "
                f"{tx_id} released before any reception report was "
                f"observed (early key release)")
        if self._reported[tx_id] is True \
                and tx_id not in self._reciprocated:
            self._fail(
                f"fair-exchange violation: key for transaction "
                f"{tx_id} released on a truthful report but no "
                f"reciprocal upload completed")
        if self._reported[tx_id] is False:
            self.collusion_releases += 1
        self._released.add(tx_id)
        self._note(f"tx {tx_id} key released")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"SimulationSanitizer(checks={self.checks_run}, "
                f"released={len(self._released)}, "
                f"collusive={self.collusion_releases})")


class AllocProfile:
    """Per-event-type allocation profile, an engine sink:
    ``sim.add_observer(AllocProfile())`` (for a whole swarm run, from
    ``run_swarm``'s ``setup`` hook).

    For every event fired after it is attached it records the delta of
    ``tracemalloc``'s traced bytes and of the interpreter's live
    allocation-block count across the callback, keyed by the
    callback's ``__qualname__`` — the per-event-type ground truth that
    the pinned allocation ceilings (docs/PERF.md, "Allocation audit")
    are measured with.  Deltas can be negative (a callback that frees more than
    it allocates); sums are kept raw.  Sinks nest, so the window holds
    the callback and the hooks of sinks attached *after* this one:
    attach it last.

    The profile starts ``tracemalloc`` if it is not already tracing
    and remembers whether it owns the tracer; call :meth:`close` when
    done to stop an owned tracer (profiling roughly doubles event
    dispatch cost, which is why it is opt-in).

    The cyclic garbage collector is paused for the lifetime of the
    profile (restored by :meth:`close`): an opportunistic collection
    inside a measured callback frees an arbitrary batch of *other*
    events' garbage, turning that one delta hugely negative and making
    two runs incomparable.  Refcount frees — the overwhelming majority
    in the simulator — are unaffected.
    """

    __slots__ = ("by_event", "_owns_tracing", "_owns_gc", "_closed",
                 "_name", "_bytes", "_blocks")

    def __init__(self) -> None:
        #: qualname -> [events fired, traced bytes delta, block delta]
        self.by_event: Dict[str, List[int]] = {}
        self._owns_tracing = not tracemalloc.is_tracing()
        self._owns_gc = gc.isenabled()
        self._closed = False
        self._name = self._bytes = self._blocks = None
        if self._owns_tracing:
            tracemalloc.start()
        gc.disable()

    def begin(self, handle: Any) -> None:
        callback = handle.callback
        name = getattr(callback, "__qualname__", None)
        self._name = repr(callback) if name is None else name
        self._bytes = tracemalloc.get_traced_memory()[0]
        self._blocks = sys.getallocatedblocks()

    def end(self) -> None:
        d_bytes = tracemalloc.get_traced_memory()[0] - self._bytes
        d_blocks = sys.getallocatedblocks() - self._blocks
        row = self.by_event.get(self._name)
        if row is None:
            row = self.by_event[self._name] = [0, 0, 0]
        # Drop the marks now, after measuring: the next begin() would
        # otherwise free them inside its own window.
        self._name = self._bytes = self._blocks = None
        row[0] += 1
        row[1] += d_bytes
        row[2] += d_blocks

    def _total(self, column: int) -> int:
        return sum(row[column] for row in self.by_event.values())

    @property
    def events(self) -> int:
        return self._total(0)

    def bytes_per_event(self) -> float:
        return self._total(1) / self.events if self.by_event else 0.0

    def allocs_per_event(self) -> float:
        return self._total(2) / self.events if self.by_event else 0.0

    def summary(self) -> Dict[str, object]:
        """JSON-friendly totals plus the per-event-type breakdown."""
        return {
            "events": self.events,
            "traced_bytes": self._total(1),
            "blocks": self._total(2),
            "bytes_per_event": round(self.bytes_per_event(), 3),
            "allocs_per_event": round(self.allocs_per_event(), 3),
            "by_event": {name: {"events": row[0], "bytes": row[1],
                                "blocks": row[2]}
                         for name, row in sorted(self.by_event.items())},
        }

    def close(self) -> None:
        """Stop an owned tracemalloc tracer and restore the cyclic
        collector if it was enabled before profiling.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._owns_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
        if self._owns_gc:
            gc.enable()
