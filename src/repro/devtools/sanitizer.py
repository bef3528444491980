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
  is tracked separately — it is a modelled attack, not a bug).

Because the shadow state is independent of the ledger's own state
machine, the sanitizer catches corruption that bypasses the public
API (e.g. a transaction whose ``state`` field was overwritten), not
just illegal calls the ledger would refuse anyway.

The sanitizer keeps a bounded diagnostic trace of recent hook events;
every :class:`SanitizerError` message ends with it, so a failure deep
in a million-event run still shows the path that led there.

``Simulator(sanitize="races")`` additionally attaches a
:class:`RaceReporter` — the dynamic counterpart of ``simlint``'s
static SL2xx race rules.  It records the field-level read/write
footprint of every event (by temporarily instrumenting
``__getattribute__``/``__setattr__`` on the watched state classes) and
reports pairs of *same-instant* events whose footprints conflict:
both wrote a field, or one read what the other wrote.  Such pairs are
exactly the events whose outcome depends on the engine's ``(time,
seq)`` tie-break — deterministic today, but unsafe to coalesce or
reorder (ROADMAP item 1).  Unlike the invariant sanitizer it never
raises: a conflict is an order-sensitivity *hazard*, not a bug, so it
collects bounded, deduplicated :class:`RaceConflict` records for the
caller to inspect (``repro chaos --races`` prints them).
"""

from __future__ import annotations

import math
from collections import deque
from typing import (Any, Deque, Dict, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

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
    def on_schedule(self, handle: Any) -> None:
        """A new event entered the heap."""
        self.checks_run += 1
        time = handle.time
        if not isinstance(time, (int, float)) or not math.isfinite(time):
            self._fail(f"event scheduled at non-finite time {time!r}")
        if time < 0:
            self._fail(f"event scheduled at negative time {time!r}")

    def on_event(self, handle: Any) -> None:
        """The engine is about to fire ``handle``."""
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


# ======================================================================
# Runtime race reporter (sanitize="races")
# ======================================================================

#: At most this many distinct conflict records are retained; the total
#: counter keeps counting past the cap.
MAX_CONFLICTS = 200

#: Fully-qualified default watch list.  Mirrors the class universe the
#: static effect inference (repro.devtools.effects) tracks: protocol
#: and ledger state whose same-instant interleaving is trace-relevant.
#: Entries that fail to import are skipped (the reporter must work in
#: engine-only unit tests with no swarm stack loaded).
_DEFAULT_WATCH = (
    ("repro.bt.peer", "Peer"),
    ("repro.bt.torrent", "PieceBook"),
    ("repro.bt.choking", "Choker"),
    ("repro.bt.choking", "ContributionTracker"),
    ("repro.bt.choking", "DeficitLedger"),
    ("repro.core.exchange", "ExchangeLedger"),
    ("repro.core.transaction", "Transaction"),
    ("repro.analysis.metrics", "PeerRecord"),
    ("repro.analysis.metrics", "RecoveryCounters"),
)

#: Classes currently instrumented, mapping class -> [orig_getattribute,
#: orig_setattr, had_own_getattribute, had_own_setattr, refcount].
#: Refcounted so two live reporters (e.g. parallel unit tests in one
#: process) can share a patch and uninstall restores the original
#: methods only when the last reporter detaches.
_PATCHED: Dict[type, list] = {}

#: The reporter currently recording, or None.  Only set between
#: ``on_event_begin`` and ``on_event_end`` so instrumented classes pay
#: a single global load + None check outside event execution.
_ACTIVE: Optional["RaceReporter"] = None

_object_getattribute = object.__getattribute__


class EventProv(NamedTuple):
    """Provenance of one fired event, captured before the engine
    clears the handle's callback."""
    seq: int
    time: float
    callback: str


class RaceConflict(NamedTuple):
    """Two same-instant events touched the same field conflictingly.

    ``kind`` is ``"write/write"`` (both wrote), ``"read/write"`` (the
    first read what the second then wrote) or ``"write/read"`` (the
    second read what the first wrote).  ``first``/``second`` fire in
    seq order; swapping them could change the trace, which is exactly
    what makes the pair unsafe to coalesce or reorder.
    """
    time: float
    cls: str
    field: str
    kind: str
    first: EventProv
    second: EventProv

    def describe(self) -> str:
        return (f"t={self.time:.6g} {self.cls}.{self.field} "
                f"{self.kind}: {self.first.callback} "
                f"(seq {self.first.seq}) vs {self.second.callback} "
                f"(seq {self.second.seq})")


def _patch_class(cls: type) -> None:
    """Instrument ``cls`` so attribute reads/writes reach the active
    reporter.  Idempotent per reporter via the refcount."""
    patch = _PATCHED.get(cls)
    if patch is not None:
        patch[4] += 1
        return
    orig_ga = cls.__getattribute__
    orig_sa = cls.__setattr__
    had_ga = "__getattribute__" in cls.__dict__
    had_sa = "__setattr__" in cls.__dict__

    def recording_getattribute(self, name, _orig=orig_ga):
        rec = _ACTIVE
        if rec is not None:
            rec._record_read(self, name)
        return _orig(self, name)

    def recording_setattr(self, name, value, _orig=orig_sa):
        rec = _ACTIVE
        if rec is not None:
            rec._record_write(self, name)
        _orig(self, name, value)

    cls.__getattribute__ = recording_getattribute  # type: ignore
    cls.__setattr__ = recording_setattr  # type: ignore
    _PATCHED[cls] = [orig_ga, orig_sa, had_ga, had_sa, 1]


def _unpatch_class(cls: type) -> None:
    patch = _PATCHED.get(cls)
    if patch is None:
        return
    patch[4] -= 1
    if patch[4] > 0:
        return
    orig_ga, orig_sa, had_ga, had_sa = patch[:4]
    # Restore inheritance rather than pinning a bound slot wrapper on
    # classes that never defined these methods themselves.
    if had_ga:
        cls.__getattribute__ = orig_ga  # type: ignore
    else:
        del cls.__getattribute__
    if had_sa:
        cls.__setattr__ = orig_sa  # type: ignore
    else:
        del cls.__setattr__
    del _PATCHED[cls]


class RaceReporter:
    """Dynamic same-instant conflict detector (see module docstring).

    Attach via ``Simulator(sanitize="races")``.  The engine calls
    :meth:`on_event_begin` / :meth:`on_event_end` around every fired
    event; attribute accesses on watched classes during that window
    are recorded into the event's footprint.  Footprints accumulate
    per *timestamp batch* — the maximal run of events sharing one
    exact event time — and each new event's footprint is checked
    against the batch's accumulated readers/writers.

    The reporter is a diagnostic collector, never an oracle that
    raises: real swarms legitimately produce same-instant commutative
    touches (metric increments, disjoint peers), so conflicts are
    deduplicated by ``(class, field, callback-pair, kind)`` and capped
    at :data:`MAX_CONFLICTS` retained records.

    Call :meth:`uninstall` when done — ``run_swarm`` does this in a
    ``finally`` so instrumented classes never leak patched methods
    into later runs.
    """

    def __init__(self, sim: Optional[Any] = None,
                 watch: Optional[Sequence[type]] = None):
        self.sim = sim
        self.events_seen = 0
        self.total_conflicts = 0
        self.conflicts: List[RaceConflict] = []
        self._seen_pairs: Set[Tuple[str, str, str, str, str]] = set()
        self._classes: List[type] = []
        # Batch state: accumulated first-toucher per (id(obj), field).
        self._batch_time: Optional[float] = None
        self._batch_writers: Dict[Tuple[int, str],
                                  Tuple[EventProv, str]] = {}
        self._batch_readers: Dict[Tuple[int, str],
                                  Tuple[EventProv, str]] = {}
        # Strong refs to touched objects for the batch lifetime, so
        # id() keys cannot be reused by freshly allocated objects.
        self._batch_refs: List[Any] = []
        # Current-event state.
        self._current: Optional[EventProv] = None
        self._cur_reads: Dict[Tuple[int, str], Tuple[Any, str]] = {}
        self._cur_writes: Dict[Tuple[int, str], Tuple[Any, str]] = {}
        self._installed = False
        if watch is not None:
            classes = list(watch)
        else:
            classes = self._resolve_default_watch()
        for cls in classes:
            self.watch(cls)
        self._installed = True

    @staticmethod
    def _resolve_default_watch() -> List[type]:
        import importlib
        classes = []
        for module_name, cls_name in _DEFAULT_WATCH:
            try:
                module = importlib.import_module(module_name)
                classes.append(getattr(module, cls_name))
            except (ImportError, AttributeError):  # pragma: no cover
                continue
        return classes

    def watch(self, cls: type) -> None:
        """Add ``cls`` to the instrumented set (idempotent)."""
        if cls in self._classes:
            return
        self._classes.append(cls)
        _patch_class(cls)

    def uninstall(self) -> None:
        """Detach from every watched class and drop batch refs.
        Idempotent; safe to call from a ``finally``."""
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = None
        if not self._installed and not self._classes:
            return
        for cls in self._classes:
            _unpatch_class(cls)
        self._classes = []
        self._installed = False
        self._batch_refs = []
        self._batch_writers = {}
        self._batch_readers = {}

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def on_event_begin(self, handle: Any) -> None:
        """Called by the engine just before ``handle`` fires, while
        its callback is still attached."""
        global _ACTIVE
        time = handle.time
        # Batch membership is exact float equality *by construction*:
        # same-instant events carry the identical time value, so this
        # is set partitioning, not a tolerance comparison.
        if time != self._batch_time:
            self._start_batch(time)
        callback = handle.callback
        name = getattr(callback, "__qualname__", "") or repr(callback)
        self._current = EventProv(handle.seq, time, name)
        self._cur_reads = {}
        self._cur_writes = {}
        self.events_seen += 1
        _ACTIVE = self

    def on_event_end(self) -> None:
        """Called by the engine after the event's callback returned;
        checks this event's footprint against the batch and folds it
        in."""
        global _ACTIVE
        _ACTIVE = None
        cur = self._current
        if cur is None:  # pragma: no cover - defensive
            return
        self._current = None
        writers = self._batch_writers
        readers = self._batch_readers
        for key, (obj, cls_name) in self._cur_writes.items():
            prior_write = writers.get(key)
            if prior_write is not None:
                self._conflict("write/write", key[1], cls_name,
                               prior_write[0], cur)
            else:
                prior_read = readers.get(key)
                if prior_read is not None:
                    self._conflict("read/write", key[1], cls_name,
                                   prior_read[0], cur)
        for key, (obj, cls_name) in self._cur_reads.items():
            prior_write = writers.get(key)
            if prior_write is not None:
                self._conflict("write/read", key[1], cls_name,
                               prior_write[0], cur)
        for key, (obj, cls_name) in self._cur_writes.items():
            if key not in writers:
                writers[key] = (cur, cls_name)
                self._batch_refs.append(obj)
        for key, (obj, cls_name) in self._cur_reads.items():
            if key not in readers:
                readers[key] = (cur, cls_name)
                self._batch_refs.append(obj)
        self._cur_reads = {}
        self._cur_writes = {}

    def _start_batch(self, time: float) -> None:
        self._batch_time = time
        self._batch_writers = {}
        self._batch_readers = {}
        self._batch_refs = []

    # ------------------------------------------------------------------
    # Recording (called from instrumented classes)
    # ------------------------------------------------------------------
    def _record_read(self, obj: Any, name: str) -> None:
        if self._current is None:  # pragma: no cover - defensive
            return
        try:
            inst = _object_getattribute(obj, "__dict__")
        except AttributeError:  # pragma: no cover - slotted class
            return
        if name not in inst:
            # Method/class-attribute lookup, not instance state.
            return
        key = (id(obj), name)
        if key in self._cur_writes or key in self._cur_reads:
            return
        self._cur_reads[key] = (obj, type(obj).__name__)

    def _record_write(self, obj: Any, name: str) -> None:
        if self._current is None:  # pragma: no cover - defensive
            return
        key = (id(obj), name)
        if key not in self._cur_writes:
            self._cur_writes[key] = (obj, type(obj).__name__)

    # ------------------------------------------------------------------
    # Conflict accounting
    # ------------------------------------------------------------------
    def _conflict(self, kind: str, field: str, cls_name: str,
                  first: EventProv, second: EventProv) -> None:
        self.total_conflicts += 1
        dedup = (cls_name, field, first.callback, second.callback, kind)
        if dedup in self._seen_pairs:
            return
        self._seen_pairs.add(dedup)
        if len(self.conflicts) < MAX_CONFLICTS:
            self.conflicts.append(RaceConflict(
                time=second.time, cls=cls_name, field=field, kind=kind,
                first=first, second=second))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def conflict_pairs(self) -> List[str]:
        """Human-readable, deduplicated conflict descriptions."""
        return [c.describe() for c in self.conflicts]

    def summary(self) -> Dict[str, Any]:
        return {
            "events_seen": self.events_seen,
            "total_conflicts": self.total_conflicts,
            "distinct_conflicts": len(self._seen_pairs),
            "retained": len(self.conflicts),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"RaceReporter(events={self.events_seen}, "
                f"conflicts={self.total_conflicts}, "
                f"distinct={len(self._seen_pairs)})")
