"""The discrete-event simulator core.

The engine keeps a heap of ``(time, sequence, handle)`` entries.  The
sequence number makes event ordering fully deterministic: two events
scheduled for the same instant fire in scheduling order, regardless of
heap internals — and because sequence numbers are unique, a heap
comparison never reaches the handle, so every sift is a C-speed tuple
comparison rather than a Python ``__lt__`` call.

Cancellation is O(1) lazy deletion: a cancelled handle stays in the
heap until its nominal time comes up and is then skipped.  The handle
drops its callback and arguments when cancelled, so a dead entry costs
its tuple and its handle and pins no object graph; and the only cancels
are transfer aborts and stopped periodic tasks, so a dead entry waits
at most one transfer time or one timer period.

Timers nobody cancels and whose delay is fixed (:meth:`Simulator.after`)
skip the per-event handle: they queue in one FIFO *lane* per delay, and
the heap holds one entry per non-empty lane, keyed by the lane's head.
The clock never runs backwards, so a lane is already in ``(time, seq)``
order and firing its head through the heap gives exactly the order the
same timers would have fired in as individual :meth:`~Simulator.schedule`
events.

All randomness in a simulation flows through :attr:`Simulator.rng`, a
single seeded ``random.Random``; running the same scenario with the same
seed therefore reproduces the same event trace bit-for-bit.
"""

from __future__ import annotations

import gc
import heapq
import sys
import tracemalloc
from array import array
from random import Random
from typing import Any, Callable, Dict, List, Optional, Tuple

class SimulatorError(RuntimeError):
    """Raised on simulator misuse (e.g. scheduling in the past)."""


class EventHandle:
    """A scheduled callback; may be cancelled before it fires.

    Handles are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at`.  They are single-shot: once fired or
    cancelled they are inert.  The two terminal states look the same to
    :attr:`pending` (both clear the callback); :attr:`fired`
    distinguishes a consumed event from a cancelled one, which the
    runtime race reporter and post-mortem tooling rely on.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled",
                 "fired")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True
        # Drop references so a cancelled event does not pin an object
        # graph while its dead entry waits in the heap.
        self.callback = _noop
        self.args = ()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled."""
        return not self.cancelled and self.callback is not _noop

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = ("fired" if self.fired
                 else "cancelled" if self.cancelled else "pending")
        return f"EventHandle(t={self.time:.6g}, seq={self.seq}, {state})"


def _noop() -> None:
    """Placeholder callback installed when a handle is cancelled."""


class AllocProfile:
    """Per-event-type allocation profile (``Simulator(profile="alloc")``).

    For every fired event the engine records the delta of
    ``tracemalloc``'s traced bytes and of the interpreter's live
    allocation-block count across the callback, keyed by the
    callback's ``__qualname__`` — the runtime ground truth the static
    simheat audit (SL301–SL303, docs/DEVTOOLS.md) is validated
    against.  Deltas can be negative (a callback that frees more than
    it allocates); sums are kept raw.

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

    __slots__ = ("by_event", "_owns_tracing", "_owns_gc", "_closed")

    def __init__(self) -> None:
        #: qualname -> [events fired, traced bytes delta, block delta]
        self.by_event: Dict[str, List[int]] = {}
        self._owns_tracing = not tracemalloc.is_tracing()
        self._owns_gc = gc.isenabled()
        self._closed = False
        if self._owns_tracing:
            tracemalloc.start()
        gc.disable()

    def record(self, name: str, d_bytes: int, d_blocks: int) -> None:
        row = self.by_event.get(name)
        if row is None:
            row = self.by_event[name] = [0, 0, 0]
        row[0] += 1
        row[1] += d_bytes
        row[2] += d_blocks

    @property
    def events(self) -> int:
        return sum(row[0] for row in self.by_event.values())

    @property
    def traced_bytes(self) -> int:
        return sum(row[1] for row in self.by_event.values())

    @property
    def blocks(self) -> int:
        return sum(row[2] for row in self.by_event.values())

    def bytes_per_event(self) -> float:
        events = self.events
        return self.traced_bytes / events if events else 0.0

    def allocs_per_event(self) -> float:
        events = self.events
        return self.blocks / events if events else 0.0

    def summary(self) -> Dict[str, object]:
        """JSON-friendly totals plus the per-event-type breakdown."""
        return {
            "events": self.events,
            "traced_bytes": self.traced_bytes,
            "blocks": self.blocks,
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


_INF = float("inf")


class _Lane:
    """The pending :meth:`Simulator.after` timers of one delay, FIFO.

    Entry ``i`` fires ``funcs[i](*args[i])`` at ``times[i]`` with
    sequence number ``seqs[i]``.  Times and seqs are unboxed, and a
    bound method is stored as its function with the receiver leading
    its arguments, so an entry costs its slots and one argument tuple.
    Entries before ``head`` have fired and hold no references; that
    prefix is trimmed once it is half the lane.
    """

    __slots__ = ("delay", "times", "seqs", "funcs", "args", "head")

    #: Read by the heap's dead-entry tests: a lane entry is never
    #: cancelled.
    cancelled = False

    def __init__(self, delay: float):
        self.delay = delay
        self.times = array("d")
        self.seqs = array("q")
        self.funcs: List[Callable[..., Any]] = []
        self.args: List[tuple] = []
        self.head = 0


#: One heap entry.  ``seq`` is unique, so tuple comparison terminates
#: there and the handle (or lane) itself is never compared.
_Entry = Tuple[float, int, Any]


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random number generator.  Every
        stochastic decision made by the layers above (peer selection,
        arrival times, bandwidth draws, ...) must use :attr:`rng` so
        that runs are reproducible.
    sanitize:
        Attach a :class:`repro.devtools.sanitizer.SimulationSanitizer`
        that checks heap-time monotonicity, bandwidth/piece
        conservation and the fair-exchange invariant on every step,
        raising ``SanitizerError`` on violation.  Off by default (the
        checks cost a few percent of run time).  Pass the string
        ``"races"`` to additionally attach a
        :class:`repro.devtools.sanitizer.RaceReporter` that records
        per-event field-level read/write footprints within each
        timestamp batch and reports same-instant conflicting pairs
        (the dynamic counterpart of ``simlint``'s SL2xx rules).
    profile:
        Pass the string ``"alloc"`` to attach an :class:`AllocProfile`
        recording per-event-type allocation deltas (tracemalloc bytes
        + interpreter block counts) on every fired event — the runtime
        validation side of the simheat SL3xx static audit.  Off by
        default; profiling forces the instrumented step path.

    Timers scheduled with :meth:`after` live in per-delay lanes
    (``_lanes``, delay -> :class:`_Lane`); the heap holds one entry per
    non-empty lane.
    """

    def __init__(self, seed: int = 0, sanitize: object = False,
                 profile: object = False):
        if isinstance(sanitize, str) and sanitize != "races":
            raise SimulatorError(
                f"unknown sanitize mode {sanitize!r}; expected a bool "
                f"or the string 'races'")
        if profile not in (False, None, "alloc"):
            raise SimulatorError(
                f"unknown profile mode {profile!r}; expected False or "
                f"the string 'alloc'")
        self.now: float = 0.0
        self.rng = Random(seed)
        self.seed = seed
        self._heap: List[_Entry] = []
        self._lanes: Dict[float, _Lane] = {}
        self._seq = 0
        self._events_fired = 0
        self._running = False
        self._observers: List[Callable[[EventHandle], None]] = []
        self.sanitizer = None
        self.races = None
        self.profile: Optional[AllocProfile] = \
            AllocProfile() if profile == "alloc" else None
        if sanitize:
            from repro.devtools.sanitizer import SimulationSanitizer
            self.sanitizer = SimulationSanitizer(self)
            if sanitize == "races":
                from repro.devtools.sanitizer import RaceReporter
                self.races = RaceReporter(self)

    def add_observer(self,
                     observer: Callable[[EventHandle], None]) -> None:
        """Register a callback invoked with every event handle just
        before it fires (trace capture, debugging, determinism
        harnesses).  Observers must not mutate simulation state."""
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` from now.

        Duplicates :meth:`schedule_at`'s body rather than delegating:
        this is the hottest scheduling entry point.  A sanitizer sees
        the handle before the delay is checked, so it reports a
        non-finite time as its own invariant failure.
        """
        time = self.now + delay
        seq = self._seq
        handle = EventHandle(time, seq, callback, args)
        if self.sanitizer is not None:
            self.sanitizer.on_schedule(handle)
        if not 0.0 <= delay < _INF:
            raise SimulatorError(f"bad delay: {delay!r}")
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        seq = self._seq
        handle = EventHandle(time, seq, callback, args)
        if self.sanitizer is not None:
            self.sanitizer.on_schedule(handle)
        if not self.now <= time < _INF:
            raise SimulatorError(
                f"cannot schedule at {time!r}, now is {self.now!r}")
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def call_now(self, callback: Callable[..., Any],
                 *args: Any) -> EventHandle:
        """Schedule a callback for the current instant (after the
        currently-firing event completes)."""
        return self.schedule(0.0, callback, *args)

    def after(self, delay: float, callback: Callable[..., Any],
              *args: Any) -> None:
        """Fire ``callback(*args)`` ``delay`` from now; no handle, no
        cancellation.

        Meant for fixed delays (module constants, config fields): each
        distinct delay opens one lane, which leaves the table when it
        empties.  The timer takes the next sequence number, exactly as
        :meth:`schedule` would, so replacing one call by the other
        changes neither fire order nor event counts.  Observers,
        sanitizer, race reporter and profiler see it as an
        :class:`EventHandle` built at fire time, whose callback is a
        bound method's function, with the receiver as first argument.
        """
        if not 0.0 <= delay < _INF:
            raise SimulatorError(f"bad delay: {delay!r}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        func = getattr(callback, "__func__", None)
        if func is None:
            func = callback
        else:
            args = (callback.__self__,) + args
        lane = self._lanes.get(delay)
        if lane is None:
            lane = self._lanes[delay] = _Lane(delay)
            heapq.heappush(self._heap, (time, seq, lane))
        lane.times.append(time)
        lane.seqs.append(seq)
        lane.funcs.append(func)
        lane.args.append(args)

    def _pop_lane(self, lane: _Lane) -> Tuple[Callable[..., Any], tuple]:
        """Take ``lane``'s head, the heap's top entry: put the lane's
        next head in its place (or retire the lane) and return the
        head's ``(func, args)``.  The heap is whole again before the
        callback runs, so it may re-arm into the same lane."""
        i = lane.head
        funcs, all_args = lane.funcs, lane.args
        func, args = funcs[i], all_args[i]
        i += 1
        times = lane.times
        if i < len(times):
            heapq.heapreplace(self._heap, (times[i], lane.seqs[i], lane))
            if i >= 64 and 2 * i >= len(times):
                del times[:i], lane.seqs[:i], funcs[:i], all_args[:i]
                i = 0
            else:
                funcs[i - 1] = all_args[i - 1] = None
            lane.head = i
        else:
            heapq.heappop(self._heap)
            del self._lanes[lane.delay]
        return func, args

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next pending event.

        Returns ``False`` when no pending event remains (the heap is
        empty or holds only cancelled handles).
        """
        heap = self._heap
        while heap:
            time, seq, handle = heap[0]
            if handle.__class__ is _Lane:
                handle = EventHandle(time, seq, *self._pop_lane(handle))
            else:
                heapq.heappop(heap)
                if handle.cancelled:
                    continue
            if self.sanitizer is not None:
                self.sanitizer.on_event(handle)
            races = self.races
            if races is not None:
                # Must see the handle before its callback is cleared so
                # the conflict provenance can name it.
                races.on_event_begin(handle)
            if self._observers:
                for observer in self._observers:
                    observer(handle)
            self.now = handle.time
            callback, args = handle.callback, handle.args
            # Mark consumed before user code runs: a cancel() from the
            # callback is then a no-op.
            handle.cancelled = True
            handle.callback = _noop
            handle.args = ()
            handle.fired = True
            profile = self.profile
            if profile is not None:
                name = getattr(callback, "__qualname__", repr(callback))
                before_bytes = tracemalloc.get_traced_memory()[0]
                before_blocks = sys.getallocatedblocks()
                callback(*args)
                profile.record(
                    name,
                    tracemalloc.get_traced_memory()[0] - before_bytes,
                    sys.getallocatedblocks() - before_blocks)
            else:
                callback(*args)
            if races is not None:
                races.on_event_end()
            self._events_fired += 1
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None,
            stop: Optional[Callable[[float], bool]] = None) -> None:
        """Run until the queue drains, ``until`` is reached,
        ``max_events`` events have fired, or ``stop`` says so.

        ``max_events`` counts events that actually fired; skipping
        cancelled handles does not consume the budget.  When ``until``
        is given, the clock is advanced to exactly ``until`` even if
        the last event fires earlier.

        ``stop(head_time)`` is asked before every event, ahead of the
        ``until`` and ``max_events`` tests, with the time of the live
        heap head (cancelled heads are popped first; an empty heap is
        not asked about).  A true answer ends the run with that event
        unfired and the clock where the last fired event left it: no
        advance to ``until``.  A caller with termination rules of its
        own (:meth:`repro.bt.swarm.Swarm.run`) passes them here rather
        than looping over ``peek_time()`` / ``step()``, so its events
        take the inlined fast path below.
        """
        if self._running:
            raise SimulatorError("run() is not reentrant")
        self._running = True
        stopped = False
        fired = 0
        fast_fired = 0  # _events_fired owed by the inlined fast path
        heap = self._heap
        heappop = heapq.heappop
        observers = self._observers
        lane_cls, pop_lane = _Lane, self._pop_lane
        try:
            while heap:
                head = heap[0]
                handle = head[2]
                if handle.cancelled:
                    heappop(heap)
                    continue
                if stop is not None and stop(head[0]):
                    stopped = True
                    break
                if until is not None and head[0] > until:
                    break
                if max_events is not None and fired >= max_events:
                    break
                if self.sanitizer is None and not observers \
                        and self.profile is None:
                    # Fast path: `head` is the verified-live heap top,
                    # so pop and fire inline, skipping instrumentation
                    # dispatch and the step() re-scan.
                    if handle.__class__ is lane_cls:
                        func, args = pop_lane(handle)
                        self.now = head[0]
                        func(*args)
                        fast_fired += 1
                        fired += 1
                        continue
                    heappop(heap)
                    self.now = head[0]
                    callback, args = handle.callback, handle.args
                    handle.cancelled = True
                    handle.callback = _noop
                    handle.args = ()
                    handle.fired = True
                    callback(*args)
                    fast_fired += 1
                    fired += 1
                elif self.step():
                    fired += 1
        finally:
            self._events_fired += fast_fired
            self._running = False
        if until is not None and not stopped and self.now < until:
            self.now = until

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` when drained.

        Pops dead (cancelled) heap heads as a side effect, so callers
        driving their own step loop never stall on lazy-deleted
        entries.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2].cancelled:
                heapq.heappop(heap)
                continue
            return head[0]
        return None

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-cancelled events, laned timers
        included (scans the heap: tests and debugging only)."""
        return (sum(not entry[2].cancelled for entry in self._heap)
                + sum(len(lane.times) - lane.head - 1
                      for lane in self._lanes.values()))

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"Simulator(now={self.now:.6g}, pending="
                f"{self.pending_events}, fired={self._events_fired})")
