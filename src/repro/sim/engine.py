"""The discrete-event simulator core.

The engine keeps a heap of ``(time, sequence, event)`` entries.  The
sequence number makes event ordering fully deterministic: two events
scheduled for the same instant fire in scheduling order, regardless of
heap internals — and because sequence numbers are unique, a heap
comparison never reaches the event, so every sift is a C-speed tuple
comparison rather than a Python ``__lt__`` call.

An event enters the heap by one of three paths, and all three take the
next sequence number at the call, so which one a caller uses changes
neither fire order nor event counts:

* :meth:`Simulator.schedule` / :meth:`~Simulator.schedule_at` build an
  :class:`EventHandle` (callback, arguments, time, seq): the general
  path, for variable-delay events that may be cancelled.
* :meth:`Simulator.arm` queues an :class:`OwnerEvent` — an object that
  is its own pending event (an uplink transfer, a periodic task) — as
  the entry itself: no handle and no bound method.  It fires as
  ``type(event).fire(event)`` and is cancelled by setting its
  :attr:`~OwnerEvent.cancelled`; a periodic task re-arms itself in
  place.
* :meth:`Simulator.after` is for timers nobody cancels whose delay is
  fixed: they queue in one FIFO *lane* per delay, and the heap holds one
  entry per non-empty lane, keyed by the lane's head.  The clock never
  runs backwards, so a lane is already in ``(time, seq)`` order and
  firing its head through the heap gives exactly the order the same
  timers would have fired in as individual ``schedule`` events.  A lane
  keeps up to two arguments per timer (a bound method's receiver counts
  as one) in per-lane slots, with no tuple per timer.

Cancellation is O(1) lazy deletion: a cancelled entry stays in the heap
until its nominal time comes up and is then skipped (the run loop,
:meth:`~Simulator.peek_time` and :attr:`~Simulator.pending_events` all
read the entry's ``cancelled``).  A cancelled handle drops its callback
and arguments, so it pins no object graph; a cancelled owner event is
the owner itself, which is alive anyway.  The only cancels are transfer
aborts and stopped periodic tasks, so a dead entry waits at most one
transfer time or one timer period.

There is one dispatch loop, :meth:`Simulator.run` (:meth:`~Simulator.step`
is one turn of it), and one ordered list of event *sinks*
(:meth:`Simulator.add_observer`): the sanitizer, trace observers and
:class:`repro.devtools.sanitizer.AllocProfile`.
Around each fired event, every sink's ``begin(handle)`` runs in attach
order while the handle still holds its callback and before the clock
moves; then the handle is consumed, the callback runs, and the sinks'
``end()`` run in reverse attach order, so sinks nest like context
managers.  A laned timer or an owner event reaches a sink as an
:class:`EventHandle` built at fire time, with the same time, seq and
callback function (a bound method's receiver, or the owner, leads its
arguments).  With no sink attached the loop fires the heap head inline.

All randomness in a simulation flows through :attr:`Simulator.rng`, a
single seeded :class:`repro.sim.randomness.SimRandom` (a
``random.Random`` that draws exactly what the stdlib draws); running
the same scenario with the same seed therefore reproduces the same
event trace bit-for-bit.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.randomness import SimRandom


class SimulatorError(RuntimeError):
    """Raised on simulator misuse (e.g. scheduling in the past)."""


class EventHandle:
    """A scheduled callback; may be cancelled before it fires.

    Handles are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at`.  They are single-shot: once fired or
    cancelled they are inert.  The two terminal states look the same to
    :attr:`pending` (both clear the callback); :attr:`fired`
    distinguishes a consumed event from a cancelled one, which
    post-mortem tooling relies on.
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


class OwnerEvent:
    """An object that is its own pending event (:meth:`Simulator.arm`).

    Its heap entry is ``(time, seq, self)``: no :class:`EventHandle`
    and no bound method.  The engine fires it as
    ``type(self).fire(self)``; a subclass sets the class attribute
    ``fire`` to that function, whose ``__qualname__`` is what sinks
    see.  While :attr:`cancelled` is true a pending entry is dead:
    it neither fires nor counts.  An owner is armed at most once at a
    time (a periodic task re-arms from its own ``fire``).
    """

    __slots__ = ("cancelled",)

    fire: Callable[[Any], Any]


_INF = float("inf")

#: Lane argument-slot markers: ``_ABSENT`` fills an unused slot;
#: ``_SPREAD`` in the second slot says the first holds the whole
#: argument tuple (three or more arguments).
_ABSENT = object()
_SPREAD = object()


class _Lane:
    """The pending :meth:`Simulator.after` timers of one delay, FIFO.

    Entry ``i`` fires ``funcs[i]`` at ``times[i]`` with sequence number
    ``seqs[i]``.  Times and seqs are unboxed, and a bound method is
    stored as its function with the receiver as first argument.  Up to
    two arguments sit bare in ``firsts[i]`` / ``seconds[i]`` (unused
    slots hold ``_ABSENT``); three or more are one tuple in
    ``firsts[i]`` with ``_SPREAD`` in ``seconds[i]``.  So a typical
    timer (``receiver, tx_id``) costs its five slots and no tuple.
    Entries before ``head`` have fired and hold no references; that
    prefix is trimmed once it is half the lane.
    """

    __slots__ = ("delay", "times", "seqs", "funcs", "firsts", "seconds",
                 "head")

    #: Read by the heap's dead-entry tests: a lane entry is never
    #: cancelled.
    cancelled = False

    def __init__(self, delay: float):
        self.delay = delay
        self.times = array("d")
        self.seqs = array("q")
        self.funcs: List[Callable[..., Any]] = []
        self.firsts: List[Any] = []
        self.seconds: List[Any] = []
        self.head = 0


#: One heap entry: ``(time, seq, event)``, the event being an
#: :class:`EventHandle`, an :class:`OwnerEvent` or a :class:`_Lane`.
#: ``seq`` is unique, so tuple comparison terminates there and the
#: event itself is never compared.
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
        checks cost a few percent of run time).  A bool; anything else
        raises :class:`SimulatorError`.  The sanitizer is the first
        sink on :attr:`_observers` and stays readable as
        :attr:`sanitizer`.

    Timers scheduled with :meth:`after` live in per-delay lanes
    (``_lanes``, delay -> :class:`_Lane`); the heap holds one entry per
    non-empty lane, one per pending handle and one per armed
    :class:`OwnerEvent`.
    """

    def __init__(self, seed: int = 0, sanitize: bool = False):
        if not isinstance(sanitize, bool):
            raise SimulatorError(f"unknown sanitize value {sanitize!r}; "
                                 f"expected True or False")
        self.now: float = 0.0
        self.rng = SimRandom(seed)
        self.seed = seed
        self._heap: List[_Entry] = []
        self._lanes: Dict[float, _Lane] = {}
        self._seq = 0
        self._events_fired = 0
        self._running = False
        #: The attached sinks, in attach order; ``_begins`` / ``_ends``
        #: are their bound hooks, ends reversed.
        self._observers: List[Any] = []
        self._begins: Tuple[Callable[[EventHandle], None], ...] = ()
        self._ends: Tuple[Callable[[], None], ...] = ()
        self.sanitizer = None
        if sanitize:
            from repro.devtools.sanitizer import SimulationSanitizer
            self.sanitizer = SimulationSanitizer(self)
            self.add_observer(self.sanitizer)

    def add_observer(self, sink: Any) -> None:
        """Attach an event sink with ``begin(handle)`` and optionally
        ``end()`` (a plain callable is a begin-only sink); the order is
        in the module docstring.  A sink attached while an event fires
        starts at the next event.  Sinks must not mutate simulation
        state."""
        self._observers.append(sink)
        # New tuples, not in-place edits: the firing event keeps the
        # hooks it began with.
        self._begins += (getattr(sink, "begin", sink),)
        end = getattr(sink, "end", None)
        if end is not None:
            self._ends = (end,) + self._ends

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` from now.

        Duplicates :meth:`schedule_at`'s body rather than delegating:
        this is the hottest scheduling entry point.  A sanitizer sees
        the time before the delay is checked, so it reports a
        non-finite time as its own invariant failure.
        """
        time = self.now + delay
        seq = self._seq
        handle = EventHandle(time, seq, callback, args)
        if self.sanitizer is not None:
            self.sanitizer.on_schedule(time)
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
            self.sanitizer.on_schedule(time)
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

    def arm(self, delay: float, event: OwnerEvent) -> None:
        """Queue ``event`` to fire as ``type(event).fire(event)``
        ``delay`` from now; cancel it by setting ``event.cancelled``.

        The owner is the heap entry's event: no handle, no bound
        method.  It takes the next sequence number and passes the
        sanitizer's ``on_schedule`` check, exactly as :meth:`schedule`
        would.
        """
        time = self.now + delay
        seq = self._seq
        if self.sanitizer is not None:
            self.sanitizer.on_schedule(time)
        if not 0.0 <= delay < _INF:
            raise SimulatorError(f"bad delay: {delay!r}")
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, event))

    def after(self, delay: float, callback: Callable[..., Any],
              *args: Any) -> None:
        """Fire ``callback(*args)`` ``delay`` from now; no handle, no
        cancellation.

        Meant for fixed delays (module constants, config fields): each
        distinct delay opens one lane, which leaves the table when it
        empties.  The timer takes the next sequence number, exactly as
        :meth:`schedule` would, so replacing one call by the other
        changes neither fire order nor event counts.  Sinks see it as
        an :class:`EventHandle` built at fire time, whose callback is a
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
        n = len(args)
        if n > 2:
            first, second = args, _SPREAD
        else:
            first = args[0] if n else _ABSENT
            second = args[1] if n == 2 else _ABSENT
        lane = self._lanes.get(delay)
        if lane is None:
            lane = self._lanes[delay] = _Lane(delay)
            heapq.heappush(self._heap, (time, seq, lane))
        lane.times.append(time)
        lane.seqs.append(seq)
        lane.funcs.append(func)
        lane.firsts.append(first)
        lane.seconds.append(second)

    def _pop_lane(self, lane: _Lane) -> Tuple[Callable[..., Any], tuple]:
        """Take ``lane``'s head, the heap's top entry: put the lane's
        next head in its place (or retire the lane) and return the
        head's ``(func, args)``.  The heap is whole again before the
        callback runs, so it may re-arm into the same lane."""
        i = lane.head
        funcs, firsts, seconds = lane.funcs, lane.firsts, lane.seconds
        func, first, second = funcs[i], firsts[i], seconds[i]
        if second is _ABSENT:
            args = () if first is _ABSENT else (first,)
        elif second is _SPREAD:
            args = first
        else:
            args = (first, second)
        i += 1
        times = lane.times
        if i < len(times):
            heapq.heapreplace(self._heap, (times[i], lane.seqs[i], lane))
            if i >= 64 and 2 * i >= len(times):
                del times[:i], lane.seqs[:i], funcs[:i], firsts[:i], \
                    seconds[:i]
                i = 0
            else:
                funcs[i - 1] = firsts[i - 1] = seconds[i - 1] = None
            lane.head = i
        else:
            heapq.heappop(self._heap)
            del self._lanes[lane.delay]
        return func, args

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event, as one turn of :meth:`run`'s
        loop; ``False`` when none remains."""
        fired = self._events_fired
        self.run(max_events=1)
        return self._events_fired != fired

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None,
            stop: Optional[Callable[[float], bool]] = None) -> None:
        """Run until the queue drains, ``until`` is reached,
        ``max_events`` events have fired, or ``stop`` says so.

        ``max_events`` counts events that actually fired; skipping
        cancelled entries does not consume the budget.  When ``until``
        is given, the clock is advanced to exactly ``until`` even if
        the last event fires earlier.

        ``stop(head_time)`` is asked before every event, ahead of the
        ``until`` and ``max_events`` tests, with the time of the live
        heap head (dead heads are popped first; an empty heap is
        not asked about).  A true answer ends the run with that event
        unfired and the clock where the last fired event left it: no
        advance to ``until``.  A caller with termination rules of its
        own (:meth:`repro.bt.swarm.Swarm.run`) passes them here rather
        than looping over ``peek_time()`` / ``step()``.
        """
        if self._running:
            raise SimulatorError("run() is not reentrant")
        self._running = True
        stopped = False
        fired = 0
        heap = self._heap
        heappop = heapq.heappop
        sinks = self._observers
        handle_cls = EventHandle
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
                # Bind every local before begin(): a rebind frees the
                # last event's objects, inside a profile's window.
                cls = handle.__class__
                if cls is handle_cls:
                    heappop(heap)
                    callback, args = handle.callback, handle.args
                else:
                    if cls is lane_cls:
                        callback, args = pop_lane(handle)
                    else:
                        heappop(heap)
                        callback, args = cls.fire, (handle,)
                    if not sinks:
                        self.now = head[0]
                        callback(*args)
                        fired += 1
                        continue
                    handle = EventHandle(head[0], head[1], callback, args)
                if sinks:
                    ends = self._ends
                    for begin in self._begins:
                        begin(handle)
                else:
                    ends = ()
                self.now = head[0]
                # Consumed before user code runs: a cancel() is a no-op.
                handle.cancelled = True
                handle.callback = _noop
                handle.args = ()
                handle.fired = True
                callback(*args)
                if ends:
                    for end in ends:
                        end()
                fired += 1
        finally:
            self._events_fired += fired
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
