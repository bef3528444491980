"""Reusable event helpers built on the core engine.

The simulator itself only knows about one-shot callbacks.  Protocol
layers frequently need repeating timers (BitTorrent's 10-second rechoke,
T-Chain's chain-statistics sampler); :class:`PeriodicTask` provides that
without each layer reinventing rescheduling logic.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import EventHandle, Simulator


class PeriodicTask:
    """A repeating timer.

    Calls ``callback()`` every ``interval`` simulated seconds until
    :meth:`stop` is called.  The first invocation happens after
    ``first_delay`` (defaults to ``interval``).

    The callback may call :meth:`stop` on its own task; the pending
    reschedule is cancelled cleanly.
    """

    __slots__ = ("sim", "interval", "callback", "fire_count", "_stopped",
                 "_handle")

    def __init__(self, sim: Simulator, interval: float,
                 callback: Callable[[], Any],
                 first_delay: Optional[float] = None):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.fire_count = 0
        self._stopped = False
        delay = interval if first_delay is None else first_delay
        self._handle: Optional[EventHandle] = sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fire_count += 1
        self.callback()
        if not self._stopped:
            self._handle = self.sim.schedule(self.interval, self._fire)

    def stop(self) -> None:
        """Stop the timer; idempotent.  The callback is dropped: a
        bound method of the task's owner would otherwise keep the two
        in a reference cycle that only the cyclic collector frees."""
        self._stopped = True
        self.callback = None
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def running(self) -> bool:
        """True until :meth:`stop` is called."""
        return not self._stopped
