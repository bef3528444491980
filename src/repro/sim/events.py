"""Reusable event helpers built on the core engine.

The simulator itself only knows about one-shot callbacks.  Protocol
layers frequently need repeating timers (BitTorrent's 10-second rechoke,
T-Chain's chain-statistics sampler); :class:`PeriodicTask` provides that
without each layer reinventing rescheduling logic.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import OwnerEvent, Simulator


class PeriodicTask(OwnerEvent):
    """A repeating timer.

    Calls ``callback()`` every ``interval`` simulated seconds until
    :meth:`stop` is called.  The first invocation happens after
    ``first_delay`` (defaults to ``interval``).

    The task is its own pending event (:meth:`Simulator.arm`): each
    tick re-arms it in place, so a pending tick costs one heap entry.
    The callback may call :meth:`stop` on its own task; no further
    tick is armed.
    """

    __slots__ = ("sim", "interval", "callback", "fire_count")

    def __init__(self, sim: Simulator, interval: float,
                 callback: Callable[[], Any],
                 first_delay: Optional[float] = None):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.fire_count = 0
        self.cancelled = False
        delay = interval if first_delay is None else first_delay
        sim.arm(delay, self)

    def _fire(self) -> None:
        self.fire_count += 1
        self.callback()
        if not self.cancelled:
            self.sim.arm(self.interval, self)

    fire = _fire

    def stop(self) -> None:
        """Stop the timer; idempotent.  The pending tick is dead from
        here on.  The callback is dropped: a bound method of the task's
        owner would otherwise keep the two in a reference cycle that
        only the cyclic collector frees."""
        self.cancelled = True
        self.callback = None

    @property
    def running(self) -> bool:
        """True until :meth:`stop` is called."""
        return not self.cancelled
