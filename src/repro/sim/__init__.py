"""Discrete-event simulation engine.

This package is the bottom-most substrate of the reproduction: a small,
deterministic, seeded discrete-event simulator in the style of classic
network simulators.  Everything above it (the bandwidth model, the
BitTorrent swarm, the T-Chain protocol) is driven by :class:`Simulator`.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator(seed=1)
>>> fired = []
>>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
>>> sim.run()
>>> fired
[5.0]
"""

from repro.sim.engine import (EventHandle, OwnerEvent, Simulator,
                              SimulatorError)
from repro.sim.events import PeriodicTask
from repro.sim.randomness import SeedSequence

__all__ = [
    "EventHandle",
    "OwnerEvent",
    "PeriodicTask",
    "SeedSequence",
    "Simulator",
    "SimulatorError",
]
