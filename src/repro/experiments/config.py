"""Experiment scaling.

The paper's configurations (swarms of 200–10 000 peers, 512–2048
pieces, 30 seeds) are hours of pure-Python simulation.  Every
experiment here therefore takes an :class:`ExperimentScale` that
defaults to a laptop-friendly size preserving the paper's *shapes*
(orderings, ratios, crossovers), and can be raised toward paper scale
via environment variables:

* ``REPRO_SCALE``  — multiplier on swarm sizes and piece counts
  (1.0 = bench default; ~10 approaches the paper's configuration);
* ``REPRO_SEEDS``  — number of random seeds per data point
  (the paper uses 30).
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs shrinking/growing every experiment uniformly."""

    factor: float = 1.0
    seeds: int = 2
    root_seed: int = 42

    def swarm(self, base: int) -> int:
        """Scaled swarm size (at least 4)."""
        return max(4, round(base * self.factor))

    def pieces(self, base: int) -> int:
        """Scaled piece count (at least 1)."""
        return max(1, round(base * self.factor))

    @classmethod
    def from_env(cls) -> "ExperimentScale":
        """Read ``REPRO_SCALE`` / ``REPRO_SEEDS`` / ``REPRO_SEED``."""
        return cls(
            factor=float(os.environ.get("REPRO_SCALE", "1.0")),
            seeds=int(os.environ.get("REPRO_SEEDS", "2")),
            root_seed=int(os.environ.get("REPRO_SEED", "42")),
        )
