"""Seed management for multi-run experiments.

Experiments in the paper report means and 95% confidence intervals over
30 runs with different seeds.  :class:`SeedSequence` derives those
per-run seeds from a single experiment seed so that a whole sweep is
reproducible from one integer, and so that distinct experiments do not
accidentally share run seeds.
"""

from __future__ import annotations

import hashlib
from random import Random
from typing import Iterator, List


class SeedSequence:
    """Derives independent child seeds from a root seed and a label.

    The derivation is ``SHA-256(label || root || index)`` truncated to
    63 bits, which keeps seeds positive and well-distributed while
    remaining stable across Python versions (unlike ``hash()``).
    """

    def __init__(self, root: int, label: str = ""):
        self.root = int(root)
        self.label = label

    def seed(self, index: int) -> int:
        """The ``index``-th derived seed."""
        payload = f"{self.label}|{self.root}|{index}".encode("utf-8")
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "big") >> 1

    def seeds(self, count: int) -> List[int]:
        """The first ``count`` derived seeds."""
        return [self.seed(i) for i in range(count)]

    def __iter__(self) -> Iterator[int]:
        index = 0
        while True:
            yield self.seed(index)
            index += 1

    def child(self, label: str) -> "SeedSequence":
        """A namespaced sub-sequence (e.g. per-protocol within a sweep)."""
        return SeedSequence(self.root, f"{self.label}/{label}")


def substream(root: int, label: str) -> Random:
    """An independent named random stream derived from ``root``.

    Subsystems that must not perturb the simulation's main
    ``Simulator.rng`` draw order (so they can be attached or detached
    without changing the event trace — e.g. the fault injector of
    :mod:`repro.faults`) derive their own generator here.  The same
    ``(root, label)`` pair always yields the same stream, and distinct
    labels never collide thanks to the SHA-256 derivation above.
    """
    return Random(SeedSequence(root, label).seed(0))


def skip_shuffle(rng: Random, n: int) -> None:
    """Advance ``rng`` exactly as ``rng.shuffle`` of an ``n``-element
    list would, building and swapping nothing.

    ``Random.shuffle`` draws ``_randbelow(i)`` for ``i = n … 2``, and
    ``_randbelow`` is ``getrandbits(i.bit_length())`` redrawn until the
    value is below ``i``.  A caller that is going to throw the
    permutation away (``Tracker.announce`` when the requester already
    knows every member) pays for the draws alone and leaves every later
    draw where the full shuffle would have left it.
    ``tests/test_tracker_draws.py`` compares ``getstate()`` against the
    real shuffle on every CI interpreter — the place a stdlib change
    to ``shuffle`` would surface.
    """
    # Called as ``rng.getrandbits`` (not through a local alias) so
    # simlint's effect inference sees the draw.
    for i in range(n, 1, -1):
        k = i.bit_length()
        while rng.getrandbits(k) >= i:
            pass
