"""Seed management for multi-run experiments, and the simulation's
generator.

Experiments in the paper report means and 95% confidence intervals over
30 runs with different seeds.  :class:`SeedSequence` derives those
per-run seeds from a single experiment seed so that a whole sweep is
reproducible from one integer, and so that distinct experiments do not
accidentally share run seeds.  :class:`SimRandom` is the type of
``Simulator.rng``: the stdlib generator, draw for draw, with cheaper
``choice`` / ``shuffle`` / ``sample``.
"""

from __future__ import annotations

import hashlib
from math import ceil as _ceil, log as _log
from random import Random
from typing import Iterator, List, Tuple


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


#: Lengths whose shuffle schedule is built once, at import: the
#: tracker shuffles at most its 50-member reply (``tracker.LIST_SIZE``)
#: and the choker at most a 55-neighbour view (``max_neighbors``), so
#: the first power of two above both.  The table saves one
#: ``bit_length()`` call per draw position (about 3 % of ``fig_mix``'s
#: wall time; docs/PERF.md, "Refill storms").
_SHORT = 64
_PAIRS = tuple((i, i.bit_length()) for i in range(_SHORT + 1))
#: ``_SCHEDULES[n]`` is ``(i, i.bit_length())`` for ``i = n … 2``: the
#: bound and the ``getrandbits`` width of each draw ``Random.shuffle``
#: makes on an ``n``-element list.  The pairs are shared between
#: lengths; only the outer tuples are per length.
_SCHEDULES = tuple(_PAIRS[n:1:-1] for n in range(_SHORT + 1))


def _long_schedule(n: int) -> Iterator[Tuple[int, int]]:
    """``_SCHEDULES[n]`` for ``n`` beyond the table, built as walked."""
    return ((i, i.bit_length()) for i in range(n, 1, -1))


class SimRandom(Random):
    """The simulation's generator: ``random.Random`` with ``choice``,
    ``shuffle`` and ``sample`` that return what the stdlib returns and
    leave ``getstate()`` where the stdlib leaves it, at lower cost.

    The stdlib pays one Python-level ``_randbelow`` call per draw;
    these inline its loop — ``getrandbits(n.bit_length())`` redrawn
    until the value is below ``n`` — with ``getrandbits`` bound once
    per call.  ``sample`` does so for a ``range`` population without
    ``counts`` (the tracker's and the piece draws); any other call goes
    to the stdlib.  ``tests/test_tracker_draws.py`` compares every
    method against ``Random`` on results and ``getstate()`` on each CI
    interpreter, which is where a stdlib change would surface.
    """

    def choice(self, seq):
        n = len(seq)
        if not n:
            raise IndexError("Cannot choose from an empty sequence")
        getrandbits = self.getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return seq[r]

    def shuffle(self, x):
        n = len(x)
        getrandbits = self.getrandbits
        for i, k in (_SCHEDULES[n] if n <= _SHORT else _long_schedule(n)):
            j = getrandbits(k)
            while j >= i:
                j = getrandbits(k)
            i -= 1
            x[i], x[j] = x[j], x[i]

    def sample(self, population, k, *, counts=None):
        if counts is not None or type(population) is not range:
            return super().sample(population, k, counts=counts)
        n = len(population)
        if not 0 <= k <= n:
            raise ValueError("Sample larger than population or is negative")
        getrandbits = self.getrandbits
        result = []
        append = result.append
        setsize = 21        # the stdlib's list-or-set cut, verbatim
        if k > 5:
            setsize += 4 ** _ceil(_log(k * 3, 4))
        if n <= setsize:
            pool = list(population)
            for m in range(n, n - k, -1):
                bits = m.bit_length()
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                append(pool[j])
                pool[j] = pool[m - 1]
        else:
            selected = set()
            add = selected.add
            bits = n.bit_length()
            for _ in range(k):
                j = getrandbits(bits)
                while j >= n or j in selected:
                    j = getrandbits(bits)
                add(j)
                append(population[j])
        return result


def skip_shuffle(rng: Random, n: int) -> None:
    """Advance ``rng`` exactly as ``rng.shuffle`` of an ``n``-element
    list would, building and swapping nothing.

    ``Random.shuffle`` draws ``_randbelow(i)`` for ``i = n … 2``, and
    ``_randbelow`` is ``getrandbits(i.bit_length())`` redrawn until the
    value is below ``i``.  A caller that is going to throw the
    permutation away (a refill by a peer that already knows every
    member) pays for the draws alone and leaves every later draw where
    the full shuffle would have left it.  It walks the same schedule
    as :meth:`SimRandom.shuffle` and takes any ``Random``.
    """
    getrandbits = rng.getrandbits
    for i, k in (_SCHEDULES[n] if n <= _SHORT else _long_schedule(n)):
        while getrandbits(k) >= i:
            pass
