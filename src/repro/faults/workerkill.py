"""WorkerKill — seeded SIGKILL injection for sweep workers.

The sweep fabric's robustness claim ("a dead worker never costs more
than one shard, and a killed sweep resumes bit-identically") is only
credible if something actually kills workers mid-shard.  This fault
does, deterministically: every kill decision is drawn from a named
substream (:func:`repro.sim.randomness.substream`) keyed by the shard
id, the attempt number, and the spec index, so the same plan + same
sweep always murders the same workers at the same spec boundaries —
the test suite and the CI ``sweep-chaos`` job both rely on that
reproducibility.

``SIGKILL`` is the point: the worker gets no chance to flush, raise,
or clean up — exactly the failure a ``BrokenProcessPool`` reports —
so the supervisor's rebuild/retry/resume machinery is exercised on
the real thing, not a polite exception.

Two targeting modes:

* **probabilistic** — ``prob`` per spec boundary (so a shard of *s*
  specs dies with probability ``1 - (1-prob)**s``);
* **pinned** — ``shard_indices`` names exact shards to kill, for the
  "kill after k shards" resume tests.

By default kills only fire on a shard's *first* attempt
(``max_kill_attempts=1``), so a retrying or resumed supervisor always
makes progress — raise it to model a persistently poisonous shard
that must end in quarantine.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.sim.randomness import substream

#: Substream label namespace; shard/attempt/spec are appended so every
#: decision point owns an independent, collision-free stream.
WORKERKILL_STREAM_LABEL = "workerkill"


@dataclass(frozen=True)
class WorkerKill:
    """A declarative, seeded worker-murder plan.

    Attributes
    ----------
    prob:
        Kill probability at each spec boundary within a shard.
    seed:
        Root seed of the kill substreams.
    shard_indices:
        When set, only these shard indices are ever killed (still
        gated by ``prob`` — pass ``prob=1.0`` for a certain kill).
    max_kill_attempts:
        Kills fire only while ``attempt < max_kill_attempts``.  The
        default of 1 guarantees a retry or resume completes; larger
        values (or ``None`` for "always") model poison shards.
    """

    prob: float = 0.0
    seed: int = 0
    shard_indices: Optional[Tuple[int, ...]] = None
    max_kill_attempts: Optional[int] = 1

    def __post_init__(self):
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {self.prob!r}")
        if self.shard_indices is not None:
            object.__setattr__(self, "shard_indices",
                               tuple(self.shard_indices))

    def should_kill(self, shard_id: str, shard_index: int,
                    attempt: int, spec_index: int) -> bool:
        """Deterministic kill decision for one spec boundary."""
        if self.prob <= 0.0:
            return False
        if (self.max_kill_attempts is not None
                and attempt >= self.max_kill_attempts):
            return False
        if (self.shard_indices is not None
                and shard_index not in self.shard_indices):
            return False
        stream = substream(
            self.seed,
            f"{WORKERKILL_STREAM_LABEL}/{shard_id}/{attempt}/{spec_index}")
        return stream.random() < self.prob

    @staticmethod
    def kill() -> None:  # pragma: no cover - by definition unobservable
        """SIGKILL the calling process — no cleanup, no goodbye."""
        os.kill(os.getpid(), signal.SIGKILL)
