"""Shard supervision: dispatch, retry, quarantine, pool rebuild.

The supervisor turns a :class:`~repro.experiments.fabric.manifest.
SweepManifest` into checkpoints, surviving everything the world throws
at its workers:

* **worker death** (SIGKILL, OOM) — a ``BrokenProcessPool`` does not
  abort the sweep: in-flight shards are re-queued, the pool is
  rebuilt, and only unfinished work replays (finished shards already
  live in checkpoints, which are the sole source of truth);
* **flaky shards** — an exception from a shard re-queues it with
  capped exponential backoff (the same ``base * 2**(attempt-1)``
  shape as the T-Chain control retransmits,
  ``SwarmConfig.control_retry_base_s``), up to a bounded per-shard
  retry budget;
* **poison shards** — a shard that exhausts its budget is recorded
  under ``quarantine/`` with its last exception and *skipped*, so one
  bad spec can never wedge a 10k-run sweep;
* **wedged shards** — a per-shard wall-clock timeout abandons the
  stuck worker (the pool is rebuilt; the old worker process is
  orphaned until its task ends — ``ProcessPoolExecutor`` offers no
  clean kill) and counts a failure against the shard.

Everything observable lands in the sweep journal; nothing but the
checkpoint files carries state across a supervisor restart, which is
exactly why ``--resume`` works after the supervisor itself dies.

This module is the one sanctioned process fan-out choke point (simlint
SL008): it owns the only process pool, so every parallel run gets
spec-order results, per-run seeding and checkpointed recovery from
worker death.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.experiments.fabric.checkpoint import (
    SweepJournal,
    clear_quarantine,
    load_quarantine,
    scan_checkpoints,
    write_quarantine,
    write_shard_checkpoint,
)
from repro.experiments.fabric.manifest import Shard, SweepManifest
from repro.experiments.parallel import (
    ParallelExecutionError,
    execute_spec,
    resolve_workers,
)

#: Retry backoff shape, mirroring the T-Chain control retransmits
#: (``SwarmConfig.control_retry_base_s``, capped at
#: ``repro.bt.protocols.tchain.CONTROL_RETRY_CAP_S``):
#: ``base * 2**(attempt-1)`` seconds, capped.  Sweep shards are cheap
#: to retry, so the base is small.
SHARD_RETRY_BASE_S = 0.1
SHARD_RETRY_CAP_S = 5.0

#: Failures tolerated per shard before quarantine (retries, not tries:
#: budget 3 = up to 4 executions).
DEFAULT_RETRY_BUDGET = 3

#: Supervisor loop tick: the longest it will block in ``wait`` before
#: re-checking deadlines and backoff eligibility.
_TICK_S = 0.25


class SweepError(ParallelExecutionError):
    """A sweep could not run at all (bad arguments, bad directory)."""


def _mono() -> float:
    """Supervisor wall clock (backoff deadlines, shard timeouts)."""
    return time.monotonic()  # simlint: disable=SL002 -- supervises real worker processes; measures sweep wall-time, never simulated time


def _sleep(seconds: float) -> None:
    if seconds > 0:
        time.sleep(min(seconds, _TICK_S))


# ----------------------------------------------------------------------
# Worker-process entry point
# ----------------------------------------------------------------------
def execute_shard(task: Dict[str, object]) -> "tuple[str, List[object]]":
    """Run one shard to completion (the worker-process entry point).

    ``task`` carries the shard id/index, the live spec objects, the
    attempt number, and (under fault testing) a
    :class:`~repro.faults.workerkill.WorkerKill` plan consulted at
    every spec boundary — where it may SIGKILL this very process.
    """
    shard_id = task["shard_id"]
    kill = task.get("kill")
    summaries: List[object] = []
    for spec_index, spec in enumerate(task["specs"]):
        if kill is not None and kill.should_kill(
                shard_id, task["index"], task["attempt"], spec_index):
            kill.kill()  # pragma: no cover - SIGKILLs the worker
        summaries.append(execute_spec(spec))
    return shard_id, summaries


# ----------------------------------------------------------------------
# Supervision
# ----------------------------------------------------------------------
@dataclass
class _ShardState:
    shard: Shard
    failures: int = 0
    last_error: str = ""


@dataclass
class SweepStats:
    """What the supervisor did, for reports and assertions."""

    shards_total: int = 0
    resumed_from_checkpoint: int = 0
    corrupt_checkpoints: int = 0
    requeued_quarantined: int = 0
    executed: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    quarantined: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class SweepOutcome:
    """Everything a sweep run produced."""

    #: shard_id -> summaries, for every shard with a valid checkpoint
    #: (pre-existing or produced by this run).
    results: Dict[str, List[object]]
    #: shard_id -> quarantine record for shards that exhausted retries.
    quarantined: Dict[str, dict]
    stats: SweepStats = field(default_factory=SweepStats)

    @property
    def complete(self) -> bool:
        return not self.quarantined


class SweepSupervisor:
    """Drives one manifest to completion against a worker pool.

    ``task_fn`` defaults to :func:`execute_shard`; tests inject a
    different module-level callable to model hangs or synthetic work.
    ``worker_kill`` arms a :class:`~repro.faults.workerkill.WorkerKill`
    plan inside the dispatched tasks (parallel mode only — in serial
    mode the "worker" is the supervisor itself, and suicide is not
    supervision).
    """

    def __init__(self, manifest: SweepManifest, sweep_dir: str,
                 workers: Optional[int] = None,
                 shard_timeout_s: Optional[float] = None,
                 retry_budget: int = DEFAULT_RETRY_BUDGET,
                 retry_base_s: float = SHARD_RETRY_BASE_S,
                 retry_cap_s: float = SHARD_RETRY_CAP_S,
                 worker_kill=None,
                 journal: Optional[SweepJournal] = None,
                 task_fn: Callable = execute_shard):
        if retry_budget < 0:
            raise SweepError(f"retry_budget must be >= 0: {retry_budget}")
        self.manifest = manifest
        self.sweep_dir = sweep_dir
        self.workers = resolve_workers(workers)
        self.shard_timeout_s = shard_timeout_s
        self.retry_budget = retry_budget
        self.retry_base_s = retry_base_s
        self.retry_cap_s = retry_cap_s
        self.worker_kill = worker_kill
        self.journal = journal or SweepJournal(sweep_dir)
        self.task_fn = task_fn
        self.stats = SweepStats(shards_total=len(manifest.shards))
        if worker_kill is not None and self.workers <= 1:
            raise SweepError(
                "worker_kill requires workers >= 2: in serial mode the "
                "shard runs inside the supervisor process, and killing "
                "it kills the sweep itself")

    # -- shared machinery ----------------------------------------------
    def _task_for(self, state: _ShardState) -> Dict[str, object]:
        return {
            "shard_id": state.shard.shard_id,
            "index": state.shard.index,
            "attempt": state.failures,
            "specs": state.shard.specs,
            "kill": self.worker_kill,
        }

    def _backoff_s(self, failures: int) -> float:
        return min(self.retry_base_s * 2 ** max(failures - 1, 0),
                   self.retry_cap_s)

    def _complete(self, state: _ShardState,
                  summaries: List[object],
                  results: Dict[str, List[object]]) -> None:
        write_shard_checkpoint(self.sweep_dir, state.shard.shard_id,
                               summaries)
        results[state.shard.shard_id] = summaries
        self.stats.executed += 1
        self.journal.record("shard_done", shard=state.shard.shard_id,
                            index=state.shard.index,
                            attempt=state.failures,
                            n_specs=len(state.shard.specs))

    def _fail(self, state: _ShardState, error: str, kind: str,
              quarantined: Dict[str, dict]) -> bool:
        """Count one failure; returns True if the shard may retry."""
        state.failures += 1
        state.last_error = error
        self.journal.record("shard_failed", shard=state.shard.shard_id,
                            index=state.shard.index, kind=kind,
                            failures=state.failures, error=error)
        if state.failures > self.retry_budget:
            record = {"shard_id": state.shard.shard_id,
                      "index": state.shard.index,
                      "attempts": state.failures,
                      "error": error}
            write_quarantine(self.sweep_dir, state.shard.shard_id,
                             state.shard.index, state.failures, error)
            quarantined[state.shard.shard_id] = record
            self.stats.quarantined += 1
            self.journal.record("shard_quarantined",
                                shard=state.shard.shard_id,
                                index=state.shard.index,
                                attempts=state.failures, error=error)
            return False
        self.stats.retries += 1
        return True

    def _scan_existing(self, results: Dict[str, List[object]]
                       ) -> List[_ShardState]:
        """Resume state from disk: valid checkpoints count as done,
        corrupt ones are dropped and re-queued, quarantine records are
        cleared and their shards re-queued."""
        shard_ids = [s.shard_id for s in self.manifest.shards]
        done, corrupt = scan_checkpoints(self.sweep_dir, shard_ids)
        results.update(done)
        self.stats.resumed_from_checkpoint = len(done)
        self.stats.corrupt_checkpoints = len(corrupt)
        for shard_id in corrupt:
            self.journal.record("checkpoint_corrupt", shard=shard_id)
        previously_quarantined = load_quarantine(self.sweep_dir)
        pending: List[_ShardState] = []
        for shard in self.manifest.shards:
            if shard.shard_id in done:
                continue
            if shard.shard_id in previously_quarantined:
                clear_quarantine(self.sweep_dir, shard.shard_id)
                self.stats.requeued_quarantined += 1
                self.journal.record("quarantine_requeued",
                                    shard=shard.shard_id,
                                    index=shard.index)
            pending.append(_ShardState(shard))
        return pending

    # -- execution -----------------------------------------------------
    def run(self) -> SweepOutcome:
        """Execute every shard not already checkpointed."""
        results: Dict[str, List[object]] = {}
        quarantined: Dict[str, dict] = {}
        pending = self._scan_existing(results)
        self.journal.record(
            "sweep_started", sweep=self.manifest.sweep_id,
            shards=len(self.manifest.shards), pending=len(pending),
            resumed=self.stats.resumed_from_checkpoint,
            workers=self.workers)
        if pending:
            if self.workers <= 1:
                self._run_serial(pending, results, quarantined)
            else:
                self._run_parallel(pending, results, quarantined)
        self.journal.record("sweep_finished",
                            sweep=self.manifest.sweep_id,
                            completed=len(results),
                            stats=self.stats.as_dict())
        return SweepOutcome(results=results, quarantined=quarantined,
                            stats=self.stats)

    def _run_serial(self, pending: List[_ShardState],
                    results: Dict[str, List[object]],
                    quarantined: Dict[str, dict]) -> None:
        """In-process execution: same retry/quarantine semantics, no
        pool (and no shard timeout — nothing can interrupt us)."""
        for state in pending:
            while True:
                self.journal.record("shard_dispatched",
                                    shard=state.shard.shard_id,
                                    index=state.shard.index,
                                    attempt=state.failures, worker=0)
                try:
                    _, summaries = self.task_fn(self._task_for(state))
                except Exception as exc:
                    if not self._fail(state, repr(exc), "exception",
                                      quarantined):
                        break
                    _sleep(self._backoff_s(state.failures))
                else:
                    self._complete(state, summaries, results)
                    break

    def _run_parallel(self, pending: List[_ShardState],
                      results: Dict[str, List[object]],
                      quarantined: Dict[str, dict]) -> None:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        queue = deque(pending)
        backoff_until: Dict[str, float] = {}
        pool = ProcessPoolExecutor(max_workers=self.workers)
        running: Dict[object, _ShardState] = {}
        deadlines: Dict[object, float] = {}

        def submit_eligible() -> bool:
            """Fill idle workers; True if the pool was found broken
            mid-submit (shard re-queued untouched, nothing lost)."""
            now = _mono()
            while queue and len(running) < self.workers:
                state = next(
                    (s for s in queue
                     if backoff_until.get(s.shard.shard_id, 0.0) <= now),
                    None)
                if state is None:
                    return False
                queue.remove(state)
                try:
                    future = pool.submit(self.task_fn,
                                         self._task_for(state))
                except BrokenProcessPool:
                    # A worker died after the last wait() but before
                    # this submit landed. The shard never ran: put it
                    # back unpenalized and let the caller rebuild. Any
                    # in-flight futures already carry the
                    # BrokenProcessPool and will be penalized normally.
                    queue.appendleft(state)
                    return True
                running[future] = state
                if self.shard_timeout_s is not None:
                    deadlines[future] = now + self.shard_timeout_s
                self.journal.record("shard_dispatched",
                                    shard=state.shard.shard_id,
                                    index=state.shard.index,
                                    attempt=state.failures)
            return False

        def requeue(state: _ShardState, penalize: bool, error: str,
                    kind: str) -> None:
            if penalize:
                if not self._fail(state, error, kind, quarantined):
                    return  # quarantined, not re-queued
                backoff_until[state.shard.shard_id] = \
                    _mono() + self._backoff_s(state.failures)
            else:
                self.journal.record("shard_requeued",
                                    shard=state.shard.shard_id,
                                    index=state.shard.index,
                                    reason=kind)
            queue.append(state)

        try:
            while queue or running:
                broken_on_submit = submit_eligible()
                if broken_on_submit and not running:
                    # Nothing in flight to attribute the death to (its
                    # failure was already collected); just rebuild.
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=self.workers)
                    self.stats.pool_rebuilds += 1
                    self.journal.record(
                        "pool_rebuilt",
                        rebuilds=self.stats.pool_rebuilds)
                    continue
                if not running:
                    if not queue:
                        break
                    # Everything is backing off; sleep to the earliest
                    # eligibility instead of spinning.
                    earliest = min(
                        backoff_until.get(s.shard.shard_id, 0.0)
                        for s in queue)
                    _sleep(earliest - _mono())
                    continue

                timeout = _TICK_S
                if deadlines:
                    timeout = min(timeout,
                                  max(0.0, min(deadlines.values())
                                      - _mono()))
                finished, _ = wait(list(running), timeout=timeout,
                                   return_when=FIRST_COMPLETED)

                rebuild = False
                for future in finished:
                    state = running.pop(future)
                    deadlines.pop(future, None)
                    try:
                        _, summaries = future.result()
                    except BrokenProcessPool as exc:
                        # Any in-flight shard may be the killer; each
                        # eats a failure (the innocent ones' budgets
                        # recover because retries are cheap).
                        rebuild = True
                        requeue(state, penalize=True,
                                error=f"worker process died "
                                      f"(SIGKILL/OOM): {exc!r}",
                                kind="worker_death")
                    except Exception as exc:
                        requeue(state, penalize=True, error=repr(exc),
                                kind="exception")
                    else:
                        self._complete(state, summaries, results)

                now = _mono()
                for future in [f for f, dl in deadlines.items()
                               if dl <= now]:
                    state = running.pop(future)
                    deadlines.pop(future, None)
                    self.stats.timeouts += 1
                    rebuild = True  # shed the wedged worker
                    requeue(state, penalize=True,
                            error=f"shard exceeded "
                                  f"{self.shard_timeout_s:g}s timeout",
                            kind="timeout")

                if rebuild:
                    # Remaining in-flight futures are lost with the
                    # pool; their shards were not at fault — replay
                    # without an attempt penalty.
                    for future, state in list(running.items()):
                        requeue(state, penalize=False, error="",
                                kind="pool_rebuild")
                    running.clear()
                    deadlines.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=self.workers)
                    self.stats.pool_rebuilds += 1
                    self.journal.record("pool_rebuilt",
                                        rebuilds=self.stats.pool_rebuilds)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
