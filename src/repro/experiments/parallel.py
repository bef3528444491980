"""Parallel experiment execution.

Every paper figure is a sweep — seeds × protocols × populations pushed
through :func:`repro.experiments.runner.run_swarm` — and each run is an
independent, seeded simulation.  That makes the sweep embarrassingly
parallel *if* the unit of work can cross a process boundary, which the
live :class:`~repro.experiments.runner.RunResult` cannot (it drags the
whole ``Swarm``/``Simulator`` object graph along).  This module supplies
the two picklable halves:

* :class:`RunSpec` — a frozen, hashable description of one run (what
  :func:`run_swarm` would be called with), safe to ship to a worker;
* :class:`RunSummary` — the slim result extracted from a ``RunResult``
  (per-peer metric records, recovery counters, chain statistics, engine
  counters) with the same accessor surface the figure modules use, so
  serial and parallel sweeps are drop-in interchangeable.

:func:`run_specs` executes a spec list over a ``ProcessPoolExecutor``
and returns summaries **in spec order** regardless of which worker
finishes first — so a parallel sweep is bit-identical to a serial one,
worker count being pure wall-clock mechanics.  The worker count resolves
from the ``REPRO_WORKERS`` environment knob (``0`` = one per CPU) when
not passed explicitly; the default is serial.

This module is the single sanctioned fan-out choke point: simlint rule
SL008 flags ``ProcessPoolExecutor``/``multiprocessing`` use anywhere
else under ``src/`` so that determinism guarantees (spec-order results,
per-run seeding, no shared mutable state) cannot be bypassed ad hoc.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.chains import ChainStats, summarize_chains
from repro.analysis.metrics import SwarmMetrics
from repro.attacks.freerider import FreeRiderOptions
from repro.bt.config import SwarmConfig

#: Environment knob read when ``workers`` is not passed explicitly.
#: ``1`` (default) = serial, ``N`` = N worker processes, ``0`` = one
#: worker per CPU.
ENV_WORKERS = "REPRO_WORKERS"

#: run_swarm parameters that cannot cross a process boundary.
_UNSPECABLE = ("config", "setup", "fault_plan")


class ParallelExecutionError(RuntimeError):
    """A sweep could not be executed (or survive) in parallel."""


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: explicit arg, else ``REPRO_WORKERS``
    (default 1 = serial); ``0`` means one worker per CPU."""
    if workers is None:
        raw = os.environ.get(ENV_WORKERS, "").strip()
        try:
            workers = int(raw) if raw else 1
        except ValueError:
            raise ParallelExecutionError(
                f"{ENV_WORKERS}={raw!r} is not an integer")
    if workers < 0:
        raise ParallelExecutionError(f"workers must be >= 0: {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return workers


# ----------------------------------------------------------------------
# RunSpec — the picklable unit of work
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One :func:`~repro.experiments.runner.run_swarm` call, frozen.

    Fields mirror the harness knobs; anything else a sweep passes
    (``real_crypto=True``, capacity overrides, ...) rides in
    ``config_overrides`` as a sorted key/value tuple so specs stay
    hashable and order-independent.
    """

    protocol: str = "tchain"
    seed: int = 0
    leechers: int = 40
    freerider_fraction: float = 0.0
    arrival: str = "flash"
    file_mb: Optional[float] = None
    pieces: Optional[int] = None
    piece_size_kb: Optional[float] = None
    max_time: Optional[float] = None
    freerider_options: Optional[FreeRiderOptions] = None
    initial_piece_fraction: float = 0.0
    trace_horizon_s: float = 2000.0
    sanitize: bool = False
    config_overrides: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def from_kwargs(cls, **kwargs) -> "RunSpec":
        """Build a spec from ``run_swarm``-style keyword arguments.

        Raises :class:`ParallelExecutionError` for arguments that
        cannot cross a process boundary (``setup`` callables, live
        ``config`` objects, fault plans) — such runs must stay serial.

        ``kwargs`` is never mutated — neither on success nor on the
        error path — so callers can safely reuse one kwargs dict
        across many specs (the seed loop in ``run_many`` does).
        """
        blocked = [k for k in _UNSPECABLE if kwargs.get(k) is not None]
        if blocked:
            raise ParallelExecutionError(
                f"run_swarm argument(s) {', '.join(blocked)} cannot be "
                f"executed in a worker process; run serially "
                f"(workers=1) instead")
        names = {f.name for f in fields(cls)} - {"config_overrides"}
        direct = {k: v for k, v in kwargs.items() if k in names}
        extra = {k: v for k, v in kwargs.items()
                 if k not in names and k not in _UNSPECABLE}
        overrides = tuple(sorted(extra.items(), key=lambda kv: kv[0]))
        return cls(config_overrides=overrides, **direct)

    def kwargs(self) -> Dict[str, object]:
        """The ``run_swarm`` keyword arguments this spec describes."""
        kw: Dict[str, object] = {
            f.name: getattr(self, f.name) for f in fields(self)
            if f.name != "config_overrides"}
        kw.update(dict(self.config_overrides))
        return kw


# ----------------------------------------------------------------------
# RunSummary — the picklable unit of result
# ----------------------------------------------------------------------
@dataclass
class RunSummary:
    """Everything a sweep consumes from one run, minus the live swarm.

    Carries the real :class:`~repro.analysis.metrics.SwarmMetrics`
    (plain per-peer records plus recovery counters — no simulator
    references) and the run's :class:`~repro.bt.config.SwarmConfig`,
    so the accessor surface matches ``RunResult`` where the figure
    modules need it.  ``wall_time_s`` is excluded from equality:
    summaries are *bit-identical* across serial/parallel execution,
    wall clocks are not.
    """

    protocol: str
    seed: int
    n_compliant: int
    n_freeriders: int
    config: SwarmConfig
    metrics: SwarmMetrics
    chain_stats: Optional[ChainStats]
    collusion_successes: int
    sim_time_s: float
    events_fired: int
    wall_time_s: float = field(compare=False, default=0.0)
    #: Why the run ended (``Swarm.stop_reason``).  Defaulted, so a
    #: checkpoint pickled before the field existed loads with ``None``.
    stop_reason: Optional[str] = None

    # -- RunResult-compatible accessors --------------------------------
    def mean_completion_time(self, kind: str = "leecher"
                             ) -> Optional[float]:
        """Average completion time for a peer kind."""
        return self.metrics.mean_completion_time(kind)

    def mean_utilization(self, kind: str = "leecher") -> Optional[float]:
        """Average uplink utilization for a peer kind."""
        return self.metrics.mean_utilization(kind)

    def completion_rate(self, kind: str = "leecher") -> float:
        """Fraction of peers of a kind that finished downloading."""
        return self.metrics.completion_rate(kind)

    def optimal_time(self) -> float:
        """The fluid optimum for this run's population."""
        from repro.experiments.runner import optimal_completion_time
        capacities = [r.capacity_kbps for r in self.metrics.records
                      if r.kind == "leecher"]
        return optimal_completion_time(
            self.config.n_pieces * self.config.piece_size_kb,
            self.config.seeder_capacity_kbps, capacities)

    @property
    def opportunistic_fraction(self) -> float:
        """Share of T-Chain chains initiated by leechers (0.0 when the
        run was not T-Chain)."""
        if self.chain_stats is None:
            return 0.0
        return self.chain_stats.opportunistic_fraction

    @property
    def events_per_second(self) -> float:
        """Engine throughput of the run (0.0 if wall time unknown)."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.events_fired / self.wall_time_s


def summarize_run(result, wall_time_s: float = 0.0) -> RunSummary:
    """Extract a :class:`RunSummary` from a live ``RunResult``."""
    state = result.tchain_state
    chain_stats = (summarize_chains(state.registry)
                   if state is not None else None)
    collusion = (state.ledger.collusion_successes
                 if state is not None else 0)
    return RunSummary(
        protocol=result.protocol,
        seed=result.config.seed,
        n_compliant=result.n_compliant,
        n_freeriders=result.n_freeriders,
        config=result.config,
        metrics=result.metrics,
        chain_stats=chain_stats,
        collusion_successes=collusion,
        sim_time_s=result.swarm.sim.now,
        events_fired=result.swarm.sim.events_fired,
        wall_time_s=wall_time_s,
        stop_reason=result.stop_reason,
    )


def execute_spec(spec: RunSpec) -> RunSummary:
    """Run one spec to completion (the worker-process entry point)."""
    from repro.experiments.runner import run_swarm
    start = time.perf_counter()  # simlint: disable=SL002 -- measures real sweep wall-time, not simulated time
    result = run_swarm(**spec.kwargs())
    wall = time.perf_counter() - start  # simlint: disable=SL002 -- see above
    return summarize_run(result, wall_time_s=wall)


# ----------------------------------------------------------------------
# Ordered fan-out
# ----------------------------------------------------------------------
def _map_ordered(fn, items: Sequence, workers: int) -> List:
    """``[fn(x) for x in items]`` over a process pool, results in
    submission order regardless of completion order.

    A dead worker (hard crash, OOM kill) surfaces promptly as
    :class:`ParallelExecutionError`; an exception *raised by* ``fn``
    propagates as itself, exactly as in the serial comprehension.

    The raised error carries an ``in_flight`` tuple with the repr of
    every item that was possibly executing when the pool broke (the
    pool cannot say which worker held which item, so all unfinished
    items are candidates) — enough to isolate the killer without
    rerunning the whole sweep serially.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    futures: List = []
    try:
        with ProcessPoolExecutor(
                max_workers=min(workers, len(items))) as pool:
            futures = [pool.submit(fn, item) for item in items]
            return [f.result() for f in futures]
    except BrokenProcessPool as exc:
        # Every future is settled once the with-block exits; the ones
        # poisoned by the pool break (rather than completed or
        # cancelled while queued) were the in-flight candidates.
        in_flight = tuple(
            repr(item) for item, future in zip(items, futures)
            if not future.done()
            or (not future.cancelled()
                and isinstance(future.exception(), BrokenProcessPool)))
        shown = ", ".join(in_flight[:3])
        if len(in_flight) > 3:
            shown += f", ... ({len(in_flight) - 3} more)"
        error = ParallelExecutionError(
            f"a worker process died while executing {len(items)} "
            f"spec(s) across {workers} workers (hard crash or the "
            f"OOM killer); in flight: [{shown}]; rerun with "
            f"{ENV_WORKERS}=1 to isolate the failing spec, or use "
            f"run_specs_fabric for checkpointed retries")
        error.in_flight = in_flight
        raise error from exc


def run_specs(specs: Sequence[RunSpec],
              workers: Optional[int] = None) -> List[RunSummary]:
    """Execute specs, serially or across worker processes.

    Results are returned in spec order and are bit-identical across
    any worker count: each run derives all randomness from its spec's
    seed, and summaries carry no shared state.
    """
    specs = list(specs)
    workers = resolve_workers(workers)
    if workers <= 1 or len(specs) <= 1:
        return [execute_spec(spec) for spec in specs]
    return _map_ordered(execute_spec, specs, workers)


# ----------------------------------------------------------------------
# Chaos sweeps (repro chaos --seeds ...)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosSpec:
    """One picklable :func:`repro.faults.run_chaos` invocation."""

    leechers: int = 16
    pieces: int = 10
    seed: int = 0
    control_loss_prob: float = 0.10
    control_delay_prob: float = 0.10
    control_delay_s: float = 1.0
    upload_stall_prob: float = 0.02
    upload_stall_s: float = 5.0
    crashes: int = 2
    max_time: Optional[float] = None
    races: bool = False


@dataclass
class ChaosSummary:
    """The picklable slice of a ``ChaosResult`` the CLI reports."""

    seed: int
    passed: bool
    survivors_finished: int
    survivors_total: int
    crashes_executed: int
    sanitizer_checks: int
    recovery: Dict[str, int]
    rows: List[tuple]
    race_conflicts: int = 0
    race_descriptions: Tuple[str, ...] = ()
    wall_time_s: float = field(compare=False, default=0.0)


def execute_chaos(spec: ChaosSpec) -> ChaosSummary:
    """Run one chaos scenario (worker-process entry point)."""
    from repro.faults import run_chaos
    start = time.perf_counter()  # simlint: disable=SL002 -- real wall-time of the chaos sweep
    chaos = run_chaos(**asdict(spec))
    wall = time.perf_counter() - start  # simlint: disable=SL002 -- see above
    return ChaosSummary(
        seed=spec.seed,
        passed=chaos.passed,
        survivors_finished=chaos.survivors_finished,
        survivors_total=len(chaos.survivor_records),
        crashes_executed=len(chaos.injector.crashed_ids),
        sanitizer_checks=chaos.sanitizer_checks,
        recovery=chaos.counters.as_dict(),
        rows=chaos.summary_rows(),
        race_conflicts=chaos.race_conflict_count,
        race_descriptions=tuple(chaos.race_conflicts),
        wall_time_s=wall,
    )


def run_chaos_specs(specs: Sequence[ChaosSpec],
                    workers: Optional[int] = None) -> List[ChaosSummary]:
    """Execute chaos specs, serially or in parallel, in spec order."""
    specs = list(specs)
    workers = resolve_workers(workers)
    if workers <= 1 or len(specs) <= 1:
        return [execute_chaos(spec) for spec in specs]
    return _map_ordered(execute_chaos, specs, workers)
