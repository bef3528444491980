"""Run specs, run summaries, and the one routing point that executes them.

Every paper figure is a sweep — seeds × protocols × populations pushed
through :func:`repro.experiments.runner.run_swarm` — and each run is an
independent, seeded simulation.  That makes the sweep embarrassingly
parallel *if* the unit of work can cross a process boundary, which the
live :class:`~repro.experiments.runner.RunResult` cannot (it drags the
whole ``Swarm``/``Simulator`` object graph along).  This module supplies
the two picklable halves:

* :class:`RunSpec` — a frozen description of one run (what
  :func:`run_swarm` would be called with, fault plan included), safe to
  ship to a worker and to encode in a sweep manifest;
* :class:`RunSummary` — the slim result extracted from a ``RunResult``
  (per-peer metric records, recovery counters, chain statistics, engine
  counters, fault and sanitizer facts) with the accessor surface the
  figure modules and the chaos report read.

:func:`run_specs` executes a spec list and returns summaries **in spec
order**, bit-identical for any worker count.  With one worker and no
sweep directory it runs them in this process; otherwise it hands them
to the sweep fabric (:func:`repro.experiments.fabric.run_specs_fabric`),
whose supervisor owns the only process pool (simlint SL008).  The
worker count resolves from the ``REPRO_WORKERS`` environment knob
(``0`` = one per CPU) when not passed explicitly; the default is serial.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.analysis.chains import ChainStats, summarize_chains
from repro.analysis.metrics import SwarmMetrics
from repro.attacks.freerider import FreeRiderOptions
from repro.bt.config import SwarmConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

#: Environment knob read when ``workers`` is not passed explicitly.
#: ``1`` (default) = serial, ``N`` = N worker processes, ``0`` = one
#: worker per CPU.
ENV_WORKERS = "REPRO_WORKERS"

#: run_swarm parameters that cannot cross a process boundary.
_UNSPECABLE = ("setup",)


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
    order-independent.  ``sanitize`` is ``True`` or ``"races"`` (the
    sanitizer plus the same-instant race reporter); ``fault_plan`` is a
    :class:`~repro.faults.plan.FaultPlan`, which makes a chaos case an
    ordinary spec.
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
    sanitize: Union[bool, str] = False
    fault_plan: Optional["FaultPlan"] = None
    config_overrides: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def from_kwargs(cls, **kwargs) -> "RunSpec":
        """Build a spec from ``run_swarm``-style keyword arguments.

        Raises :class:`ParallelExecutionError` for a ``setup``
        callable, which cannot cross a process boundary.

        ``kwargs`` is never mutated — neither on success nor on the
        error path — so callers can safely reuse one kwargs dict
        across many specs (the seed loop in ``run_many`` does).
        """
        blocked = [k for k in _UNSPECABLE if kwargs.get(k) is not None]
        if blocked:
            raise ParallelExecutionError(
                f"run_swarm argument(s) {', '.join(blocked)} cannot be "
                f"described by a RunSpec; call run_swarm directly")
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

    Fields after ``wall_time_s`` are defaulted, so a checkpoint pickled
    before one existed loads with its default.
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
    #: Why the run ended (``Swarm.stop_reason``).
    stop_reason: Optional[str] = None
    #: Fault injection: victims of executed crashes, and crashes whose
    #: victim could not be resolved.
    crashed_ids: Tuple[str, ...] = ()
    crashes_skipped: int = 0
    #: Invariant checks the sanitizer ran (0: it was off).
    sanitizer_checks: int = 0
    #: Same-instant race reporter: events it watched (``None``: no
    #: reporter attached), conflicting access pairs it counted, and the
    #: descriptions of the ones it retained.
    race_events_seen: Optional[int] = None
    race_conflict_count: int = 0
    race_conflicts: Tuple[str, ...] = ()

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


def summarize_run(result, wall_time_s: float = 0.0) -> RunSummary:
    """Extract a :class:`RunSummary` from a live ``RunResult``."""
    state = result.tchain_state
    sim = result.swarm.sim
    injector = result.swarm.fault_injector
    races = sim.races
    return RunSummary(
        protocol=result.protocol,
        seed=result.config.seed,
        n_compliant=result.n_compliant,
        n_freeriders=result.n_freeriders,
        config=result.config,
        metrics=result.metrics,
        chain_stats=(summarize_chains(state.registry)
                     if state is not None else None),
        collusion_successes=(state.ledger.collusion_successes
                             if state is not None else 0),
        sim_time_s=sim.now,
        events_fired=sim.events_fired,
        wall_time_s=wall_time_s,
        stop_reason=result.stop_reason,
        crashed_ids=(tuple(injector.crashed_ids)
                     if injector is not None else ()),
        crashes_skipped=(injector.crashes_skipped
                         if injector is not None else 0),
        sanitizer_checks=(sim.sanitizer.checks_run
                          if sim.sanitizer is not None else 0),
        race_events_seen=races.events_seen if races is not None else None,
        race_conflict_count=(races.total_conflicts
                             if races is not None else 0),
        race_conflicts=(tuple(races.conflict_pairs())
                        if races is not None else ()),
    )


def execute_spec(spec: RunSpec) -> RunSummary:
    """Run one spec to completion (the worker-process entry point)."""
    from repro.experiments.runner import run_swarm
    start = time.perf_counter()  # simlint: disable=SL002 -- measures real sweep wall-time, not simulated time
    result = run_swarm(**spec.kwargs())
    wall = time.perf_counter() - start  # simlint: disable=SL002 -- see above
    return summarize_run(result, wall_time_s=wall)


# ----------------------------------------------------------------------
# The one routing point
# ----------------------------------------------------------------------
def run_specs(specs: Sequence[RunSpec],
              workers: Optional[int] = None,
              sweep_dir: Optional[str] = None) -> List[RunSummary]:
    """Execute specs; summaries come back in spec order.

    With no sweep directory (``sweep_dir``, else the
    ``REPRO_SWEEP_DIR`` knob) and one worker or one spec, the specs
    run here, one after another: the reference every other path is
    compared against, where a spec that raises propagates as itself.
    Otherwise they run through the sweep fabric — over ``workers``
    processes, checkpointed in a per-matrix subdirectory of the sweep
    directory (resumable with ``repro sweep --resume``) or in a
    throwaway temp directory when none is set.  There a spec that
    raises is retried, then its shard is quarantined, and the call
    ends in :class:`~repro.experiments.fabric.SweepIncomplete` (a
    :class:`ParallelExecutionError`).  Results are bit-identical
    across both paths: each run derives all randomness from its spec's
    seed, and summaries carry no shared state.

    The supervisor hands out whole shards, so shards are sized to give
    every worker one (at most ``DEFAULT_SHARD_SIZE`` specs each); the
    sweep subdirectory depends on that size, so re-running a command
    with the same worker count finds its checkpoints.
    """
    from repro.experiments.fabric import (DEFAULT_SHARD_SIZE,
                                          resolve_sweep_dir,
                                          run_specs_fabric, sweep_subdir)
    specs = list(specs)
    sweep_dir = resolve_sweep_dir(sweep_dir)
    workers = min(resolve_workers(workers), max(len(specs), 1))
    if not specs or (sweep_dir is None and workers <= 1):
        return [execute_spec(spec) for spec in specs]
    shard_size = min(DEFAULT_SHARD_SIZE, -(-len(specs) // workers))
    if sweep_dir is not None:
        sweep_dir = sweep_subdir(sweep_dir, specs, shard_size=shard_size)
    return run_specs_fabric(specs, workers=workers, sweep_dir=sweep_dir,
                            shard_size=shard_size)
