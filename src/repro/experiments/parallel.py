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
  counters, fault and sanitizer facts, requested series) with the
  accessor surface the figure modules and the chaos report read.

:func:`run_specs` executes a spec list and returns summaries **in spec
order**, bit-identical for any worker count.  With one worker and no
sweep directory it runs them in this process; otherwise it hands them
to the sweep fabric (:func:`repro.experiments.fabric.run_specs_fabric`),
whose supervisor owns the only process pool (simlint SL008).  The
worker count resolves from the ``REPRO_WORKERS`` environment knob
(``0`` = one per CPU) when not passed explicitly; the default is serial.

:func:`run_figure` runs a paper figure: its module's ``grid(scale)``
spec list, one :func:`run_specs` call, then ``reduce``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields
from itertools import islice
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.analysis.chains import ChainStats, summarize_chains
from repro.analysis.metrics import SwarmMetrics
from repro.attacks.freerider import FreeRiderOptions
from repro.bt.config import SwarmConfig
from repro.bt.protocols import PROTOCOLS
from repro.experiments.runner import (ARRIVALS, SERIES, RunAccessors,
                                      run_spec, seeds_for)

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import ExperimentScale
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
    """One swarm run, frozen: the one list of run parameters and their
    defaults, which :func:`~repro.experiments.runner.run_swarm` takes
    as keyword arguments.

    ``leechers`` arrive by ``arrival`` (:data:`ARRIVALS`), a
    ``freerider_fraction`` of them free-riding with
    ``freerider_options``; the file is ``file_mb`` at the protocol's
    paper piece size, or ``pieces`` (default 32) of ``piece_size_kb``
    (default 256 KB).  ``series`` names the :data:`SERIES` to record;
    ``sanitize`` (a bool) runs the simulation sanitizer;
    ``fault_plan`` makes a chaos case an ordinary spec.  Anything else
    (``real_crypto=True``, ...) is a :class:`SwarmConfig` field and
    rides in ``config_overrides`` as a sorted key/value tuple, so specs
    stay order-independent.
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
    series: Tuple[str, ...] = ()
    sanitize: bool = False
    fault_plan: Optional["FaultPlan"] = None
    config_overrides: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        # Rejected here, not after a worker's retries and quarantine.
        for what, names, known in (
                ("protocol", (self.protocol,), PROTOCOLS),
                ("arrival model", (self.arrival,), ARRIVALS),
                ("series", self.series, SERIES)):
            unknown = [name for name in names if name not in known]
            if unknown:
                raise ValueError(f"unknown {what} {unknown}; "
                                 f"choose from {sorted(known)}")
        if not isinstance(self.sanitize, bool):
            raise ValueError(f"unknown sanitize value {self.sanitize!r}; "
                             f"expected True or False")

    @classmethod
    def from_kwargs(cls, **kwargs) -> "RunSpec":
        """Build a spec from ``run_swarm``-style keyword arguments.

        Raises :class:`ParallelExecutionError` for a ``setup``
        callable, which cannot cross a process boundary.  ``kwargs``
        is never mutated, on success or error.
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
class RunSummary(RunAccessors):
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
    #: ``(name, value)`` of each requested series, in request order.
    series: Tuple[Tuple[str, object], ...] = ()


def summarize_run(result, wall_time_s: float = 0.0) -> RunSummary:
    """Extract a :class:`RunSummary` from a live ``RunResult``."""
    state = result.tchain_state
    sim = result.swarm.sim
    injector = result.swarm.fault_injector
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
        series=tuple(result.series.items()),
    )


def execute_spec(spec: RunSpec) -> RunSummary:
    """Run one spec to completion (the worker-process entry point)."""
    start = time.perf_counter()  # simlint: disable=SL002 -- measures real sweep wall-time, not simulated time
    result = run_spec(spec)
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

    Each shard holds one spec: the supervisor hands out whole shards,
    so every worker stays busy until the last spec, and the sweep
    subdirectory does not depend on the worker count.
    """
    from repro.experiments.fabric import (resolve_sweep_dir,
                                          run_specs_fabric, sweep_subdir)
    specs = list(specs)
    sweep_dir = resolve_sweep_dir(sweep_dir)
    workers = min(resolve_workers(workers), max(len(specs), 1))
    if not specs or (sweep_dir is None and workers <= 1):
        return [execute_spec(spec) for spec in specs]
    if sweep_dir is not None:
        sweep_dir = sweep_subdir(sweep_dir, specs, shard_size=1)
    return run_specs_fabric(specs, workers=workers, sweep_dir=sweep_dir,
                            shard_size=1)


# ----------------------------------------------------------------------
# Figures as spec grids
# ----------------------------------------------------------------------
def grid_specs(label: str, cells: Sequence[Dict[str, object]],
               scale: "ExperimentScale") -> List[RunSpec]:
    """A spec per seed of each cell (``run_swarm`` keyword arguments);
    a cell's seeds derive from ``label.format(**cell)``."""
    return [RunSpec.from_kwargs(seed=seed, **cell) for cell in cells
            for seed in seeds_for(label.format(**cell), scale.root_seed,
                                  scale.seeds)]


def per_cell(summaries: Sequence[RunSummary], scale: "ExperimentScale"
             ) -> Iterator[List[RunSummary]]:
    """The summaries of consecutive cells, ``scale.seeds`` per cell."""
    it = iter(summaries)
    return iter(lambda: list(islice(it, scale.seeds)), [])


def run_figure(module, scale: "ExperimentScale",
               workers: Optional[int] = None,
               sweep_dir: Optional[str] = None):
    """A figure's rows: ``module.grid(scale)`` through one
    :func:`run_specs` call, reduced by ``module.reduce``."""
    summaries = run_specs(module.grid(scale), workers=workers,
                          sweep_dir=sweep_dir)
    return module.reduce(scale, summaries)
