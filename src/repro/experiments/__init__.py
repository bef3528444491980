"""Experiment harness: one module per paper figure/table.

:func:`repro.experiments.runner.run_swarm` builds, populates and runs
one swarm.  Every sweep is a list of
:class:`~repro.experiments.parallel.RunSpec` and one executor,
:func:`~repro.experiments.parallel.run_specs`: in process when serial,
otherwise through the checkpointed sweep fabric
(:mod:`repro.experiments.fabric`) over ``workers=N`` /
``REPRO_WORKERS`` processes, with spec-order, bit-identical results.
Each figure module (:mod:`~repro.experiments.fig3` ...
:mod:`~repro.experiments.table2`) is data for it: a spec ``grid``, a
``reduce`` to rows and a ``render``, run by
:func:`~repro.experiments.parallel.run_figure`.  The performance
benchmark lives in ``benchmarks/perf``.
"""

from repro.experiments.parallel import (
    ParallelExecutionError,
    RunSpec,
    RunSummary,
    resolve_workers,
    run_figure,
    run_specs,
)
from repro.experiments.runner import (
    RunResult,
    optimal_completion_time,
    run_swarm,
)

__all__ = [
    "ParallelExecutionError",
    "RunResult",
    "RunSpec",
    "RunSummary",
    "optimal_completion_time",
    "resolve_workers",
    "run_figure",
    "run_specs",
    "run_swarm",
]
