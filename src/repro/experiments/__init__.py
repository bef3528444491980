"""Experiment harness: one module per paper figure/table.

:func:`repro.experiments.runner.run_swarm` is the single entry point
that builds, populates and runs a swarm; the per-figure modules
(:mod:`repro.experiments.fig3` ... :mod:`repro.experiments.table2`)
compose it into the paper's exact sweeps and print the corresponding
rows/series.  Every sweep is a list of
:class:`~repro.experiments.parallel.RunSpec` and one executor,
:func:`~repro.experiments.parallel.run_specs`: in this process when
serial, otherwise through the checkpointed sweep fabric
(:mod:`repro.experiments.fabric`) over worker processes
(``run_many(..., workers=N)`` / ``REPRO_WORKERS``), with spec-order,
bit-identical results.  The performance benchmark lives outside the
package, in ``benchmarks/perf``.
"""

from repro.experiments.parallel import (
    ParallelExecutionError,
    RunSpec,
    RunSummary,
    resolve_workers,
    run_specs,
)
from repro.experiments.runner import (
    RunResult,
    optimal_completion_time,
    run_many,
    run_swarm,
)

__all__ = [
    "ParallelExecutionError",
    "RunResult",
    "RunSpec",
    "RunSummary",
    "optimal_completion_time",
    "resolve_workers",
    "run_many",
    "run_specs",
    "run_swarm",
]
