"""Shared benchmark utilities.

Every benchmark regenerates one paper table/figure at the configured
:class:`ExperimentScale` (env ``REPRO_SCALE`` / ``REPRO_SEEDS``),
prints the resulting rows/series, and writes them under
``benchmarks/out/`` so EXPERIMENTS.md can reference the artifacts.

Each figure is one spec grid run by ``run_figure`` — one ``run_specs``
call, which honours the ``REPRO_WORKERS`` and ``REPRO_SWEEP_DIR``
knobs: ``REPRO_WORKERS=4 pytest benchmarks/`` runs each figure's grid
through the sweep fabric over four worker processes, with results
bit-identical to serial (docs/PERF.md).
"""

import pathlib

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.parallel import resolve_workers

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The session's experiment scale (env-configurable)."""
    return ExperimentScale.from_env()


@pytest.fixture(scope="session")
def workers() -> int:
    """The session's worker count (env ``REPRO_WORKERS``; 1 = serial)."""
    return resolve_workers()


@pytest.fixture(scope="session", autouse=True)
def _report_workers(workers):
    """Surface the effective worker count in the benchmark header so
    recorded timings are never compared across unequal fan-outs by
    accident."""
    print(f"\n[benchmarks: REPRO_WORKERS resolved to {workers}]")


@pytest.fixture(scope="session")
def artifact():
    """Writer for rendered figure text: artifact(name, text)."""
    OUT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        path = OUT_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[written to {path}]")

    return write


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
