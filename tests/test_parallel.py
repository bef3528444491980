"""Tests for the parallel experiment executor.

The contract under test (docs/PERF.md): a sweep executed through
``run_specs`` is **bit-identical** to the serial comprehension — same
results, in spec order, for any worker count (worker death and retries
are the fabric's, tests/test_fabric.py).
"""

import os
import pickle
import time
from dataclasses import replace

import pytest

from repro.experiments.parallel import (
    ENV_WORKERS,
    ParallelExecutionError,
    RunSpec,
    RunSummary,
    execute_spec,
    resolve_workers,
    run_specs,
)
from repro.experiments.runner import run_swarm
from repro.faults import chaos_spec

SPEC = RunSpec(protocol="tchain", leechers=10, pieces=6,
               freerider_fraction=0.2)


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert resolve_workers() == 1

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "3")
        assert resolve_workers() == 3

    def test_explicit_arg_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "3")
        assert resolve_workers(2) == 2

    def test_zero_means_one_per_cpu(self):
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_non_integer_env_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "many")
        with pytest.raises(ParallelExecutionError):
            resolve_workers()

    def test_negative_rejected(self):
        with pytest.raises(ParallelExecutionError):
            resolve_workers(-1)


class TestRunSpec:
    def test_from_kwargs_roundtrip(self):
        spec = RunSpec.from_kwargs(protocol="bittorrent", seed=5,
                                   leechers=8, real_crypto=True)
        assert spec.protocol == "bittorrent"
        assert spec.config_overrides == (("real_crypto", True),)
        kwargs = spec.kwargs()
        assert kwargs["seed"] == 5
        assert kwargs["real_crypto"] is True

    def test_unspecable_arguments_rejected(self):
        with pytest.raises(ParallelExecutionError):
            RunSpec.from_kwargs(setup=object())

    def test_specs_hashable(self):
        assert len({SPEC, replace(SPEC, seed=SPEC.seed)}) == 1


class TestBitIdentical:
    def test_parallel_matches_serial(self):
        specs = [replace(SPEC, seed=seed) for seed in range(3)]
        serial = run_specs(specs, workers=1)
        parallel = run_specs(specs, workers=2)
        assert serial == parallel

    def test_spec_order_preserved(self):
        # The heavier run is submitted first, so with two workers it
        # finishes *after* the light one; results must still come back
        # in spec order.
        specs = [replace(SPEC, seed=0, leechers=16, pieces=12),
                 replace(SPEC, seed=1, leechers=4, pieces=4)]
        out = run_specs(specs, workers=2)
        assert [s.seed for s in out] == [0, 1]
        assert [s.config.n_pieces for s in out] == [12, 4]

    def test_summary_matches_live_result(self):
        kwargs = dict(protocol="tchain", leechers=10, pieces=6,
                      seed=2, freerider_fraction=0.2)
        result = run_swarm(**kwargs)
        summary = execute_spec(RunSpec(**kwargs))
        assert isinstance(summary, RunSummary)
        assert summary == result.summary()
        assert (summary.mean_completion_time("leecher")
                == result.metrics.mean_completion_time("leecher"))
        assert (summary.completion_rate("freerider")
                == result.metrics.completion_rate("freerider"))
        assert summary.optimal_time() == pytest.approx(
            result.optimal_time())
        assert summary.events_fired == result.swarm.sim.events_fired
        assert summary.stop_reason == result.stop_reason == "quiescent"

    def test_summary_pickled_before_stop_reason_still_loads(self):
        """Fabric checkpoints are pickled ``RunSummary`` lists; one
        written before the field existed has no such key in its state
        and must come back reading ``None``, not raise."""
        summary = execute_spec(SPEC)
        assert summary.stop_reason == "quiescent"
        old = pickle.loads(pickle.dumps(summary))
        del old.__dict__["stop_reason"]
        loaded = pickle.loads(pickle.dumps(old))
        assert "stop_reason" not in loaded.__dict__
        assert loaded.stop_reason is None
        assert replace(loaded, stop_reason="quiescent") == summary

    def test_summary_pickled_before_fault_fields_still_loads(self):
        """The same for the fault and sanitizer facts: a checkpoint
        written before they existed loads with their defaults."""
        summary = execute_spec(SPEC)
        old = pickle.loads(pickle.dumps(summary))
        new_fields = ("crashed_ids", "crashes_skipped",
                      "sanitizer_checks", "race_events_seen",
                      "race_conflict_count", "race_conflicts", "series")
        for name in new_fields:
            del old.__dict__[name]
        loaded = pickle.loads(pickle.dumps(old))
        assert [getattr(loaded, name) for name in new_fields] \
            == [(), 0, 0, None, 0, (), ()]
        assert loaded == summary

    def test_small_sweep_gives_every_worker_a_shard(self, monkeypatch):
        """The supervisor hands out whole shards: each spec is its own
        shard, so a sweep smaller than the default shard size still
        runs on every worker."""
        from repro.experiments.fabric import sweep
        seen = []

        class Recording(sweep.SweepSupervisor):
            def run(self):
                outcome = super().run()
                seen.append((self.workers, outcome.stats.executed))
                return outcome

        monkeypatch.setattr(sweep, "SweepSupervisor", Recording)
        run_specs([RunSpec(protocol="tchain", seed=seed, leechers=8,
                           pieces=6) for seed in range(4)], workers=2)
        assert seen == [(2, 4)]

    def test_single_spec_runs_in_process(self, monkeypatch):
        from repro.experiments import fabric

        def no_fabric(*args, **kwargs):
            raise AssertionError("one spec needs no pool")

        monkeypatch.setattr(fabric, "run_specs_fabric", no_fabric)
        assert run_specs([SPEC], workers=2) == [execute_spec(SPEC)]

    def test_wall_time_excluded_from_equality(self):
        summary = execute_spec(SPEC)
        slower = replace(summary, wall_time_s=summary.wall_time_s + 9)
        assert summary == slower


class TestChaosSweep:
    def test_chaos_parallel_matches_serial(self):
        specs = [chaos_spec(leechers=8, pieces=6, seed=seed, crashes=1,
                            max_time=400.0) for seed in (0, 1)]
        serial = run_specs(specs, workers=1)
        parallel = run_specs(specs, workers=2)
        assert serial == parallel
        assert [c.seed for c in serial] == [0, 1]
        assert all(c.crashed_ids and c.sanitizer_checks for c in serial)


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup assertion needs >= 4 CPUs")
class TestSpeedup:
    def test_four_workers_at_least_twice_as_fast(self):
        specs = [replace(SPEC, seed=seed, leechers=20, pieces=12)
                 for seed in range(8)]
        start = time.perf_counter()  # simlint: disable=SL002 -- measures real speedup wall-time
        serial = run_specs(specs, workers=1)
        serial_s = time.perf_counter() - start  # simlint: disable=SL002 -- measures real speedup wall-time
        start = time.perf_counter()  # simlint: disable=SL002 -- measures real speedup wall-time
        parallel = run_specs(specs, workers=4)
        parallel_s = time.perf_counter() - start  # simlint: disable=SL002 -- measures real speedup wall-time
        assert serial == parallel
        assert parallel_s < serial_s / 2
