"""Pinned performance benchmark (``repro bench``).

A fixed scenario matrix measured the same way every time, so engine
changes land with numbers instead of adjectives:

* **engine** — a timer-churn micro-benchmark exercising the raw event
  loop: 200 independent chains, each fired event cancels and re-arms a
  30 s timeout (T-Chain's retransmit-timer pattern) and schedules its
  next tick 10–20 ms out.  Throughput here is pure heap mechanics —
  push, lazy-deletion pop, compaction.
* **scenarios** — full protocol runs (T-Chain flash/trace crowds with
  free-riders, BitTorrent, PropShare) timed end to end, reported as
  events/sec and wall seconds each.
* **parallel** — one seed sweep executed serially and again through
  :mod:`repro.experiments.parallel`, reporting the speedup and
  asserting the two result lists compare equal (the bit-identical
  guarantee, checked on every bench run, not just in tests).
* **sweep_fabric** — the same sweep through plain ``run_specs`` and
  through the fault-tolerant fabric
  (:mod:`repro.experiments.fabric`), pinning the fabric's overhead
  (manifest + checkpoints + supervision) under a hard ceiling and
  asserting bit-identical merged output; plus a kill-resume scenario
  (seeded ``WorkerKill`` SIGKILL, quarantine, ``resume_sweep``) that
  must reproduce the plain results exactly.
* **tchain_crowd** — flash-crowd scale leg over the swarm state
  (:mod:`repro.bt.columnar`): T-Chain crowds of 1k/10k/100k
  leechers (``--quick``: 1k only) run to completion, reporting
  peers/sec and peak bytes-per-peer (tracemalloc at ≤10k, RSS delta
  at 100k where tracing would dominate memory itself).
* **alloc_audit** — the crowd scenario under the engine's per-event
  allocation profiler (``profile="alloc"``), pooled — EventHandle
  free-list plus plain-piece message pool, the defaults — versus
  unpooled, reporting bytes/event and allocs/event both ways and the
  drop the pools buy (the runtime validation of the simheat SL3xx
  static findings).  A pooled-vs-unpooled full-trace diff on the
  churn scenario asserts the pools are trace-neutral on every run.

Results are written as JSON (default :data:`DEFAULT_REPORT_PATH` in
the current directory) next to the frozen pre-PR baseline measured on
the same
workloads, so the delta the optimisation pass bought is visible in the
artifact itself.  Numbers are machine-relative: compare against the
baseline ratio, not across machines.
"""

from __future__ import annotations

import gc
import json
import os
import time
from typing import Dict, List, Optional, Tuple

from repro.experiments.parallel import (
    RunSpec,
    execute_spec,
    resolve_workers,
    run_specs,
)
from repro.sim.engine import Simulator

#: Default report filename.  ``repro bench --out`` and the CLI help
#: text must agree with this constant (pinned by a CLI test).
DEFAULT_REPORT_PATH = "BENCH_PR10.json"

#: Pre-PR throughput on the development machine (best of 5) for the two
#: pinned workloads below, measured at commit 89ddfb9 before the engine
#: optimisation pass.  Kept frozen so the artifact carries its own
#: before/after story.
BASELINE_PRE_PR3 = {
    "commit": "89ddfb9",
    "engine_churn_events_per_second": 185308,
    "tchain_flash_events_per_second": 46167,
    "note": ("best-of-5 on the PR-3 development machine; "
             "machine-relative — compare ratios, not absolutes"),
}

#: The full matrix (name -> RunSpec).  Scenario order is report order.
SCENARIOS: Dict[str, RunSpec] = {
    "tchain_flash": RunSpec(protocol="tchain", seed=7, leechers=30,
                            pieces=24, freerider_fraction=0.25),
    "tchain_trace": RunSpec(protocol="tchain", seed=3, leechers=24,
                            pieces=16, arrival="trace"),
    "bittorrent_flash": RunSpec(protocol="bittorrent", seed=7,
                                leechers=30, pieces=24),
    "propshare_flash": RunSpec(protocol="propshare", seed=7,
                               leechers=30, pieces=24),
}

#: Quick-mode matrix: same shapes, smaller populations (CI smoke).
QUICK_SCENARIOS: Dict[str, RunSpec] = {
    "tchain_flash": RunSpec(protocol="tchain", seed=7, leechers=12,
                            pieces=8, freerider_fraction=0.25),
    "bittorrent_flash": RunSpec(protocol="bittorrent", seed=7,
                                leechers=12, pieces=8),
}

ENGINE_EVENTS = 60_000
ENGINE_EVENTS_QUICK = 12_000
ENGINE_CHAINS = 200
ENGINE_SEED = 1234

#: Seed sweep used for the serial-vs-parallel leg.
PARALLEL_SWEEP = RunSpec(protocol="tchain", leechers=20, pieces=12,
                         freerider_fraction=0.2)
PARALLEL_SEEDS = 8
PARALLEL_SEEDS_QUICK = 4


def _tick(state: dict, sim: Simulator) -> None:
    """One churn step: re-arm the chain's timeout, schedule the next."""
    timeout = state["timeout"]
    if timeout is not None:
        timeout.cancel()
    state["timeout"] = sim.schedule(30.0, _noop)
    sim.schedule(0.01 + sim.rng.random() * 0.01, _tick, state, sim)


def _noop() -> None:
    pass


def bench_engine(n_events: int = ENGINE_EVENTS,
                 chains: int = ENGINE_CHAINS,
                 seed: int = ENGINE_SEED) -> Dict[str, object]:
    """Run the timer-churn micro-benchmark and report throughput."""
    sim = Simulator(seed=seed)
    for _ in range(chains):
        sim.schedule(sim.rng.random() * 0.01, _tick,
                     {"timeout": None}, sim)
    start = time.perf_counter()  # simlint: disable=SL002 -- benchmark measures real wall-time by design
    sim.run(max_events=n_events)
    wall = time.perf_counter() - start  # simlint: disable=SL002 -- see above
    return {
        "events": sim.events_fired,
        "wall_time_s": round(wall, 4),
        "events_per_second": round(sim.events_fired / wall),
        "compactions": sim.compactions,
    }


def bench_scenarios(scenarios: Dict[str, RunSpec],
                    repeat: int = 1) -> List[Dict[str, object]]:
    """Time each pinned scenario end to end (best of ``repeat``)."""
    rows = []
    for name, spec in scenarios.items():
        best = None
        for _ in range(max(1, repeat)):
            summary = execute_spec(spec)
            if best is None or summary.wall_time_s < best.wall_time_s:
                best = summary
        rows.append({
            "name": name,
            "protocol": best.protocol,
            "seed": best.seed,
            "leechers": spec.leechers,
            "pieces": best.config.n_pieces,
            "events_fired": best.events_fired,
            "sim_time_s": round(best.sim_time_s, 1),
            "wall_time_s": round(best.wall_time_s, 4),
            "events_per_second": round(best.events_per_second),
            "mean_completion_s": best.mean_completion_time("leecher"),
        })
    return rows


def bench_parallel(n_seeds: int, workers: Optional[int] = None
                   ) -> Dict[str, object]:
    """Serial-vs-parallel leg: same sweep both ways, equality-checked.

    ``workers`` defaults to ``min(4, cpu_count)``; on a single-CPU box
    the parallel leg still runs (with 2 workers) so the bit-identical
    guarantee is exercised, but the speedup number is reported as the
    honest <1x it is there.
    """
    cpus = os.cpu_count() or 1
    if workers is None:
        workers = min(4, cpus) if cpus > 1 else 2
    from dataclasses import replace
    specs = [replace(PARALLEL_SWEEP, seed=s) for s in range(n_seeds)]
    start = time.perf_counter()  # simlint: disable=SL002 -- benchmark measures real wall-time by design
    serial = run_specs(specs, workers=1)
    serial_s = time.perf_counter() - start  # simlint: disable=SL002 -- see above
    start = time.perf_counter()  # simlint: disable=SL002 -- see above
    parallel = run_specs(specs, workers=workers)
    parallel_s = time.perf_counter() - start  # simlint: disable=SL002 -- see above
    identical = serial == parallel
    if not identical:  # pragma: no cover - would be an engine bug
        raise AssertionError(
            "parallel sweep diverged from serial — determinism broken")
    return {
        "runs": n_seeds,
        "workers": workers,
        "cpu_count": cpus,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 2),
        "identical": identical,
    }


#: Fabric-overhead ceilings: full mode is a real performance pin
#: (≤ 10% over plain ``run_specs``); quick mode runs once on small,
#: noisy CI boxes, so it only smoke-checks the order of magnitude.
FABRIC_OVERHEAD_LIMIT = 1.10
FABRIC_OVERHEAD_LIMIT_QUICK = 1.35

#: Shard size for the fabric legs: small enough that the sweep spans
#: several shards (exercising checkpoint merge), large enough to be a
#: realistic ratio of work to checkpoint I/O.
FABRIC_SHARD_SIZE = 2


def bench_sweep_fabric(n_seeds: int, workers: Optional[int] = None,
                       repeat: int = 3, quick: bool = False
                       ) -> Dict[str, object]:
    """Fabric leg: overhead ceiling plus a kill-resume scenario.

    Runs the pinned sweep through plain ``run_specs`` and through
    ``run_specs_fabric`` (same worker count, best of ``repeat`` each),
    asserts the merged summaries compare equal, and fails the bench if
    the fabric's overhead exceeds its ceiling.  Then SIGKILLs a worker
    mid-sweep (seeded :class:`~repro.faults.WorkerKill`, retry budget
    0 so the shard quarantines), resumes from the sweep directory, and
    asserts the resumed merge is bit-identical too.
    """
    from dataclasses import replace
    from tempfile import TemporaryDirectory

    from repro.experiments.fabric import (SweepIncomplete, resume_sweep,
                                          run_specs_fabric)
    from repro.faults import WorkerKill

    cpus = os.cpu_count() or 1
    if workers is None:
        workers = min(4, cpus) if cpus > 1 else 2
    specs = [replace(PARALLEL_SWEEP, seed=s) for s in range(n_seeds)]
    n_shards = -(-n_seeds // FABRIC_SHARD_SIZE)

    plain_s = None
    plain = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()  # simlint: disable=SL002 -- benchmark measures real wall-time by design
        result = run_specs(specs, workers=workers)
        wall = time.perf_counter() - start  # simlint: disable=SL002 -- see above
        if plain_s is None or wall < plain_s:
            plain_s, plain = wall, result

    fabric_s = None
    fabric = None
    for _ in range(max(1, repeat)):
        with TemporaryDirectory() as tmp:
            start = time.perf_counter()  # simlint: disable=SL002 -- see above
            result = run_specs_fabric(specs, workers=workers,
                                      sweep_dir=tmp,
                                      shard_size=FABRIC_SHARD_SIZE)
            wall = time.perf_counter() - start  # simlint: disable=SL002 -- see above
        if fabric_s is None or wall < fabric_s:
            fabric_s, fabric = wall, result

    identical = fabric == plain
    if not identical:  # pragma: no cover - would be a fabric bug
        raise AssertionError(
            "fabric sweep diverged from plain run_specs — merge broken")
    overhead = fabric_s / plain_s
    limit = FABRIC_OVERHEAD_LIMIT_QUICK if quick else FABRIC_OVERHEAD_LIMIT
    if overhead > limit:
        raise AssertionError(
            f"sweep fabric overhead {overhead:.2f}x exceeds the "
            f"{limit:.2f}x ceiling ({fabric_s:.3f}s vs {plain_s:.3f}s "
            f"for {n_seeds} runs / {n_shards} shards)")

    with TemporaryDirectory() as tmp:
        kill = WorkerKill(prob=1.0, seed=5, shard_indices=(0,))
        quarantined = 0
        try:
            run_specs_fabric(specs, workers=workers, sweep_dir=tmp,
                             shard_size=FABRIC_SHARD_SIZE,
                             retry_budget=0, worker_kill=kill)
        except SweepIncomplete as exc:
            quarantined = len(exc.quarantined)
        if not quarantined:  # pragma: no cover - would be a kill bug
            raise AssertionError(
                "WorkerKill injection did not quarantine any shard")
        resumed = resume_sweep(tmp, workers=workers)
    resumed_identical = resumed == plain
    if not resumed_identical:  # pragma: no cover - fabric bug
        raise AssertionError(
            "kill-resume sweep diverged from plain run_specs")
    return {
        "runs": n_seeds,
        "shards": n_shards,
        "workers": workers,
        "plain_s": round(plain_s, 3),
        "fabric_s": round(fabric_s, 3),
        "overhead": round(overhead, 3),
        "limit": limit,
        "identical": identical,
        "kill_resume": {
            "killed_shard": 0,
            "quarantined": quarantined,
            "resumed_identical": resumed_identical,
        },
    }


#: Flash-crowd sizes for the scale leg; quick mode (the CI
#: bench smoke) runs only the smallest.
CROWD_SIZES = (1_000, 10_000, 100_000)
CROWD_SIZES_QUICK = (1_000,)

#: Above this population tracemalloc's per-allocation traces would
#: cost more memory than the swarm itself, so the leg switches from
#: tracemalloc peak to the process RSS delta.
CROWD_TRACEMALLOC_MAX = 10_000

#: The crowd scenario: a pure flash arrival of compliant T-Chain
#: leechers on a small file, default configuration — this leg exists
#: to keep 100k peers on one host feasible and measured.
CROWD_SPEC = dict(protocol="tchain", seed=7, pieces=4,
                  piece_size_kb=64.0, freerider_fraction=0.0,
                  arrival="flash")


def bench_tchain_crowd(quick: bool = False,
                       sizes: Optional[tuple] = None
                       ) -> List[Dict[str, object]]:
    """Scale leg: T-Chain flash crowds, default configuration.

    Each size runs once (a 100k-peer swarm is its own repetition),
    must complete — every leecher finishes the file — and reports
    peers/sec plus peak bytes-per-peer.  Memory is tracemalloc's peak
    for the sizes where tracing is affordable and the ``ru_maxrss``
    delta at the top size.
    """
    import resource
    import tracemalloc

    from repro.experiments import run_swarm

    if sizes is None:
        sizes = CROWD_SIZES_QUICK if quick else CROWD_SIZES
    rows: List[Dict[str, object]] = []
    for leechers in sizes:
        traced = leechers <= CROWD_TRACEMALLOC_MAX
        if traced:
            tracemalloc.start()
        rss_before_kb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        start = time.perf_counter()  # simlint: disable=SL002 -- benchmark measures real wall-time by design
        result = run_swarm(leechers=leechers, **CROWD_SPEC)
        wall = time.perf_counter() - start  # simlint: disable=SL002 -- see above
        if traced:
            _, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            memory_source = "tracemalloc_peak"
        else:
            rss_after_kb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
            peak_bytes = (rss_after_kb - rss_before_kb) * 1024
            memory_source = "rss_delta"
        finished = sum(1 for rec in result.metrics.records
                       if rec.kind == "leecher"
                       and rec.finish_time is not None)
        if finished != leechers:  # pragma: no cover - would be a bug
            raise AssertionError(
                f"tchain_crowd({leechers}): only {finished} leechers "
                f"completed — the crowd did not finish")
        rows.append({
            "leechers": leechers,
            "completed": finished,
            "events_fired": result.swarm.sim.events_fired,
            "wall_time_s": round(wall, 2),
            "peers_per_second": round(leechers / wall, 1),
            "peak_bytes": int(peak_bytes),
            "bytes_per_peer": round(peak_bytes / leechers),
            "memory_source": memory_source,
        })
    return rows


#: Churn scenario for the pooled-vs-unpooled trace diff: free-riders
#: whitewash and leechers leave on completion.
CHURN_SPEC = dict(protocol="tchain", seed=7, leechers=12,
                  pieces=8, freerider_fraction=0.25)

#: Crowd sizes for the allocation-audit leg.  Smaller ceiling than the
#: scale leg: every size runs twice (pooled / unpooled) under the
#: profiler, whose per-event tracemalloc reads dominate at 100k.
ALLOC_AUDIT_SIZES = (1_000, 10_000)
ALLOC_AUDIT_SIZES_QUICK = (1_000,)


def bench_alloc_audit(quick: bool = False,
                      sizes: Optional[tuple] = None
                      ) -> Dict[str, object]:
    """Allocation-audit leg: profiler numbers pooled vs unpooled.

    Runs the pinned crowd scenario under ``profile="alloc"`` twice per
    size — with the EventHandle free-list and the plain-piece message
    pool enabled (the defaults) and with both disabled — and reports
    bytes/event and allocs/event each way plus the drop the pools buy.
    Asserts the two runs fire the same number of events, then replays
    the churn scenario (free-riders, departures) both ways with a
    trace observer and asserts the full ``(time, seq, callback)``
    traces compare bit-identical: the pools must never perturb the
    simulation, only its allocator traffic.
    """
    from repro.experiments import run_swarm

    if sizes is None:
        sizes = ALLOC_AUDIT_SIZES_QUICK if quick else ALLOC_AUDIT_SIZES

    def profiled(leechers: int, pooled: bool) -> Dict[str, object]:
        extra = {} if pooled else {"pool_events": False,
                                   "pool_messages": False}
        start = time.perf_counter()  # simlint: disable=SL002 -- benchmark measures real wall-time by design
        result = run_swarm(leechers=leechers, extra=extra,
                           profile="alloc", **CROWD_SPEC)
        wall = time.perf_counter() - start  # simlint: disable=SL002 -- see above
        prof = result.swarm.sim.profile
        return {
            "events": prof.events,
            "bytes_per_event": round(prof.bytes_per_event(), 1),
            "allocs_per_event": round(prof.allocs_per_event(), 2),
            "wall_time_s": round(wall, 2),
        }

    rows: List[Dict[str, object]] = []
    for leechers in sizes:
        pooled = profiled(leechers, pooled=True)
        unpooled = profiled(leechers, pooled=False)
        if pooled["events"] != unpooled["events"]:  # pragma: no cover
            raise AssertionError(
                f"alloc_audit({leechers}): pooled run fired "
                f"{pooled['events']} events, unpooled "
                f"{unpooled['events']} — pools perturbed the run")
        rows.append({
            "leechers": leechers,
            "events": pooled["events"],
            "pooled": pooled,
            "unpooled": unpooled,
            "bytes_per_event_drop": round(
                1.0 - pooled["bytes_per_event"]
                / unpooled["bytes_per_event"], 3)
            if unpooled["bytes_per_event"] else None,
            "allocs_per_event_drop": round(
                1.0 - pooled["allocs_per_event"]
                / unpooled["allocs_per_event"], 3)
            if unpooled["allocs_per_event"] else None,
        })

    def traced(pooled: bool) -> List[tuple]:
        trace: List[tuple] = []

        def setup(swarm):
            swarm.sim.add_observer(
                lambda handle: trace.append(
                    (handle.time, handle.seq,
                     getattr(handle.callback, "__qualname__",
                             repr(handle.callback)))))

        extra = {} if pooled else {"pool_events": False,
                                   "pool_messages": False}
        run_swarm(setup=setup, extra=extra, **CHURN_SPEC)
        return trace

    pooled_trace = traced(True)
    unpooled_trace = traced(False)
    if pooled_trace != unpooled_trace:  # pragma: no cover - pool bug
        raise AssertionError(
            "pooled run diverged from unpooled — trace neutrality "
            "of the allocation fixes broken")
    return {
        "scenario": dict(CROWD_SPEC),
        "sizes": rows,
        "trace_neutrality": {
            "scenario": dict(CHURN_SPEC),
            "events_compared": len(pooled_trace),
            "identical": True,
        },
    }


#: Scenario for the substrate leg: big enough that the per-event
#: ``net is None`` checks and route/fate lookups show up in the wall
#: time, small enough to keep the bench fast.
NET_SUBSTRATE_SPEC = dict(protocol="tchain", seed=7, leechers=48,
                          pieces=24)

#: The substrate leg's WAN scenario (same shape as docs/NETWORK.md).
NET_WAN_SPEC = {"topology": "multi_dc", "loss": 0.02,
                "jitter_ms": 10.0}


def bench_net_substrate(repeat: int = 7) -> Dict[str, object]:
    """Network-substrate leg: idle-substrate neutrality + WAN cost.

    Three runs of the same T-Chain scenario: the flat model, an
    attached-but-idle substrate (all-zero star — must be bit-identical
    to flat, asserted on the full event trace), and a lossy multi-DC
    WAN.  Reports the idle-substrate overhead ratio (the price every
    flat-model run pays for the ``net is None`` checks plus the price
    of an inert model; the acceptance bar is <= 5%) and the WAN
    slowdown (real routing, loss draws and latency floors).
    """
    from repro.experiments import run_swarm

    def traced(extra: Dict[str, object]) -> Tuple[List[tuple], float]:
        trace: List[tuple] = []

        def setup(swarm):
            swarm.sim.add_observer(
                lambda handle: trace.append(
                    (handle.time, handle.seq,
                     getattr(handle.callback, "__qualname__",
                             repr(handle.callback)))))

        # The walls are short (~0.2 s), so a cyclic-GC pass landing in
        # one variant but not the other would swamp the few-percent
        # signal the overhead ratio gates.  Collect up front, pause GC
        # for the timed region (same hygiene as AllocProfile), resume
        # after.
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()  # simlint: disable=SL002 -- benchmark measures real wall-time by design
            run_swarm(setup=setup, extra=extra, **NET_SUBSTRATE_SPEC)
            wall = time.perf_counter() - start  # simlint: disable=SL002 -- see above
        finally:
            if gc_was_enabled:
                gc.enable()
        return trace, wall

    idle_spec = {"topology": "star", "nodes": 4}
    flat_wall = idle_wall = wan_wall = None
    flat_trace = idle_trace = wan_trace = None
    for _ in range(max(1, repeat)):
        trace, wall = traced({})
        if flat_wall is None or wall < flat_wall:
            flat_trace, flat_wall = trace, wall
        trace, wall = traced({"net": dict(idle_spec)})
        if idle_wall is None or wall < idle_wall:
            idle_trace, idle_wall = trace, wall
        trace, wall = traced({"net": dict(NET_WAN_SPEC)})
        if wan_wall is None or wall < wan_wall:
            wan_trace, wan_wall = trace, wall
    if flat_trace != idle_trace:  # pragma: no cover - substrate bug
        raise AssertionError(
            "idle-substrate run diverged from the flat model — "
            "trace neutrality broken")
    return {
        "scenario": dict(NET_SUBSTRATE_SPEC),
        "events_compared": len(flat_trace),
        "identical": True,
        "flat_wall_s": round(flat_wall, 4),
        "idle_substrate_wall_s": round(idle_wall, 4),
        "idle_overhead_ratio": round(idle_wall / flat_wall, 4),
        "wan": {
            "spec": dict(NET_WAN_SPEC),
            "wall_time_s": round(wan_wall, 4),
            "events": len(wan_trace),
        },
    }


def bench_lint_deep(paths: tuple = ("src",)) -> Dict[str, object]:
    """Cold-vs-cached smoke of ``repro lint --deep``.

    The cold run pays parsing, per-file rules, protocol conformance
    and the whole-program taint, races and simheat passes; the warm
    run should be dominated by hashing the unchanged files and
    replaying cached findings.  A collapsing cold/warm ratio is the
    analyzer-regression signal this entry exists to surface; the
    per-pass breakdown (``stats["timings"]``) says *which* pass
    regressed.
    """
    from tempfile import TemporaryDirectory

    from repro.devtools.deep import run_deep

    targets = [p for p in paths if os.path.exists(p)]
    if not targets:  # bench invoked outside the repo root
        return {"skipped": f"none of {list(paths)} exist here"}
    with TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "simlint-cache.json")
        start = time.perf_counter()  # simlint: disable=SL002 -- benchmark measures real wall-time by design
        cold = run_deep(targets, cache_path=cache)
        cold_s = time.perf_counter() - start  # simlint: disable=SL002 -- see above
        start = time.perf_counter()  # simlint: disable=SL002 -- see above
        warm = run_deep(targets, cache_path=cache)
        warm_s = time.perf_counter() - start  # simlint: disable=SL002 -- see above
    if not warm.stats["taint_reused"]:  # pragma: no cover - cache bug
        raise AssertionError("warm --deep run did not hit the cache")
    if not warm.stats["simheat_reused"]:  # pragma: no cover - cache bug
        raise AssertionError("warm --deep run re-ran the simheat pass")
    return {
        "paths": targets,
        "files": cold.stats["files"],
        "findings": len(cold.findings),
        "cold_s": round(cold_s, 3),
        "cached_s": round(warm_s, 3),
        "speedup": round(cold_s / warm_s, 1) if warm_s else None,
        "cold_pass_timings_s": dict(cold.stats["timings"]),
        "cached_pass_timings_s": dict(warm.stats["timings"]),
    }


#: Scenario for the simrace runtime-overhead leg.  Small on purpose:
#: it runs three times (plain / sanitizer / sanitizer + race reporter).
SIMRACE_SPEC = dict(protocol="tchain", seed=11, leechers=10, pieces=8,
                    freerider_fraction=0.2)


def bench_simrace() -> Dict[str, object]:
    """simrace cost model: static pass timing plus runtime overhead.

    Static half: build the project index over ``src`` and time one
    whole-program :func:`repro.devtools.races.run_races` pass cold,
    then verify through a cold/warm ``run_deep`` pair that the races
    findings replay from the cache (``races_reused``).

    Runtime half: the same small T-Chain swarm three ways — plain
    (observer-free fast path), fair-exchange sanitizer, sanitizer plus
    :class:`~repro.devtools.sanitizer.RaceReporter` — reporting the
    overhead ratios.  It *asserts* the plain run attaches nothing
    (fast path untouched when disabled), that the reporter's class
    patches are gone afterwards, and that all three runs fire the
    same number of events (the reporter only observes, never
    perturbs).
    """
    from tempfile import TemporaryDirectory

    from repro.devtools import sanitizer as sanitizer_mod
    from repro.devtools.analyzer import iter_python_files
    from repro.devtools.callgraph import ProjectIndex
    from repro.devtools.deep import run_deep
    from repro.devtools.races import run_races
    from repro.experiments.runner import run_swarm

    if not os.path.exists("src"):  # bench invoked outside the repo root
        static: Dict[str, object] = {"skipped": "src does not exist here"}
    else:
        files = iter_python_files(["src"])
        sources = []
        for path in files:
            with open(path, "r", encoding="utf-8") as fh:
                sources.append((path, fh.read()))
        start = time.perf_counter()  # simlint: disable=SL002 -- benchmark measures real wall-time by design
        index = ProjectIndex.build(sources)
        index_s = time.perf_counter() - start  # simlint: disable=SL002 -- see above
        start = time.perf_counter()  # simlint: disable=SL002 -- see above
        findings = run_races(index)
        races_s = time.perf_counter() - start  # simlint: disable=SL002 -- see above
        with TemporaryDirectory() as tmp:
            cache = os.path.join(tmp, "simlint-cache.json")
            run_deep(["src"], cache_path=cache)
            start = time.perf_counter()  # simlint: disable=SL002 -- see above
            warm = run_deep(["src"], cache_path=cache)
            warm_s = time.perf_counter() - start  # simlint: disable=SL002 -- see above
        if not warm.stats["races_reused"]:  # pragma: no cover - cache bug
            raise AssertionError("warm --deep run re-ran the races pass")
        static = {
            "files": len(files),
            "findings": len(findings),
            "index_build_s": round(index_s, 3),
            "races_pass_s": round(races_s, 3),
            "deep_cached_s": round(warm_s, 3),
        }

    def timed(sanitize):
        start = time.perf_counter()  # simlint: disable=SL002 -- benchmark measures real wall-time by design
        result = run_swarm(sanitize=sanitize, **SIMRACE_SPEC)
        return result, time.perf_counter() - start  # simlint: disable=SL002 -- see above

    plain, plain_s = timed(False)
    sanitized, sanitized_s = timed(True)
    raced, raced_s = timed("races")
    sim = plain.swarm.sim
    if sim.sanitizer is not None or sim.races is not None:
        raise AssertionError(
            "plain run attached instrumentation — fast path not clean")
    if sanitizer_mod._PATCHED:  # pragma: no cover - uninstall bug
        raise AssertionError(
            "race reporter left classes patched after the run")
    fired = {r.swarm.sim.events_fired for r in (plain, sanitized, raced)}
    if len(fired) != 1:  # pragma: no cover - reporter perturbed the run
        raise AssertionError(
            f"instrumented runs diverged in event count: {fired}")
    return {
        "static": static,
        "scenario": dict(SIMRACE_SPEC),
        "events_fired": plain.swarm.sim.events_fired,
        "plain_s": round(plain_s, 3),
        "sanitize_s": round(sanitized_s, 3),
        "races_s": round(raced_s, 3),
        "sanitize_overhead": round(sanitized_s / plain_s, 2),
        "races_overhead_vs_sanitize": round(raced_s / sanitized_s, 2),
        "conflicts_observed": raced.swarm.sim.races.total_conflicts,
    }


def run_bench(quick: bool = False, repeat: int = 3,
              workers: Optional[int] = None) -> Dict[str, object]:
    """Execute the full benchmark matrix and return the report dict."""
    if quick:
        repeat = 1
        engine_events = ENGINE_EVENTS_QUICK
        scenarios = QUICK_SCENARIOS
        n_seeds = PARALLEL_SEEDS_QUICK
    else:
        engine_events = ENGINE_EVENTS
        scenarios = SCENARIOS
        n_seeds = PARALLEL_SEEDS
    engine = None
    for _ in range(max(1, repeat)):
        sample = bench_engine(n_events=engine_events)
        if engine is None or sample["wall_time_s"] < engine["wall_time_s"]:
            engine = sample
    return {
        "benchmark": "repro bench",
        "quick": quick,
        "repeat": repeat,
        "cpu_count": os.cpu_count() or 1,
        "default_workers": resolve_workers(workers),
        "baseline_pre_pr3": dict(BASELINE_PRE_PR3),
        "engine": engine,
        "scenarios": bench_scenarios(scenarios, repeat=repeat),
        "parallel": bench_parallel(n_seeds, workers=workers),
        "sweep_fabric": bench_sweep_fabric(n_seeds, workers=workers,
                                           repeat=repeat, quick=quick),
        "tchain_crowd": bench_tchain_crowd(quick=quick),
        "alloc_audit": bench_alloc_audit(quick=quick),
        # The substrate walls are short, so this leg takes more
        # best-of repeats than the heavyweight legs to keep the
        # overhead ratio out of scheduler-noise territory.
        "net_substrate": bench_net_substrate(repeat=max(repeat, 7)),
        "lint_deep": bench_lint_deep(),
        "simrace": bench_simrace(),
    }


def write_report(report: Dict[str, object], path: str) -> str:
    """Write the report as pretty JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:  # simlint: disable=SL011 -- bench report artifact, not sweep state
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path
