"""The five benchmark workloads: inputs, public calls, facts, checks.

Every workload drives the simulator through a public entry point with
the default configuration (``run_swarm``, ``execute_spec``,
``run_specs``, ``run_specs_fabric``).  No ``extra`` acceleration flag
is ever set: later PRs delete those flags and a PR that claims a gain
may not edit the benchmark.  The one ``extra`` key used is
``wan_lossy``'s ``net`` spec, the only public way to attach the network
substrate.

``repro`` is imported inside the functions, not at module top, so the
harness can list workloads without it and a repeat can time the import.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Every ``trace_stride``-th spec of a fabric workload is traced
#: in-process; tracing all 200 would triple a 4 s serial leg.
SWEEP_TRACE_STRIDE = 5


@dataclass(frozen=True)
class Workload:
    """One set of inputs, generated from ``--seed``.

    ``kind`` picks the public call: ``"swarm"`` = ``run_swarm`` (live
    result), ``"serial"`` = in-process ``execute_spec`` per spec,
    ``"fabric"`` = ``run_specs_fabric`` over worker processes.
    Specs are the cross product protocols x freeriders x seeds over
    the ``base`` keyword arguments; ``quick`` overrides sizes for the
    self-test.
    """

    name: str
    why: str
    kind: str
    base: Dict[str, Any]
    quick: Dict[str, Any]
    protocols: Tuple[str, ...] = ("tchain",)
    freeriders: Tuple[float, ...] = (0.0,)
    seeds: int = 1
    quick_seeds: int = 1
    trace_stride: int = 1
    #: Workload-specific checks: summaries -> message, or None if fine.
    checks: Tuple[Callable[[Sequence[Any]], Optional[str]], ...] = ()


# ----------------------------------------------------------------------
# Workload-specific correctness checks (a message = the repeat failed)
# ----------------------------------------------------------------------
def all_finish(summaries: Sequence[Any]) -> Optional[str]:
    for s in summaries:
        late = [r.peer_id for r in s.metrics.compliant_leechers()
                if r.finish_time is None]
        if late:
            return f"{len(late)} compliant leecher(s) never finished"
    return None


def tchain_freeriders_last(summaries: Sequence[Any]) -> Optional[str]:
    """T-Chain free-riders finish strictly later than every compliant
    leecher, or not at all (the paper's central claim, Sec. IV-D)."""
    for s in summaries:
        if s.protocol != "tchain":
            continue
        honest = [r.finish_time for r in s.metrics.compliant_leechers()]
        if any(t is None for t in honest):
            return "a compliant T-Chain leecher never finished"
        for rider in s.metrics.freeriders():
            if rider.finish_time is not None \
                    and rider.finish_time <= max(honest):
                return (f"free-rider {rider.peer_id} finished at "
                        f"{rider.finish_time!r}, not after every "
                        f"compliant leecher ({max(honest)!r})")
    return None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fig_mix",
        why=("Sec. IV comparison shape: five protocols x two seeds, 25% "
             "free-riders, flash crowd; protocol decisions and the engine "
             "loop carry the run, setup/topology is small."),
        kind="serial",
        protocols=("tchain", "bittorrent", "propshare", "fairtorrent",
                   "random"),
        freeriders=(0.25,),
        seeds=2,
        base={"leechers": 40, "pieces": 32},
        quick={"leechers": 12, "pieces": 8},
        checks=(tchain_freeriders_last,),
    ),
    Workload(
        name="crowd_1k",
        why=("Bulk join of 1000 T-Chain leechers on 4 pieces: "
             "Swarm.connect, tracker and swarm-state scans dominate and "
             "per-event cost grows with N; also the memory workload."),
        kind="swarm",
        base={"leechers": 1000, "pieces": 4, "piece_size_kb": 64,
              "arrival": "flash"},
        quick={"leechers": 120},
        checks=(all_finish,),
    ),
    Workload(
        name="churn_trace",
        why=("Trace arrivals with 20% free-riders (two seeds): continuous "
             "join / leave / whitewash exercises the swarm-state write "
             "paths and long ledger chains, where crowd_1k exercises reads."),
        kind="swarm",
        freeriders=(0.2,),
        seeds=2,
        base={"leechers": 130, "pieces": 48, "arrival": "trace"},
        quick={"leechers": 24, "pieces": 12},
    ),
    Workload(
        name="wan_lossy",
        why=("Network substrate on (multi-DC, 2% loss, jitter; four seeds): "
             "routing, per-link fates and recovery timers; every other "
             "workload takes the net-is-None fast path."),
        kind="swarm",
        freeriders=(0.2,),
        seeds=4,
        base={"leechers": 60, "pieces": 48,
              "extra": {"net": {"topology": "multi_dc", "loss": 0.02,
                                "jitter_ms": 10.0}}},
        quick={"leechers": 20, "pieces": 12},
    ),
    Workload(
        name="sweep_200",
        why=("200 small specs through the sweep fabric: runs are ~15 ms "
             "each, so pool start-up, pickling, manifest, checkpoints "
             "and merge are a large share of the wall time."),
        kind="fabric",
        protocols=("tchain", "bittorrent", "propshare", "fairtorrent"),
        freeriders=(0.0, 0.25),
        seeds=25,
        quick_seeds=2,
        base={"leechers": 16, "pieces": 12},
        quick={"leechers": 8, "pieces": 6},
        trace_stride=SWEEP_TRACE_STRIDE,
    ),
)}


def sweep_workers() -> int:
    """Worker processes of the fabric workload: ``min(nproc, 4)``."""
    return min(os.cpu_count() or 1, 4)


def build_specs(workload: Workload, seed: int, quick: bool) -> List[Any]:
    """The workload's inputs: ``RunSpec``s derived from ``seed`` only."""
    from repro.experiments import RunSpec
    kwargs = dict(workload.base, **(workload.quick if quick else {}))
    seeds = workload.quick_seeds if quick else workload.seeds
    return [RunSpec.from_kwargs(protocol=protocol, seed=seed + offset,
                                freerider_fraction=fraction, **kwargs)
            for protocol in workload.protocols
            for fraction in workload.freeriders
            for offset in range(seeds)]


def warmup_specs(specs: Sequence[Any]) -> List[Any]:
    """One reduced-size spec per (protocol, free-rider share): every
    code path of the timed run is imported and exercised once."""
    seen = {}
    for spec in specs:
        key = (spec.protocol, spec.freerider_fraction)
        if key not in seen:
            seen[key] = replace(spec, leechers=max(6, spec.leechers // 8))
    return list(seen.values())


def run_one(workload: Workload, spec: Any) -> Any:
    """The in-process public call for one spec."""
    if workload.kind == "swarm":
        from repro.experiments import run_swarm
        return run_swarm(**spec.kwargs())
    from repro.experiments.parallel import execute_spec
    return execute_spec(spec)


def execute(workload: Workload, specs: Sequence[Any],
            sweep_dir: Optional[str] = None) -> List[Any]:
    """The workload's public call(s) — what a timed repeat times."""
    if workload.kind == "fabric":
        from repro.experiments.fabric import run_specs_fabric
        return run_specs_fabric(specs, workers=sweep_workers(),
                                sweep_dir=sweep_dir)
    return [run_one(workload, spec) for spec in specs]


def fresh_sweep_dir(workload: Workload, workdir: str) -> Optional[str]:
    """A new empty sweep directory for a fabric workload, else None."""
    if workload.kind != "fabric":
        return None
    return tempfile.mkdtemp(prefix=workload.name + "-", dir=workdir)


def warm_up(workload: Workload, specs: Sequence[Any],
            workdir: str) -> None:
    """Run the reduced-size warm-up through the same public call."""
    sweep_dir = fresh_sweep_dir(workload, workdir)
    try:
        execute(workload, warmup_specs(specs), sweep_dir)
    finally:
        if sweep_dir is not None:
            shutil.rmtree(sweep_dir, ignore_errors=True)


def to_summaries(results: Sequence[Any], wall_s: float) -> List[Any]:
    """``RunSummary`` per run (live ``RunResult``s are summarized; the
    wall time of a lone ``run_swarm`` call is the timed wall)."""
    return [r.summary(wall_time_s=wall_s / len(results))
            if hasattr(r, "swarm") else r for r in results]


def live_swarms(results: Sequence[Any]) -> List[Any]:
    """The swarms still reachable from the results (``run_swarm`` only)."""
    return [r.swarm for r in results if hasattr(r, "swarm")]


def net_counters(results: Sequence[Any]) -> Dict[str, int]:
    """Summed ``NetCounters`` of the live swarms (empty without one)."""
    total: Dict[str, int] = {}
    for swarm in live_swarms(results):
        net = getattr(swarm, "net", None)
        if net is not None:
            for key, value in net.counters.snapshot().items():
                total[key] = total.get(key, 0) + value
    return total


def facts(summaries: Sequence[Any], net: Dict[str, int]) -> Dict[str, Any]:
    """Simulated outcomes of a run set, plus the ``sim_digest``.

    The digest covers events fired, final simulated time, per-peer
    finish times and the recovery and net counters of every run, so
    two commits that simulate the same thing print the same digest.
    """
    runs = []
    completion: List[float] = []
    utilization: List[float] = []
    recovery: Dict[str, int] = {}
    compliant = unfinished = events = 0
    sim_time = 0.0
    protocol_wall: Dict[str, float] = {}
    for s in summaries:
        if s is None:
            runs.append(None)
            continue
        rows = s.metrics.compliant_leechers()
        compliant += len(rows)
        unfinished += sum(1 for r in rows if r.finish_time is None)
        completion.extend(s.metrics.completion_times("leecher"))
        used = s.mean_utilization("leecher")
        if used is not None:
            utilization.append(used)
        events += s.events_fired
        sim_time += s.sim_time_s
        counters = s.metrics.recovery.as_dict()
        for key, value in counters.items():
            recovery[key] = recovery.get(key, 0) + value
        protocol_wall[s.protocol] = (protocol_wall.get(s.protocol, 0.0)
                                     + s.wall_time_s)
        runs.append([s.protocol, s.seed, s.events_fired,
                     repr(s.sim_time_s),
                     sorted((r.peer_id, repr(r.finish_time))
                            for r in s.metrics.records),
                     counters])
    payload = json.dumps([runs, net], sort_keys=True).encode("utf-8")
    return {
        "sim_digest": hashlib.sha256(payload).hexdigest(),
        "runs": len(summaries),
        "missing_summaries": sum(1 for s in summaries if s is None),
        "events": events,
        "sim_time_s": sim_time,
        "compliant": compliant,
        "unfinished": unfinished,
        "mean_completion_s": (sum(completion) / len(completion)
                              if completion else None),
        "utilization": (sum(utilization) / len(utilization)
                        if utilization else None),
        "recovery": recovery,
        "net": net,
        "protocol_wall_s": protocol_wall,
    }


def check_outputs(workload: Workload, summaries: Sequence[Any],
                  results: Sequence[Any]) -> List[str]:
    """Every failed correctness check of one run set, as messages."""
    problems = []
    missing = sum(1 for s in summaries if s is None)
    if missing:
        return [f"{missing} spec(s) returned no summary"]
    for check in workload.checks:
        message = check(summaries)
        if message:
            problems.append(f"{check.__name__}: {message}")
    for swarm in live_swarms(results):
        if swarm.sim.sanitizer is not None:
            problems.append("a timed run had a sanitizer attached")
        if getattr(swarm.sim, "_observers", None):
            problems.append("a timed run had engine observers attached")
    return problems
