"""Build-populate-run harness for swarm experiments.

:func:`run_swarm` assembles one simulated swarm the way Sec. IV-A
describes: one permanent seeder, a population of leechers (optionally
partly free-riding), an arrival model (flash crowd or continuous
RedHat-9-like trace), then runs to completion and returns a
:class:`RunResult` exposing every metric the paper plots.

Per-protocol piece sizes follow the paper: 256 KB for BitTorrent and
PropShare, 64 KB for T-Chain and FairTorrent (Sec. IV-A).  Passing
``file_mb`` sizes the torrent in those units; passing ``pieces``
fixes the piece count directly (uniform 256 KB pieces) for quick,
protocol-comparable unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.stats import Summary, summarize
from repro.attacks.freerider import FreeRiderOptions, make_freerider
from repro.bt.config import SwarmConfig
from repro.bt.protocols import PROTOCOLS
from repro.bt.swarm import Swarm
from repro.bt.torrent import partial_book
from repro.sim.randomness import SeedSequence
from repro.workloads.arrivals import flash_crowd, schedule_arrivals
from repro.workloads.trace import redhat9_like_trace

#: Paper piece sizes per protocol (Sec. IV-A).
PIECE_SIZE_KB = {
    "bittorrent": 256.0,
    "propshare": 256.0,
    "random": 256.0,
    "eigentrust": 256.0,
    "dandelion": 256.0,
    "fairtorrent": 64.0,
    "tchain": 64.0,
}


def optimal_completion_time(file_kb: float, seeder_kbps: float,
                            leecher_kbps: Sequence[float]) -> float:
    """Fluid lower bound on mean completion time (the "Optimal" line
    of Fig. 3, after Bharambe et al. [27] / Kumar-Ross).

    With unconstrained downlinks the binding constraints are the
    seeder's uplink and the swarm-wide average upload capacity.
    """
    n = len(leecher_kbps)
    if n == 0:
        return 0.0
    file_kbit = file_kb * 8.0
    aggregate = (seeder_kbps + sum(leecher_kbps)) / n
    return file_kbit / min(seeder_kbps, aggregate)


@dataclass
class RunResult:
    """Everything measured in one swarm run."""

    protocol: str
    config: SwarmConfig
    swarm: Swarm
    n_compliant: int
    n_freeriders: int

    @property
    def metrics(self):
        """The swarm's metric records."""
        return self.swarm.metrics

    @property
    def tchain_state(self):
        """T-Chain shared state (ledger, chains) or None."""
        return getattr(self.swarm, "_tchain_state", None)

    @property
    def stop_reason(self) -> Optional[str]:
        """Why the run ended: ``"max_time"``, ``"drained"``,
        ``"quiescent"`` or ``"heap_empty"`` (see ``Swarm.run``)."""
        return self.swarm.stop_reason

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
        capacities = [r.capacity_kbps for r in self.metrics.records
                      if r.kind == "leecher"]
        return optimal_completion_time(
            self.config.n_pieces * self.config.piece_size_kb,
            self.config.seeder_capacity_kbps, capacities)

    def summary(self, wall_time_s: float = 0.0):
        """The picklable :class:`~repro.experiments.parallel.RunSummary`
        slice of this result (what sweeps return)."""
        from repro.experiments.parallel import summarize_run
        return summarize_run(self, wall_time_s=wall_time_s)


def build_config(protocol: str,
                 file_mb: Optional[float] = None,
                 pieces: Optional[int] = None,
                 piece_size_kb: Optional[float] = None,
                 seed: int = 0,
                 **overrides) -> SwarmConfig:
    """A :class:`SwarmConfig` with paper piece sizing for a protocol."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; "
                         f"choose from {sorted(PROTOCOLS)}")
    if file_mb is not None:
        size_kb = piece_size_kb if piece_size_kb is not None \
            else PIECE_SIZE_KB[protocol]
        n_pieces = max(1, round(file_mb * 1024.0 / size_kb))
    else:
        n_pieces = pieces if pieces is not None else 32
        size_kb = piece_size_kb if piece_size_kb is not None else 256.0
    return SwarmConfig(n_pieces=n_pieces, piece_size_kb=size_kb,
                       seed=seed, **overrides)


def run_swarm(protocol: str = "tchain",
              leechers: int = 40,
              freerider_fraction: float = 0.0,
              seed: int = 0,
              arrival: str = "flash",
              file_mb: Optional[float] = None,
              pieces: Optional[int] = None,
              piece_size_kb: Optional[float] = None,
              max_time: Optional[float] = None,
              freerider_options: Optional[FreeRiderOptions] = None,
              initial_piece_fraction: float = 0.0,
              trace_horizon_s: float = 2000.0,
              config: Optional[SwarmConfig] = None,
              setup: Optional[Callable[[Swarm], None]] = None,
              sanitize: object = False,
              profile: object = False,
              fault_plan=None,
              **config_overrides) -> RunResult:
    """Run one full swarm simulation.

    Parameters mirror the paper's experimental knobs; see Sec. IV-A.
    ``setup`` runs after the seeder joins but before leecher arrivals
    (used by experiments that need custom instrumentation).
    ``sanitize`` runs the whole swarm under the simulation sanitizer
    (see :mod:`repro.devtools.sanitizer`); the string ``"races"``
    additionally attaches the same-instant order-sensitivity reporter
    (:class:`~repro.devtools.sanitizer.RaceReporter`, the runtime
    counterpart of the SL2xx static checks).  ``profile="alloc"``
    attaches the engine's per-event allocation profiler
    (:class:`~repro.sim.engine.AllocProfile`, read back via
    ``result.swarm.sim.profile`` — the runner closes it after the run
    so tracemalloc does not keep taxing the process).  ``fault_plan``
    attaches a :class:`repro.faults.FaultPlan` through a fresh
    :class:`~repro.faults.FaultInjector`; an idle plan leaves the
    event trace bit-identical to a run without one (docs/FAULTS.md).
    """
    if freerider_options is None:
        # Constructed per call: a shared default instance would let a
        # caller's mutation (or a future non-frozen options class)
        # leak strategy flags across unrelated runs.
        freerider_options = FreeRiderOptions()
    if config is None:
        config = build_config(protocol, file_mb=file_mb, pieces=pieces,
                              piece_size_kb=piece_size_kb, seed=seed,
                              **config_overrides)
    swarm = Swarm(config, sanitize=sanitize, profile=profile)
    if fault_plan is not None:
        from repro.faults.injector import FaultInjector
        FaultInjector(fault_plan, seed=config.seed).attach(swarm)
    seeder_cls, leecher_cls = PROTOCOLS[protocol]
    seeder = seeder_cls(swarm)
    seeder.join()
    if setup is not None:
        setup(swarm)

    n_free = round(freerider_fraction * leechers)
    n_compliant = leechers - n_free
    freerider_cls = make_freerider(leecher_cls, freerider_options)

    def compliant_factory():
        peer = leecher_cls(swarm)
        if initial_piece_fraction > 0:
            peer.book = partial_book(swarm.torrent,
                                     initial_piece_fraction,
                                     swarm.sim.rng)
        return peer

    factories: List[Callable] = [compliant_factory] * n_compliant
    factories += [lambda: freerider_cls(swarm)] * n_free
    swarm.sim.rng.shuffle(factories)

    if arrival == "flash":
        schedule = flash_crowd(factories, swarm.sim.rng)
    elif arrival == "trace":
        schedule = redhat9_like_trace(factories, swarm.sim.rng,
                                      horizon_s=trace_horizon_s)
    else:
        raise ValueError(f"unknown arrival model {arrival!r}")
    schedule_arrivals(swarm, schedule)

    if max_time is None:
        # Generous default: enough for the slowest compliant leechers
        # plus a long tail for free-riders in exploitable protocols.
        per_leecher = [min(config.leecher_capacities_kbps)] * max(
            leechers, 1)
        max_time = 60.0 * max(optimal_completion_time(
            config.n_pieces * config.piece_size_kb,
            config.seeder_capacity_kbps, per_leecher), 10.0)
        max_time += schedule.last_arrival

    try:
        swarm.run(max_time=max_time)
        swarm.metrics.finalize_active(swarm)
    finally:
        # The race reporter patches watched *classes*; unpatch even on
        # a sanitizer abort so later runs in this process are clean.
        if swarm.sim.races is not None:
            swarm.sim.races.uninstall()
        # Stop an owned tracemalloc tracer; the collected per-event
        # profile stays readable on swarm.sim.profile.
        if swarm.sim.profile is not None:
            swarm.sim.profile.close()
    return RunResult(protocol=protocol, config=config, swarm=swarm,
                     n_compliant=n_compliant, n_freeriders=n_free)


def run_many(seeds: Sequence[int], workers: Optional[int] = None,
             sweep_dir: Optional[str] = None, **kwargs) -> List:
    """Repeat :func:`run_swarm` across seeds: one
    :class:`~repro.experiments.parallel.RunSpec` per seed, executed by
    :func:`~repro.experiments.parallel.run_specs` (which see for
    ``workers`` / ``sweep_dir`` routing).  Returns one
    :class:`~repro.experiments.parallel.RunSummary` per seed, in seed
    order and bit-identical for any worker count.
    """
    from repro.experiments.parallel import RunSpec, run_specs
    specs = [RunSpec.from_kwargs(seed=seed, **kwargs) for seed in seeds]
    return run_specs(specs, workers=workers, sweep_dir=sweep_dir)


def summarize_metric(results: Sequence[RunResult],
                     metric: Callable[[RunResult], Optional[float]]
                     ) -> Optional[Summary]:
    """Mean ± CI of a per-run metric across results."""
    return summarize([metric(r) for r in results])


def compliant_completion_rate(results: Sequence[RunResult]) -> float:
    """Compliant leechers that finished over compliant leechers
    simulated, pooled over every run (NaN when there are none): the
    denominator behind a mean completion time over finishers."""
    records = [record for r in results
               for record in r.metrics.compliant_leechers()]
    if not records:
        return float("nan")
    return sum(record.completed for record in records) / len(records)


def seeds_for(experiment: str, root: int, count: int) -> List[int]:
    """Stable per-experiment seed derivation."""
    return SeedSequence(root, experiment).seeds(count)
