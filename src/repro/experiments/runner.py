"""Build-populate-run harness for swarm experiments.

:func:`run_swarm` assembles one simulated swarm the way Sec. IV-A
describes: one permanent seeder, a population of leechers (optionally
partly free-riding), an arrival model (:data:`ARRIVALS`: flash crowd,
continuous RedHat-9-like trace, or Sec. IV-I's churn, a flash crowd in
which every finisher is replaced by a compliant newcomer until
``max_time``), then runs to completion and returns a
:class:`RunResult` exposing every metric the paper plots, plus the
time series a figure asks for by name (:data:`SERIES`).

Per-protocol piece sizes follow the paper: 256 KB for BitTorrent and
PropShare, 64 KB for T-Chain and FairTorrent (Sec. IV-A).  Passing
``file_mb`` sizes the torrent in those units; passing ``pieces``
fixes the piece count directly (uniform 256 KB pieces) for quick,
protocol-comparable unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.attacks.freerider import FreeRiderOptions, make_freerider
from repro.bt.config import SwarmConfig
from repro.bt.protocols import PROTOCOLS
from repro.bt.swarm import Swarm
from repro.bt.torrent import partial_book
from repro.sim.events import PeriodicTask
from repro.sim.randomness import SeedSequence, substream
from repro.workloads.arrivals import flash_crowd, schedule_arrivals
from repro.workloads.churn import ReplacementChurn
from repro.workloads.trace import redhat9_like_trace

#: The arrival models :func:`run_swarm` accepts.
ARRIVALS = ("flash", "trace", "churn")

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


class RunAccessors:
    """Accessors shared by :class:`RunResult` and the picklable
    :class:`~repro.experiments.parallel.RunSummary`."""

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


@dataclass
class RunResult(RunAccessors):
    """Everything measured in one swarm run."""

    protocol: str
    config: SwarmConfig
    swarm: Swarm
    n_compliant: int
    n_freeriders: int
    #: Requested series values by name (see :data:`SERIES`).
    series: Dict[str, object] = field(default_factory=dict)

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


#: Fig. 6(a)'s crawler compares this many random leecher pairs a sample.
DIVERSITY_PAIRS = 40


def _sampled(interval_s: float, first_delay: Optional[float],
             read: Callable) -> Callable[[Swarm], Callable[[], tuple]]:
    """``read(swarm, rng)`` every ``interval_s`` (``None`` skips one); the
    series' own ``rng`` leaves the run's draws alone."""
    def install(swarm: Swarm) -> Callable[[], tuple]:
        rng = substream(swarm.config.seed, "series")
        samples = []

        def sample():
            value = read(swarm, rng)
            if value is not None:
                samples.append(value)
        PeriodicTask(swarm.sim, interval_s, sample, first_delay=first_delay)
        return lambda: tuple(samples)
    return install


def _chains(swarm: Swarm, rng) -> tuple:
    """Fig. 10: (time, active chains, active leechers)."""
    state = getattr(swarm, "_tchain_state", None)
    return (swarm.sim.now, state.registry.active_count if state else 0,
            swarm.active_leechers)


def _initiators(swarm: Swarm, rng) -> tuple:
    """Fig. 11(a): (time, chains begun by the seeder, by leechers)."""
    state = getattr(swarm, "_tchain_state", None)
    if state is None:
        return (swarm.sim.now, 0, 0)
    return (swarm.sim.now, state.registry.created_by_seeder,
            state.registry.created_by_leechers)


def _diversity(swarm: Swarm, rng) -> Optional[tuple]:
    """Fig. 6(a)'s crawler: (time, mean piece-set difference, pairs) over
    random pairs of active leechers, as a tracker would hand them out."""
    leechers = [p for p in swarm.peers.values() if p.kind == "leecher"]
    if len(leechers) < 2:
        return None
    diffs = [len(a.book.completed ^ b.book.completed) for a, b in
             (rng.sample(leechers, 2) for _ in range(DIVERSITY_PAIRS))]
    return (swarm.sim.now, sum(diffs) / len(diffs), len(diffs))


def _piece_log(swarm: Swarm) -> Callable[[], tuple]:
    """Fig. 5: (uplink Kbps, join time, piece log) of each departed
    leecher that logged a piece, in departure order.  Only a run that
    asks for this series has T-Chain leechers log pieces at all."""
    logs = []

    def departed(peer) -> None:
        log = getattr(peer, "piece_log", None)
        if peer.kind == "leecher" and log:
            logs.append((peer.uplink.capacity_kbps, peer.join_time,
                         tuple(log)))
    swarm.log_pieces = True
    swarm.on_departed = departed
    return lambda: tuple(logs)


#: ``run_swarm(series=...)`` names: each entry installs itself after the
#: seeder joins and returns a finisher, read into ``RunResult.series``.
SERIES: Dict[str, Callable[[Swarm], Callable[[], tuple]]] = {
    "chains": _sampled(5.0, 0.0, _chains),
    "diversity": _sampled(20.0, None, _diversity),
    "initiators": _sampled(5.0, 0.0, _initiators),
    "piece_log": _piece_log,
}


def check_names(protocol: str, arrival: str,
                series: Sequence[str]) -> None:
    """Raise ``ValueError`` for an unknown protocol, arrival model or
    series name (``RunSpec`` checks at construction)."""
    for what, names, known in (("protocol", (protocol,), PROTOCOLS),
                               ("arrival model", (arrival,), ARRIVALS),
                               ("series", series, SERIES)):
        unknown = [name for name in names if name not in known]
        if unknown:
            raise ValueError(f"unknown {what} {unknown}; "
                             f"choose from {sorted(known)}")


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
              series: Sequence[str] = (),
              setup: Optional[Callable[[Swarm], None]] = None,
              sanitize: bool = False,
              fault_plan=None,
              **config_overrides) -> RunResult:
    """Run one full swarm simulation.

    Parameters mirror the paper's experimental knobs; see Sec. IV-A.
    ``series`` names the :data:`SERIES` to record.  ``setup(swarm)``
    runs after the seeder joins, before arrivals: the in-process seam
    tests attach engine sinks through (``swarm.sim.add_observer``; no
    ``RunSpec`` can carry it).
    ``sanitize`` runs the whole swarm under the simulation sanitizer
    (see :mod:`repro.devtools.sanitizer`).  ``fault_plan``
    attaches a :class:`repro.faults.FaultPlan` through a fresh
    :class:`~repro.faults.FaultInjector`; an idle plan leaves the
    event trace bit-identical to a run without one (docs/FAULTS.md).
    """
    check_names(protocol, arrival, series)
    if freerider_options is None:
        # Constructed per call: a shared default instance would let a
        # caller's mutation (or a future non-frozen options class)
        # leak strategy flags across unrelated runs.
        freerider_options = FreeRiderOptions()
    config = build_config(protocol, file_mb=file_mb, pieces=pieces,
                          piece_size_kb=piece_size_kb, seed=seed,
                          **config_overrides)
    swarm = Swarm(config, sanitize=sanitize)
    if fault_plan is not None:
        from repro.faults.injector import FaultInjector
        FaultInjector(fault_plan, seed=config.seed).attach(swarm)
    seeder_cls, leecher_cls = PROTOCOLS[protocol]
    seeder = seeder_cls(swarm)
    seeder.join()
    finishers = {name: SERIES[name](swarm) for name in series}
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

    if arrival == "trace":
        schedule = redhat9_like_trace(factories, swarm.sim.rng,
                                      horizon_s=trace_horizon_s)
    else:
        schedule = flash_crowd(factories, swarm.sim.rng)
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
    if arrival == "churn":
        # A pending replacement counts as a pending arrival, so the
        # swarm cannot drain before the horizon.
        ReplacementChurn(swarm, compliant_factory, horizon_s=max_time)

    swarm.run(max_time=max_time)
    swarm.metrics.finalize_active(swarm)
    return RunResult(protocol=protocol, config=config, swarm=swarm,
                     n_compliant=n_compliant, n_freeriders=n_free,
                     series={name: finish()
                             for name, finish in finishers.items()})


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
