"""Figure 10: active chains over time.

(a) Flash crowd: the active-chain count climbs until the fastest
bandwidth class finishes, then falls in a saw-tooth as each class
departs — chain termination tracks leecher departure.
(b) Continuous trace: the chain count rises with the swarm and then
moves in step with the number of active leechers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.reporting import format_series, thin
from repro.experiments.config import ExperimentScale
from repro.experiments.parallel import RunSpec, RunSummary

BASE_LEECHERS = 60
BASE_PIECES = 32
ARRIVALS = ("flash", "trace")


@dataclass
class ChainTimeline:
    """Sampled (time, active chains, active leechers) triples."""

    samples: List[Tuple[float, int, int]]

    def peak_chains(self) -> int:
        """Maximum concurrent chains."""
        return max((c for _, c, _ in self.samples), default=0)

    def chains_at_end(self) -> int:
        """Active chains at the final sample."""
        return self.samples[-1][1] if self.samples else 0


def grid(scale: ExperimentScale) -> List[RunSpec]:
    """One swarm per arrival model, recording the ``chains`` series."""
    return [RunSpec(protocol="tchain", leechers=scale.swarm(BASE_LEECHERS),
                    pieces=scale.pieces(BASE_PIECES), seed=scale.root_seed,
                    arrival=arrival, trace_horizon_s=400.0,
                    series=("chains",))
            for arrival in ARRIVALS]


def reduce(scale: ExperimentScale, summaries: Sequence[RunSummary]
           ) -> Tuple[ChainTimeline, ChainTimeline]:
    """The (flash crowd, trace) timelines."""
    return tuple(ChainTimeline(list(dict(s.series)["chains"]))
                 for s in summaries)


def render(timelines: Tuple[ChainTimeline, ChainTimeline]) -> str:
    """Figure 10 as printed series."""
    flash, trace = timelines
    a = format_series(
        "Fig. 10(a) active chains / leechers (flash crowd)",
        [(t, f"{chains} chains, {leech} leechers")
         for t, chains, leech in thin(flash.samples, 15)],
        x_label="time (s)", y_label="counts")
    b = format_series(
        "Fig. 10(b) active chains / leechers (trace)",
        [(t, f"{chains} chains, {leech} leechers")
         for t, chains, leech in thin(trace.samples, 15)],
        x_label="time (s)", y_label="counts")
    return a + "\n\n" + b
