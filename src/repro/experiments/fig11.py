"""Figure 11: who initiates chains — the seeder or opportunistic
leechers.

(a) Flash crowd, no free-riders: the cumulative number of chains
created by the seeder versus by leechers over time.  Opportunistic
seeding is concentrated at the start, when the seeder alone cannot
feed the crowd; afterwards reciprocation keeps upload capacity busy
and the leecher-initiated rate falls toward zero.

(b) Continuous trace, free-rider share swept: the *fraction* of
chains created by opportunistic seeding grows with the free-rider
share, because every act of free-riding kills a chain that leechers
then replace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.reporting import format_series, format_table
from repro.analysis.stats import summarize
from repro.experiments.config import ExperimentScale
from repro.experiments.parallel import (RunSpec, RunSummary, grid_specs,
                                        per_cell)

BASE_LEECHERS = 60
BASE_PIECES = 32
FRACTIONS = (0.0, 0.1, 0.25, 0.5)


@dataclass
class CumulativeChains:
    """Sampled (time, by seeder, by leechers) triples."""

    samples: List[Tuple[float, int, int]]

    def final_counts(self) -> Tuple[int, int]:
        """(seeder, leechers) cumulative chains at the end."""
        if not self.samples:
            return (0, 0)
        _, seeder, leechers = self.samples[-1]
        return seeder, leechers


@dataclass
class OpportunisticRow:
    """One Fig. 11(b) point."""

    freerider_fraction: float
    opportunistic_fraction: float
    ci95: float


def grid(scale: ExperimentScale) -> List[RunSpec]:
    """The Fig. 11(a) flash crowd (recording the ``initiators``
    series), then the Fig. 11(b) trace specs."""
    leechers = scale.swarm(BASE_LEECHERS)
    pieces = scale.pieces(BASE_PIECES)
    flash = RunSpec(protocol="tchain", leechers=leechers, pieces=pieces,
                    seed=scale.root_seed, series=("initiators",))
    return [flash] + grid_specs(
        "fig11b/{freerider_fraction}",
        [dict(protocol="tchain", leechers=leechers, pieces=pieces,
              freerider_fraction=fraction, arrival="trace",
              trace_horizon_s=300.0) for fraction in FRACTIONS], scale)


def reduce(scale: ExperimentScale, summaries: Sequence[RunSummary]
           ) -> Tuple[CumulativeChains, List[OpportunisticRow]]:
    """The cumulative chain counts and the Fig. 11(b) rows."""
    flash, *rest = summaries
    rows = []
    for fraction, results in zip(FRACTIONS, per_cell(rest, scale)):
        shares = summarize([r.chain_stats.opportunistic_fraction
                            for r in results])
        rows.append(OpportunisticRow(
            freerider_fraction=fraction,
            opportunistic_fraction=shares.mean,
            ci95=shares.ci95))
    return (CumulativeChains(list(dict(flash.series)["initiators"])),
            rows)


def render(result: Tuple[CumulativeChains, List[OpportunisticRow]]
           ) -> str:
    """Figure 11 as a printed series and table."""
    cumulative, rows = result
    a = format_series(
        "Fig. 11(a) cumulative chains (flash crowd)",
        [(t, f"seeder {s}, leechers {l}")
         for t, s, l in cumulative.samples[:20]],
        x_label="time (s)", y_label="cumulative")
    b = format_table(
        ["free-rider %", "opportunistic chain fraction", "ci95"],
        [(int(r.freerider_fraction * 100), r.opportunistic_fraction,
          r.ci95) for r in rows],
        title="Fig. 11(b) opportunistic seeding share vs free-riders "
              "(trace)")
    return a + "\n\n" + b
