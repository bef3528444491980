"""Figure 12: fairness CDFs.

Fairness factor = pieces downloaded / pieces uploaded per leecher
over its swarm lifetime (Sec. IV-H); the figure plots the CDF over
the last compliant finishers under trace arrivals.

Paper shapes: (a) with no free-riders every method is reasonably
fair, T-Chain and FairTorrent tightest around 1; (b) with 25 %
free-riders only T-Chain keeps a steep CDF near 1 — the baselines
spread out badly because compliant peers upload far more than they
receive back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.reporting import format_table
from repro.analysis.stats import percentile
from repro.experiments.config import ExperimentScale
from repro.experiments.parallel import (RunSpec, RunSummary, grid_specs,
                                        per_cell)

PROTOCOLS = ["bittorrent", "propshare", "fairtorrent", "tchain"]
FRACTIONS = (0.0, 0.25)
BASE_LEECHERS = 60
BASE_PIECES = 24


@dataclass
class FairnessCurve:
    """Pooled fairness factors for one protocol/fraction cell."""

    protocol: str
    freerider_fraction: float
    factors: List[float]

    def spread(self) -> float:
        """90th − 10th percentile: the paper's visual 'steepness'."""
        if len(self.factors) < 2:
            return 0.0
        return (percentile(self.factors, 90)
                - percentile(self.factors, 10))

    def median(self) -> float:
        """Median fairness factor."""
        return percentile(self.factors, 50)


def grid(scale: ExperimentScale) -> List[RunSpec]:
    """One trace-arrival spec per (fraction, protocol, seed)."""
    return grid_specs("fig12/{protocol}/{freerider_fraction}", [
        dict(protocol=protocol, leechers=scale.swarm(BASE_LEECHERS),
             pieces=scale.pieces(BASE_PIECES), freerider_fraction=fraction,
             arrival="trace", trace_horizon_s=300.0)
        for fraction in FRACTIONS for protocol in PROTOCOLS], scale)


def reduce(scale: ExperimentScale, summaries: Sequence[RunSummary]
           ) -> Dict[float, List[FairnessCurve]]:
    """Both panels: fraction -> per-protocol fairness curves."""
    out: Dict[float, List[FairnessCurve]] = {}
    cells = [(f, p) for f in FRACTIONS for p in PROTOCOLS]
    for (fraction, protocol), results in zip(cells,
                                             per_cell(summaries, scale)):
        factors: List[float] = []
        for r in results:
            factors.extend(r.metrics.fairness_factors("leecher"))
        out.setdefault(fraction, []).append(
            FairnessCurve(protocol, fraction, factors))
    return out


def render(curves_by_fraction: Dict[float, List[FairnessCurve]]) -> str:
    """Figure 12 as printed summary tables."""
    blocks = []
    for fraction, curves in sorted(curves_by_fraction.items()):
        blocks.append(format_table(
            ["protocol", "median fairness", "p10-p90 spread", "n"],
            [(c.protocol, c.median(), c.spread(), len(c.factors))
             for c in curves],
            title=(f"Fig. 12 fairness factors, "
                   f"{int(fraction * 100)}% free-riders")))
    return "\n\n".join(blocks)
