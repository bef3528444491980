"""Figure 3: performance without free-riding.

(a) average download completion time and (b) average uplink
utilization versus swarm size, for BitTorrent, PropShare, FairTorrent
and T-Chain under a flash-crowd arrival with no free-riders, plus the
fluid-optimal line.

Paper shapes to reproduce: all four protocols sit near the optimum
and stay flat as the swarm grows (scalability); T-Chain and
FairTorrent edge out the others on completion time thanks to higher
uplink utilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.reporting import format_table
from repro.analysis.stats import summarize
from repro.experiments.config import ExperimentScale
from repro.experiments.parallel import (RunSpec, RunSummary, grid_specs,
                                        per_cell)

PROTOCOLS = ["bittorrent", "propshare", "fairtorrent", "tchain"]

#: Paper sweep: 200..1000 leechers; bench default scales this down.
BASE_SWARM_SIZES = (20, 40, 60, 80, 100)
BASE_PIECES = 24


@dataclass
class Fig3Row:
    """One (protocol, swarm size) data point."""

    protocol: str
    swarm_size: int
    mean_completion_s: float
    completion_ci95: float
    mean_utilization: float
    optimal_s: float


def _cells(scale: ExperimentScale) -> List[dict]:
    return [dict(protocol=protocol, leechers=scale.swarm(base),
                 pieces=scale.pieces(BASE_PIECES))
            for protocol in PROTOCOLS for base in BASE_SWARM_SIZES]


def grid(scale: ExperimentScale) -> List[RunSpec]:
    """One spec per (protocol, swarm size, seed)."""
    return grid_specs("fig3/{protocol}/{leechers}", _cells(scale), scale)


def reduce(scale: ExperimentScale,
           summaries: Sequence[RunSummary]) -> List[Fig3Row]:
    """The Fig. 3 data points, one per (protocol, swarm size)."""
    rows: List[Fig3Row] = []
    for cell, results in zip(_cells(scale), per_cell(summaries, scale)):
        mct = summarize([r.mean_completion_time() for r in results])
        util = summarize([r.mean_utilization() for r in results])
        rows.append(Fig3Row(
            protocol=cell["protocol"],
            swarm_size=cell["leechers"],
            mean_completion_s=mct.mean if mct else float("nan"),
            completion_ci95=mct.ci95 if mct else 0.0,
            mean_utilization=util.mean if util else 0.0,
            optimal_s=results[0].optimal_time()))
    return rows


def render(rows: List[Fig3Row]) -> str:
    """Figure 3 as two printed tables."""
    a = format_table(
        ["protocol", "swarm", "mean completion (s)", "ci95", "optimal"],
        [(r.protocol, r.swarm_size, r.mean_completion_s,
          r.completion_ci95, r.optimal_s) for r in rows],
        title="Fig. 3(a) avg download completion time (no free-riders)")
    b = format_table(
        ["protocol", "swarm", "uplink utilization"],
        [(r.protocol, r.swarm_size, r.mean_utilization) for r in rows],
        title="Fig. 3(b) avg uplink utilization (no free-riders)")
    return a + "\n\n" + b


def mean_by_protocol(rows: List[Fig3Row], attr: str) -> dict:
    """Protocol -> mean of an attribute across swarm sizes."""
    out = {}
    for protocol in {r.protocol for r in rows}:
        values = [getattr(r, attr) for r in rows
                  if r.protocol == protocol]
        out[protocol] = sum(values) / len(values)
    return out
