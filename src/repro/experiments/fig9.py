"""Figure 9: compliant performance vs free-rider share, trace arrivals.

Leecher arrivals follow the continuous RedHat-9-like trace; the
fraction of free-riders sweeps 0 %–50 %.  The paper measures the
steady-state compliant completion time (excluding startup transients).

Paper shapes: all methods are close below ~10 % free-riders; beyond
that the baselines degrade sharply while T-Chain stays nearly flat —
at 50 % free-riders the baselines are roughly 5× slower than T-Chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.reporting import format_table
from repro.analysis.stats import summarize
from repro.experiments.config import DEFAULT_SCALE, ExperimentScale
from repro.experiments.runner import (compliant_completion_rate,
                                     run_many, seeds_for)

PROTOCOLS = ["bittorrent", "propshare", "fairtorrent", "tchain"]
FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

#: Denser than the other trace experiments: the Fig. 9 shape (baseline
#: degradation under free-riding) needs enough concurrent leechers
#: that the seeder is a small share of total capacity.
BASE_LEECHERS = 120
BASE_PIECES = 32
TRACE_HORIZON_S = 250.0


@dataclass
class Fig9Row:
    """One (protocol, free-rider fraction) point."""

    protocol: str
    freerider_fraction: float
    compliant_completion_s: float
    completion_ci95: float
    #: compliant leechers that finished / compliant leechers simulated,
    #: over all seeds
    compliant_completion_rate: float = float("nan")


def run(scale: ExperimentScale = DEFAULT_SCALE) -> List[Fig9Row]:
    """Run the Fig. 9 sweep."""
    rows: List[Fig9Row] = []
    leechers = scale.swarm(BASE_LEECHERS)
    pieces = scale.pieces(BASE_PIECES)
    for protocol in PROTOCOLS:
        for fraction in FRACTIONS:
            seeds = seeds_for(f"fig9/{protocol}/{fraction}",
                              scale.root_seed, scale.seeds)
            results = run_many(
                seeds, protocol=protocol, leechers=leechers,
                pieces=pieces, freerider_fraction=fraction,
                arrival="trace", trace_horizon_s=TRACE_HORIZON_S,
                max_time=40.0 * pieces * 4.0 + TRACE_HORIZON_S)
            mct = summarize([_steady_state_mct(r) for r in results])
            rows.append(Fig9Row(
                protocol=protocol,
                freerider_fraction=fraction,
                compliant_completion_s=(mct.mean if mct
                                        else float("nan")),
                completion_ci95=mct.ci95 if mct else 0.0,
                compliant_completion_rate=compliant_completion_rate(
                    results)))
    return rows


def _steady_state_mct(result) -> float:
    """Mean compliant completion time excluding the startup transient
    (the paper drops the first 500 of 1000 finishers; we drop the
    first third)."""
    records = [r for r in result.metrics.by_kind("leecher")
               if r.completion_time is not None]
    records.sort(key=lambda r: r.finish_time)
    steady = records[len(records) // 3:]
    if not steady:
        return float("nan")
    return sum(r.completion_time for r in steady) / len(steady)


def render(rows: List[Fig9Row]) -> str:
    """Figure 9 as a printed table."""
    return format_table(
        ["protocol", "free-rider %", "compliant completion (s)",
         "ci95", "completion rate"],
        [(r.protocol, int(r.freerider_fraction * 100),
          r.compliant_completion_s, r.completion_ci95,
          r.compliant_completion_rate) for r in rows],
        title="Fig. 9 compliant completion vs free-rider share "
              "(trace arrivals)")


def value(rows: List[Fig9Row], protocol: str,
          fraction: float) -> float:
    """Look up one point."""
    for r in rows:
        if r.protocol == protocol \
                and abs(r.freerider_fraction - fraction) < 1e-9:
            return r.compliant_completion_s
    raise KeyError((protocol, fraction))
