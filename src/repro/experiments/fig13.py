"""Figure 13: small files under high churn.

1000 leechers join as a flash crowd; every finisher is instantly
replaced by a newcomer (replacement churn).  The shared file has
1–50 pieces.  Measured: the average download *throughput* of
compliant leechers during the first measurement window.  Random
BitTorrent (all bandwidth optimistically unchoked) joins the lineup.

Paper shapes:

* With very few pieces (≲5) and no free-riders, the baselines
  collapse (no reciprocation opportunities; the system degenerates to
  client–server around the seeder) while T-Chain stays well above
  them because reciprocation is *forced*.
* In the 5–30 piece band without free-riders, Random BitTorrent and
  FairTorrent edge out T-Chain (encryption/key overhead, here the
  extra protocol round-trips).
* With 50 % free-riders, T-Chain wins at every file size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.reporting import format_table
from repro.analysis.stats import summarize
from repro.experiments.config import ExperimentScale
from repro.experiments.parallel import RunSpec, RunSummary, per_cell
from repro.experiments.runner import seeds_for

PROTOCOLS = ["random", "bittorrent", "propshare", "fairtorrent",
             "tchain"]
PIECE_COUNTS = (1, 2, 3, 5, 10, 20, 30)
FRACTIONS = (0.0, 0.5)
BASE_LEECHERS = 50
MEASUREMENT_WINDOW_S = 150.0


@dataclass
class Fig13Row:
    """One (protocol, piece count, free-rider fraction) point."""

    protocol: str
    n_pieces: int
    freerider_fraction: float
    mean_throughput_kbps: float
    throughput_ci95: float


def churn_spec(protocol: str, n_pieces: int, fraction: float,
               leechers: int, seed: int) -> RunSpec:
    """One small-file run under replacement churn (64 KB pieces),
    measured over the first :data:`MEASUREMENT_WINDOW_S` seconds."""
    return RunSpec(protocol=protocol, seed=seed, leechers=leechers,
                   freerider_fraction=fraction, arrival="churn",
                   pieces=n_pieces, piece_size_kb=64.0,
                   max_time=MEASUREMENT_WINDOW_S)


def throughput(summary: RunSummary) -> float:
    """Compliant mean download throughput (Kbps) of a churn run: each
    leecher's download over its time in the measurement window."""
    rates = []
    for record in summary.metrics.by_kind("leecher"):
        lifetime = (record.leave_time if record.leave_time is not None
                    else MEASUREMENT_WINDOW_S) - record.join_time
        if lifetime > 0:
            rates.append(record.kb_downloaded * 8.0 / lifetime)
    return sum(rates) / len(rates) if rates else 0.0


def _cells() -> list:
    return [(fraction, protocol, n_pieces) for fraction in FRACTIONS
            for protocol in PROTOCOLS for n_pieces in PIECE_COUNTS]


def grid(scale: ExperimentScale) -> List[RunSpec]:
    """One churn spec per (fraction, protocol, piece count, seed)."""
    leechers = scale.swarm(BASE_LEECHERS)
    return [churn_spec(protocol, n_pieces, fraction, leechers, seed)
            for fraction, protocol, n_pieces in _cells()
            for seed in seeds_for(
                f"fig13/{protocol}/{n_pieces}/{fraction}",
                scale.root_seed, scale.seeds)]


def reduce(scale: ExperimentScale,
           summaries: Sequence[RunSummary]) -> List[Fig13Row]:
    """One row per (fraction, protocol, piece count)."""
    rows: List[Fig13Row] = []
    for (fraction, protocol, n_pieces), results in zip(
            _cells(), per_cell(summaries, scale)):
        summary = summarize([throughput(r) for r in results])
        rows.append(Fig13Row(
            protocol=protocol,
            n_pieces=n_pieces,
            freerider_fraction=fraction,
            mean_throughput_kbps=summary.mean,
            throughput_ci95=summary.ci95))
    return rows


def render(rows: List[Fig13Row]) -> str:
    """Figure 13 as one printed table per free-rider fraction."""
    blocks = []
    for fraction in sorted({r.freerider_fraction for r in rows}):
        subset = [r for r in rows if r.freerider_fraction == fraction]
        blocks.append(format_table(
            ["protocol", "pieces", "throughput (Kbps)", "ci95"],
            [(r.protocol, r.n_pieces, r.mean_throughput_kbps,
              r.throughput_ci95) for r in subset],
            title=(f"Fig. 13 avg compliant download throughput, "
                   f"{int(fraction * 100)}% free-riders")))
    return "\n\n".join(blocks)


def value(rows: List[Fig13Row], protocol: str, n_pieces: int,
          fraction: float) -> float:
    """Look up one point."""
    for r in rows:
        if (r.protocol, r.n_pieces) == (protocol, n_pieces) \
                and abs(r.freerider_fraction - fraction) < 1e-9:
            return r.mean_throughput_kbps
    raise KeyError((protocol, n_pieces, fraction))
