"""Figure 7: performance under free-riding (25 % free-riders).

Free-riders contribute zero upload bandwidth and evade penalties with
the large-view exploit and whitewashing.  The paper's shapes:

* (a) compliant leechers slow down noticeably under BitTorrent,
  PropShare and FairTorrent (up to ~33 %), while T-Chain protects
  them;
* (b) free-riders eventually finish under all three baselines
  (fastest under FairTorrent, thanks to whitewashing the deficits)
  but **never** under T-Chain — there is no T-Chain line in the
  paper's plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.reporting import format_table
from repro.analysis.stats import summarize
from repro.attacks.freerider import FreeRiderOptions
from repro.experiments.config import DEFAULT_SCALE, ExperimentScale
from repro.experiments.runner import (compliant_completion_rate,
                                     run_many, seeds_for)

PROTOCOLS = ["bittorrent", "propshare", "fairtorrent", "tchain"]
BASE_SWARM_SIZES = (20, 40, 60, 80, 100)
#: Larger than Fig. 3's piece count: free-rider damage shapes are
#: endgame-sensitive, and very short files overweight the endgame.
BASE_PIECES = 48
FREERIDER_FRACTION = 0.25

#: Give baseline free-riders room to finish (paper's Fig. 7(b) y-axis
#: runs to 50 000 s for ~1500 s compliant times).
MAX_TIME_FACTOR = 40.0


@dataclass
class Fig7Row:
    """One (protocol, swarm size) point with both populations."""

    protocol: str
    swarm_size: int
    compliant_completion_s: float
    compliant_ci95: float
    freerider_completion_s: Optional[float]
    freerider_completion_rate: float
    #: mean fraction of the file free-riders managed to *decrypt*
    freerider_progress: float = 0.0
    #: compliant leechers that finished / compliant leechers simulated,
    #: over all seeds (the population the completion time averages)
    compliant_completion_rate: float = float("nan")


def run(scale: ExperimentScale = DEFAULT_SCALE,
        options: FreeRiderOptions = FreeRiderOptions(),
        label: str = "fig7") -> List[Fig7Row]:
    """Run the Fig. 7 sweep (also reused by Fig. 8 with collusion)."""
    rows: List[Fig7Row] = []
    pieces = scale.pieces(BASE_PIECES)
    for protocol in PROTOCOLS:
        for base in BASE_SWARM_SIZES:
            size = scale.swarm(base)
            seeds = seeds_for(f"{label}/{protocol}/{size}",
                              scale.root_seed, scale.seeds)
            results = run_many(
                seeds, protocol=protocol, leechers=size, pieces=pieces,
                freerider_fraction=FREERIDER_FRACTION,
                freerider_options=options,
                max_time=MAX_TIME_FACTOR * pieces * 4.0)
            compliant = summarize(
                [r.mean_completion_time("leecher") for r in results])
            freerider = summarize(
                [r.mean_completion_time("freerider") for r in results])
            fr_rate = sum(r.completion_rate("freerider")
                          for r in results) / len(results)
            progress = []
            for r in results:
                for record in r.metrics.freeriders():
                    progress.append(record.pieces_completed
                                    / r.config.n_pieces)
            rows.append(Fig7Row(
                protocol=protocol,
                swarm_size=size,
                compliant_completion_s=(compliant.mean if compliant
                                        else float("nan")),
                compliant_ci95=compliant.ci95 if compliant else 0.0,
                freerider_completion_s=(freerider.mean if freerider
                                        else None),
                freerider_completion_rate=fr_rate,
                freerider_progress=(sum(progress) / len(progress)
                                    if progress else 0.0),
                compliant_completion_rate=compliant_completion_rate(
                    results)))
    return rows


def render(rows: List[Fig7Row], title_prefix: str = "Fig. 7") -> str:
    """Figure 7 as two printed tables."""
    a = format_table(
        ["protocol", "swarm", "compliant completion (s)", "ci95",
         "completion rate"],
        [(r.protocol, r.swarm_size, r.compliant_completion_s,
          r.compliant_ci95, r.compliant_completion_rate) for r in rows],
        title=f"{title_prefix}(a) compliant leechers, 25% free-riders")
    b = format_table(
        ["protocol", "swarm", "free-rider completion (s)",
         "completion rate", "file fraction decrypted"],
        [(r.protocol, r.swarm_size, r.freerider_completion_s,
          r.freerider_completion_rate, r.freerider_progress)
         for r in rows],
        title=f"{title_prefix}(b) free-riders, 25% free-riders")
    return a + "\n\n" + b
