"""Figure 6: piece diversity and its effect on chain growth.

(a) The paper inserts a crawler into a live swarm and measures the
number of *different* pieces between every pair of its neighbors over
seven days, finding large differences (mean 612 of 2808) — leechers
almost always have something to trade.  We reproduce the methodology
inside the simulator: a crawler samples pairwise symmetric piece-set
differences among its neighbors over a continuous-arrival swarm (see
DESIGN.md substitutions).

(b) 600 leechers join with a pre-seeded random fraction of pieces
(0 %–100 %); completion time falls linearly with the pre-seeded
fraction, showing chains grow from whatever diversity exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.reporting import format_series, format_table
from repro.analysis.stats import summarize
from repro.experiments.config import ExperimentScale
from repro.experiments.parallel import (RunSpec, RunSummary, grid_specs,
                                        per_cell)

BASE_LEECHERS_A = 50
BASE_PIECES_A = 48
BASE_LEECHERS_B = 40
BASE_PIECES_B = 24
FRACTION_SWEEP = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass
class DiversitySample:
    """Mean pairwise piece difference among sampled neighbors."""

    time_s: float
    mean_difference: float
    pairs: int


@dataclass
class InitialPieceRow:
    """One Fig. 6(b) point."""

    initial_fraction: float
    mean_completion_s: float
    completion_ci95: float


def grid(scale: ExperimentScale) -> List[RunSpec]:
    """The Fig. 6(a) crawl (one trace-arrival swarm recording the
    ``diversity`` series), then the Fig. 6(b) specs."""
    crawl = RunSpec(protocol="tchain",
                    leechers=scale.swarm(BASE_LEECHERS_A),
                    pieces=scale.pieces(BASE_PIECES_A),
                    seed=scale.root_seed, arrival="trace",
                    trace_horizon_s=400.0, series=("diversity",))
    return [crawl] + grid_specs(
        "fig6b/{initial_piece_fraction}",
        [dict(protocol="tchain", leechers=scale.swarm(BASE_LEECHERS_B),
              pieces=scale.pieces(BASE_PIECES_B),
              initial_piece_fraction=fraction)
         for fraction in FRACTION_SWEEP], scale)


def reduce(scale: ExperimentScale, summaries: Sequence[RunSummary]
           ) -> Tuple[List[DiversitySample], List[InitialPieceRow], int]:
    """Crawler samples, Fig. 6(b) rows and the crawled piece count."""
    crawl, *rest = summaries
    rows = []
    for fraction, results in zip(FRACTION_SWEEP, per_cell(rest, scale)):
        mct = summarize([r.mean_completion_time() or 0.0
                         for r in results])
        rows.append(InitialPieceRow(
            initial_fraction=fraction,
            mean_completion_s=mct.mean,
            completion_ci95=mct.ci95))
    return ([DiversitySample(*sample)
             for sample in dict(crawl.series)["diversity"]],
            rows, crawl.config.n_pieces)


def render(result: tuple) -> str:
    """Figure 6 as a printed series and table."""
    samples, rows, n_pieces = result
    a = format_series(
        f"Fig. 6(a) mean pairwise piece difference "
        f"(of {n_pieces} pieces)",
        [(s.time_s, s.mean_difference) for s in samples],
        x_label="time (s)", y_label="pieces")
    b = format_table(
        ["initial piece fraction", "mean completion (s)", "ci95"],
        [(r.initial_fraction, r.mean_completion_s, r.completion_ci95)
         for r in rows],
        title="Fig. 6(b) effect of initial piece differences (T-Chain)")
    return a + "\n\n" + b
