"""Figure 4: file-size and swarm-size effects under T-Chain.

(a) 600 compliant leechers, file size swept 32 MB → 1024 MB: the
paper reports completion time growing *linearly* with file size.
(b) 128 MB file, swarm size swept 10 → 10 000: completion time
converges and stays nearly constant (T-Chain scalability); small
swarms finish faster because the 6000 Kbps seeder dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.reporting import format_table
from repro.analysis.stats import summarize
from repro.experiments.config import ExperimentScale
from repro.experiments.parallel import (RunSpec, RunSummary, grid_specs,
                                        per_cell)

#: Paper: 32..1024 MB at 64 KB pieces (512..16384 pieces); scaled to
#: piece counts that keep the x4 range visible.
BASE_PIECE_SWEEP = (8, 16, 32, 64)
BASE_LEECHERS_A = 60

#: Paper: 10..10 000 leechers.
BASE_SWARM_SWEEP = (5, 10, 25, 50, 100, 200)
BASE_PIECES_B = 24


@dataclass
class FileSizeRow:
    """One Fig. 4(a) point."""

    n_pieces: int
    file_mb: float
    mean_completion_s: float
    completion_ci95: float


@dataclass
class SwarmSizeRow:
    """One Fig. 4(b) point."""

    swarm_size: int
    mean_completion_s: float
    completion_ci95: float


def _cells(scale: ExperimentScale) -> Tuple[List[dict], List[dict]]:
    leechers = scale.swarm(BASE_LEECHERS_A)
    return ([dict(protocol="tchain", leechers=leechers,
                  pieces=scale.pieces(base), piece_size_kb=64.0)
             for base in BASE_PIECE_SWEEP],
            [dict(protocol="tchain", leechers=scale.swarm(base),
                  pieces=scale.pieces(BASE_PIECES_B))
             for base in BASE_SWARM_SWEEP])


def grid(scale: ExperimentScale) -> List[RunSpec]:
    """Fig. 4(a)'s specs, then Fig. 4(b)'s."""
    file_cells, swarm_cells = _cells(scale)
    return (grid_specs("fig4a/{pieces}", file_cells, scale)
            + grid_specs("fig4b/{leechers}", swarm_cells, scale))


def reduce(scale: ExperimentScale, summaries: Sequence[RunSummary]
           ) -> Tuple[List[FileSizeRow], List[SwarmSizeRow]]:
    """Both panels' rows: (file-size rows, swarm-size rows)."""
    file_cells, swarm_cells = _cells(scale)
    mcts = [summarize([r.mean_completion_time() for r in results])
            for results in per_cell(summaries, scale)]
    file_rows = [FileSizeRow(n_pieces=cell["pieces"],
                             file_mb=cell["pieces"] * 64.0 / 1024.0,
                             mean_completion_s=mct.mean,
                             completion_ci95=mct.ci95)
                 for cell, mct in zip(file_cells, mcts)]
    swarm_rows = [SwarmSizeRow(swarm_size=cell["leechers"],
                               mean_completion_s=mct.mean,
                               completion_ci95=mct.ci95)
                  for cell, mct in zip(swarm_cells, mcts[len(file_cells):])]
    return file_rows, swarm_rows


def render(rows: Tuple[List[FileSizeRow], List[SwarmSizeRow]]) -> str:
    """Figure 4 as two printed tables."""
    file_rows, swarm_rows = rows
    a = format_table(
        ["pieces", "file (MB)", "mean completion (s)", "ci95"],
        [(r.n_pieces, r.file_mb, r.mean_completion_s,
          r.completion_ci95) for r in file_rows],
        title="Fig. 4(a) file size effects (T-Chain, no free-riders)")
    b = format_table(
        ["swarm", "mean completion (s)", "ci95"],
        [(r.swarm_size, r.mean_completion_s, r.completion_ci95)
         for r in swarm_rows],
        title="Fig. 4(b) swarm size effects (T-Chain, no free-riders)")
    return a + "\n\n" + b


def linearity_r2(rows: List[FileSizeRow]) -> float:
    """R² of completion time against file size (paper: linear)."""
    xs = [r.file_mb for r in rows]
    ys = [r.mean_completion_s for r in rows]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return 1.0
    return (sxy * sxy) / (sxx * syy)
