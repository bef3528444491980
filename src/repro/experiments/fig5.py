"""Figure 5: per-piece transfer timelines for extreme leechers.

For one T-Chain swarm, plot (as data series) when each encrypted
piece arrived and when its decryption key arrived, for the leecher
with the lowest (400 Kbps) and highest (1200 Kbps) upload rate.

Paper shapes: the encrypted-piece line climbs at the rate of the
*neighbors'* upload capacity, the decrypted line at the leecher's own
(reciprocation-bound) rate — so the 400 Kbps leecher shows a growing
gap between the two lines, while the 1200 Kbps leecher's lines nearly
coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.reporting import format_series, thin
from repro.experiments.config import ExperimentScale
from repro.experiments.parallel import RunSpec, RunSummary

BASE_LEECHERS = 60
BASE_PIECES = 48


@dataclass
class PieceTimeline:
    """Cumulative encrypted/decrypted piece counts for one leecher."""

    capacity_kbps: float
    encrypted: List[Tuple[float, int]]  # (elapsed s, count)
    decrypted: List[Tuple[float, int]]

    def mean_key_lag_s(self) -> float:
        """Average time between matching encrypted and decrypted
        counts — the key-delivery lag the figure visualizes."""
        if not self.encrypted or not self.decrypted:
            return 0.0
        lags = []
        for (t_enc, count) in self.encrypted:
            later = [t for t, c in self.decrypted if c >= count]
            if later:
                lags.append(min(later) - t_enc)
        return sum(lags) / len(lags) if lags else 0.0


def grid(scale: ExperimentScale) -> List[RunSpec]:
    """One T-Chain swarm recording its leechers' piece logs."""
    return [RunSpec(protocol="tchain", leechers=scale.swarm(BASE_LEECHERS),
                    pieces=scale.pieces(BASE_PIECES), seed=scale.root_seed,
                    series=("piece_log",))]


def reduce(scale: ExperimentScale, summaries: Sequence[RunSummary]
           ) -> Dict[str, PieceTimeline]:
    """The slowest and the fastest leecher's timelines."""
    summary, = summaries
    logs = dict(summary.series)["piece_log"]
    return {
        "slow": _timeline(*min(logs, key=lambda log: log[0])),
        "fast": _timeline(*max(logs, key=lambda log: log[0])),
    }


def _timeline(capacity_kbps: float, join_time, piece_log) -> PieceTimeline:
    encrypted: List[Tuple[float, int]] = []
    decrypted: List[Tuple[float, int]] = []
    join = join_time or 0.0
    for t, piece, kind in sorted(piece_log):
        elapsed = t - join
        if kind == "encrypted":
            encrypted.append((elapsed, len(encrypted) + 1))
        else:
            decrypted.append((elapsed, len(decrypted) + 1))
    return PieceTimeline(capacity_kbps=capacity_kbps,
                         encrypted=encrypted, decrypted=decrypted)


def render(timelines: Dict[str, PieceTimeline]) -> str:
    """Figure 5 as printed series (sampled every few pieces)."""
    blocks = []
    for label in ("slow", "fast"):
        tl = timelines[label]
        blocks.append(
            f"Fig. 5 ({label}: {tl.capacity_kbps:.0f} Kbps leecher), "
            f"mean key lag {tl.mean_key_lag_s():.2f} s")
        blocks.append(format_series(
            "  encrypted pieces received", thin(tl.encrypted, 10),
            x_label="s after join", y_label="count"))
        blocks.append(format_series(
            "  decryption keys received", thin(tl.decrypted, 10),
            x_label="s after join", y_label="count"))
    return "\n".join(blocks)
