"""Chain-level analysis (behind Figs. 10 and 11).

Summaries over a :class:`repro.core.chain.ChainRegistry`: length and
lifetime distributions, initiator breakdowns, and growth/termination
rates over time.  The experiment modules sample the raw counters; the
helpers here turn them into the statistics the paper discusses
("chain termination is strongly related to leecher departure", "the
amount of opportunistic seeding is high when the system is newly
initiated").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import mean, percentile
from repro.core.chain import Chain, ChainRegistry


@dataclass(frozen=True)
class ChainStats:
    """Aggregate statistics over all chains of a run."""

    total: int
    by_seeder: int
    by_leechers: int
    mean_length: float
    median_length: float
    max_length: int
    mean_lifetime_s: Optional[float]
    still_active: int

    @property
    def opportunistic_fraction(self) -> float:
        """Share of chains initiated by leechers."""
        if self.total == 0:
            return 0.0
        return self.by_leechers / self.total


def summarize_chains(registry: ChainRegistry) -> ChainStats:
    """Compute :class:`ChainStats` for a registry."""
    lengths = registry.chain_lengths()
    lifetimes = registry.lifetimes()
    return ChainStats(
        total=registry.total_count,
        by_seeder=registry.created_by_seeder,
        by_leechers=registry.created_by_leechers,
        mean_length=mean(lengths),
        median_length=percentile(lengths, 50) if lengths else 0.0,
        max_length=max(lengths) if lengths else 0,
        mean_lifetime_s=mean(lifetimes) if lifetimes else None,
        still_active=registry.active_count,
    )


def length_histogram(registry: ChainRegistry,
                     bins: Sequence[int] = (1, 2, 3, 5, 10, 20, 50)
                     ) -> List[Tuple[str, int]]:
    """Chain-length histogram with right-open integer bins."""
    edges = list(bins)
    counts = [0] * (len(edges) + 1)
    for length in registry.chain_lengths():
        for i, edge in enumerate(edges):
            if length < edge:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    labels = []
    low = 0
    for edge in edges:
        labels.append(f"[{low},{edge})")
        low = edge
    labels.append(f"[{low},inf)")
    return list(zip(labels, counts))


def creation_rate(samples: Sequence[Tuple[float, int, int]]
                  ) -> List[Tuple[float, float]]:
    """Chains created per second between samples.

    ``samples`` are the registry's (time, active, total) triples.
    """
    rates = []
    for (t0, _, total0), (t1, _, total1) in zip(samples, samples[1:]):
        dt = t1 - t0
        if dt > 0:
            rates.append((t1, (total1 - total0) / dt))
    return rates


def termination_rate(samples: Sequence[Tuple[float, int, int]]
                     ) -> List[Tuple[float, float]]:
    """Chains terminated per second between samples."""
    rates = []
    for (t0, a0, total0), (t1, a1, total1) in zip(samples,
                                                  samples[1:]):
        dt = t1 - t0
        if dt > 0:
            terminated = (total1 - total0) - (a1 - a0)
            rates.append((t1, terminated / dt))
    return rates


def initiator_breakdown(registry: ChainRegistry
                        ) -> Dict[str, List[Chain]]:
    """Chains grouped by initiator peer id."""
    groups: Dict[str, List[Chain]] = {}
    for chain in registry.all_chains():
        groups.setdefault(chain.initiator_id, []).append(chain)
    return groups
