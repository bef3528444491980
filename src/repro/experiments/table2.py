"""Table II: incentive-scheme comparison under attacks.

The paper's Table II scores each incentive scheme (✓ good / blank
medium / ✗ bad) against the known manipulation strategies.  We
reproduce the *measurable* cells by running attack micro-scenarios
against our four protocol implementations and classifying the
outcome; the remaining cells (simplicity, false praise — properties
of reputation systems we do not implement) are design facts carried
over from the paper for context.

Measured cells:

* **exploiting altruism** — a plain free-rider (no tricks): does it
  complete the file in bounded time?
* **large-view exploit** — a free-rider harvesting neighbors: how
  much does the exploit speed it up / does it still complete?
* **whitewashing** — identity resets after every usable piece.
* **collusion** — colluding free-riders (T-Chain's false reports;
  meaningless against the baselines' local observations, which we
  verify by running it anyway).
* **fairness under attack** — spread of compliant fairness factors
  with 25 % free-riders.
* **small files** — compliant throughput on a 3-piece file under
  churn relative to the best protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.reporting import format_table
from repro.analysis.stats import percentile
from repro.attacks.freerider import FreeRiderOptions
from repro.experiments import fig13
from repro.experiments.config import DEFAULT_SCALE, ExperimentScale
from repro.experiments.parallel import RunSpec, run_specs

PROTOCOLS = ["bittorrent", "propshare", "fairtorrent", "tchain"]

GOOD, MEDIUM, BAD = "good", "medium", "bad"

#: Paper Table II verdicts for the columns we measure.
PAPER_VERDICTS: Dict[str, Dict[str, str]] = {
    "exploiting altruism": {"bittorrent": BAD, "propshare": BAD,
                            "fairtorrent": BAD, "tchain": GOOD},
    "large-view exploit": {"bittorrent": BAD, "propshare": MEDIUM,
                           "fairtorrent": MEDIUM, "tchain": GOOD},
    "whitewashing": {"bittorrent": GOOD, "propshare": MEDIUM,
                     "fairtorrent": BAD, "tchain": GOOD},
    "collusion": {"bittorrent": GOOD, "propshare": GOOD,
                  "fairtorrent": GOOD, "tchain": GOOD},
    "fairness": {"bittorrent": BAD, "propshare": GOOD,
                 "fairtorrent": GOOD, "tchain": GOOD},
    "small files": {"bittorrent": BAD, "propshare": BAD,
                    "fairtorrent": GOOD, "tchain": GOOD},
}


@dataclass
class Cell:
    """One measured Table II cell."""

    feature: str
    protocol: str
    metric: float
    verdict: str

    @property
    def paper_verdict(self) -> str:
        """The paper's Table II grade for this cell."""
        return PAPER_VERDICTS[self.feature][self.protocol]

    @property
    def agrees(self) -> bool:
        """Direction agreement with the paper (medium counts with
        whichever side it borders)."""
        order = {GOOD: 2, MEDIUM: 1, BAD: 0}
        return abs(order[self.verdict]
                   - order[self.paper_verdict]) <= 1


@dataclass
class Table2:
    """All measured cells."""

    cells: List[Cell] = field(default_factory=list)

    def verdict(self, feature: str, protocol: str) -> str:
        """Measured verdict for a cell."""
        for c in self.cells:
            if (c.feature, c.protocol) == (feature, protocol):
                return c.verdict
        raise KeyError((feature, protocol))


def _verdict_from_freeriding(summary) -> (float, str):
    """Classify how well free-riders did: GOOD means the attack
    yielded nothing, MEDIUM a throttled trickle, BAD a practical
    download."""
    rate = summary.metrics.completion_rate("freerider")
    if rate == 0:
        return rate, GOOD
    compliant = summary.mean_completion_time("leecher") or 1.0
    freerider = summary.mean_completion_time("freerider")
    if freerider is None or freerider > 5.0 * compliant or rate < 0.5:
        return rate, MEDIUM
    return rate, BAD


def run(scale: ExperimentScale = DEFAULT_SCALE) -> Table2:
    """Run all attack micro-scenarios and assemble the table."""
    seed = scale.root_seed
    scenarios = [
        ("exploiting altruism",
         FreeRiderOptions(large_view=False, whitewash=False)),
        ("large-view exploit",
         FreeRiderOptions(large_view=True, whitewash=False)),
        ("whitewashing",
         FreeRiderOptions(large_view=False, whitewash=True)),
        ("collusion",
         FreeRiderOptions(large_view=True, whitewash=False,
                          collude=True)),
    ]
    specs = []
    for protocol in PROTOCOLS:
        specs += [RunSpec(protocol=protocol, leechers=30, pieces=12,
                          seed=seed, freerider_fraction=0.2,
                          freerider_options=options, max_time=4000.0)
                  for _, options in scenarios]
        # fairness spread under 25% free-riders
        specs.append(RunSpec(protocol=protocol, leechers=40, pieces=16,
                             seed=seed, freerider_fraction=0.25))
    # small files: relative throughput on a 3-piece file, 50% FRs
    specs += [fig13.churn_spec(protocol, n_pieces=3, fraction=0.5,
                               leechers=30, seed=seed)
              for protocol in PROTOCOLS]
    summaries = iter(run_specs(specs))

    table = Table2()
    for protocol in PROTOCOLS:
        table.cells += [Cell(feature, protocol,
                             *_verdict_from_freeriding(next(summaries)))
                        for feature, _ in scenarios]
        factors = next(summaries).metrics.fairness_factors("leecher")
        spread = (percentile(factors, 90) - percentile(factors, 10)
                  if len(factors) >= 2 else 0.0)
        median = percentile(factors, 50) if factors else 1.0
        rel = spread / max(median, 1e-9)
        verdict = GOOD if rel < 1.3 else (MEDIUM if rel < 2.1 else BAD)
        table.cells.append(Cell("fairness", protocol, rel, verdict))

    throughputs = {protocol: fig13.throughput(next(summaries))
                   for protocol in PROTOCOLS}
    best = max(throughputs.values()) or 1.0
    for protocol, tp in throughputs.items():
        rel = tp / best
        verdict = GOOD if rel > 0.75 else (MEDIUM if rel > 0.4 else BAD)
        table.cells.append(Cell("small files", protocol, rel, verdict))
    return table


def render(table: Table2) -> str:
    """Table II as printed text."""
    return format_table(
        ["feature", "protocol", "metric", "measured", "paper"],
        [(c.feature, c.protocol, c.metric, c.verdict, c.paper_verdict)
         for c in table.cells],
        title="Table II incentive comparison under attacks "
              "(measured vs paper)")
