#!/usr/bin/env python3
"""Small files under high churn (the paper's Sec. IV-I / Fig. 13).

Very small files break choking-based incentives: with one to five
pieces there is almost nothing to reciprocate with, so BitTorrent
degenerates into a client–server system around the seeder.  T-Chain
*forces* reciprocation of the very piece being distributed (the
newcomer forwards it, still encrypted), so it keeps multi-party
dissemination alive.

This example runs a replacement-churn workload (every finisher is
replaced by a newcomer) over a range of tiny file sizes and prints
the compliant download throughput per protocol, with and without
free-riders.

Run:  python examples/small_files_churn.py
"""

from repro.analysis.reporting import format_table
from repro.experiments import fig13, run_figure
from repro.experiments.config import ExperimentScale

SCALE = ExperimentScale(factor=0.6, seeds=1, root_seed=31)


def main() -> None:
    rows = run_figure(fig13, SCALE)
    for fraction in fig13.FRACTIONS:
        subset = [r for r in rows
                  if r.freerider_fraction == fraction]
        by_pieces = {}
        for r in subset:
            by_pieces.setdefault(r.n_pieces, {})[r.protocol] = \
                round(r.mean_throughput_kbps)
        table_rows = [
            (n, vals.get("random"), vals.get("bittorrent"),
             vals.get("propshare"), vals.get("fairtorrent"),
             vals.get("tchain"))
            for n, vals in sorted(by_pieces.items())
        ]
        print(format_table(
            ["pieces", "random-BT", "bittorrent", "propshare",
             "fairtorrent", "t-chain"],
            table_rows,
            title=(f"Compliant download throughput (Kbps), "
                   f"{int(fraction * 100)}% free-riders, "
                   f"replacement churn")))
        print()


if __name__ == "__main__":
    main()
