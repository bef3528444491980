"""Figure 13: small files under replacement churn.

Shape checks: with very few pieces and no free-riders T-Chain's
throughput beats the choking-based baselines (forced reciprocation
vs no reciprocation opportunities); with 50 % free-riders T-Chain
wins across file sizes; and Random BitTorrent is competitive without
free-riders but collapses with them.
"""

from conftest import run_once

from repro.analysis.charts import line_plot
from repro.experiments import fig13, run_figure


def test_fig13_small_files(benchmark, scale, artifact):
    rows = run_once(benchmark, lambda: run_figure(fig13, scale))
    plots = []
    for fraction in sorted({r.freerider_fraction for r in rows}):
        series = [
            (protocol,
             [(r.n_pieces, r.mean_throughput_kbps) for r in rows
              if r.protocol == protocol
              and r.freerider_fraction == fraction])
            for protocol in fig13.PROTOCOLS
        ]
        plots.append(line_plot(
            series,
            title=f"Fig. 13 (plot, {int(fraction * 100)}% "
                  f"free-riders)",
            x_label="pieces", y_label="throughput (Kbps)"))
    artifact("fig13", fig13.render(rows) + "\n\n"
             + "\n\n".join(plots))

    def v(protocol, pieces, fraction):
        return fig13.value(rows, protocol, pieces, fraction)

    # Tiny files, no free-riders: T-Chain above BitTorrent/PropShare.
    for pieces in (1, 2, 3):
        assert v("tchain", pieces, 0.0) >= \
            0.9 * v("bittorrent", pieces, 0.0), pieces
        assert v("tchain", pieces, 0.0) >= \
            0.9 * v("propshare", pieces, 0.0), pieces

    # 50 % free-riders: T-Chain strictly dominates for very small
    # files (the regime the paper's argument centers on — forced
    # reciprocation is the only thing that works when there is almost
    # nothing to trade)...
    for pieces in (1, 2):
        tchain = v("tchain", pieces, 0.5)
        for protocol in ("random", "bittorrent", "propshare",
                         "fairtorrent"):
            assert tchain >= v(protocol, pieces, 0.5), \
                (pieces, protocol)
    for pieces in (3,):
        tchain = v("tchain", pieces, 0.5)
        for protocol in ("random", "bittorrent", "propshare",
                         "fairtorrent"):
            assert tchain >= 0.9 * v(protocol, pieces, 0.5), \
                (pieces, protocol)
    # ...and stays at-or-near the best everywhere else.  (The paper
    # reports strict wins at all sizes; at bench scale the seeder is a
    # large capacity share and props the baselines up mid-range.)
    wins = 0
    comparisons = 0
    for pieces in fig13.PIECE_COUNTS:
        tchain = v("tchain", pieces, 0.5)
        for protocol in ("random", "bittorrent", "propshare",
                         "fairtorrent"):
            comparisons += 1
            if tchain >= 0.9 * v(protocol, pieces, 0.5):
                wins += 1
    assert wins >= 0.6 * comparisons

    # Free-riders hurt Random BitTorrent much more than T-Chain.
    random_drop = v("random", 10, 0.5) / max(v("random", 10, 0.0), 1.0)
    tchain_drop = v("tchain", 10, 0.5) / max(v("tchain", 10, 0.0), 1.0)
    assert tchain_drop >= random_drop
