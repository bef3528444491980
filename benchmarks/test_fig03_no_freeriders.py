"""Figure 3: completion time and uplink utilization, no free-riders.

Shape checks (paper Sec. IV-B): every protocol completes near the
fluid optimum; times stay roughly flat across swarm sizes
(scalability); T-Chain's uplink utilization is at least on par with
BitTorrent's and its completion times are competitive.
"""

from conftest import run_once

from repro.analysis.charts import line_plot
from repro.experiments import fig3, run_figure


def test_fig3_completion_and_utilization(benchmark, scale, artifact):
    rows = run_once(benchmark, lambda: run_figure(fig3, scale))
    protocols = sorted({r.protocol for r in rows})
    series = [
        (protocol, [(r.swarm_size, r.mean_completion_s)
                    for r in rows if r.protocol == protocol])
        for protocol in protocols
    ]
    artifact("fig03", fig3.render(rows) + "\n\n" + line_plot(
        series, title="Fig. 3(a) (plot)", x_label="swarm size",
        y_label="mean completion (s)"))

    mct = fig3.mean_by_protocol(rows, "mean_completion_s")
    util = fig3.mean_by_protocol(rows, "mean_utilization")

    # Everyone finishes in sane time: within 12x of optimal.
    for row in rows:
        assert row.mean_completion_s <= 12.0 * row.optimal_s
        assert row.mean_completion_s >= 0.8 * row.optimal_s

    # T-Chain utilization >= BitTorrent's (the paper's Fig. 3(b)).
    assert util["tchain"] >= 0.9 * util["bittorrent"]

    # T-Chain completion competitive with BitTorrent (Fig. 3(a)).
    assert mct["tchain"] <= 1.25 * mct["bittorrent"]

    # Scalability: per-protocol completion roughly flat in swarm size
    # (largest within 2x of smallest).
    for protocol in {r.protocol for r in rows}:
        series = sorted([(r.swarm_size, r.mean_completion_s)
                         for r in rows if r.protocol == protocol])
        small, large = series[0][1], series[-1][1]
        assert large <= 2.5 * small
