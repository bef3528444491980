"""Figure 9: compliant completion vs free-rider share, trace arrivals.

Shape checks: all methods are comparable at 0 % free-riders; as the
share grows, T-Chain's compliant completion time stays nearly flat
while the baselines degrade — at 50 % the worst baseline is a clear
multiple of T-Chain.
"""

from conftest import run_once

from repro.analysis.charts import line_plot
from repro.experiments import fig9, run_figure


def test_fig9_trace_freeriders(benchmark, scale, artifact):
    rows = run_once(benchmark, lambda: run_figure(fig9, scale))
    series = [
        (protocol,
         [(r.freerider_fraction * 100, r.compliant_completion_s)
          for r in rows if r.protocol == protocol])
        for protocol in fig9.PROTOCOLS
    ]
    artifact("fig09", fig9.render(rows) + "\n\n" + line_plot(
        series, title="Fig. 9 (plot)", x_label="free-rider %",
        y_label="compliant completion (s)"))

    # Comparable starting points at 0 % free-riders.
    base = {p: fig9.value(rows, p, 0.0) for p in fig9.PROTOCOLS}
    for protocol, value in base.items():
        assert value <= 2.0 * min(base.values()), protocol

    # T-Chain stays nearly flat up to 50 %.
    tchain_growth = fig9.value(rows, "tchain", 0.5) / base["tchain"]
    assert tchain_growth <= 2.0

    # The baselines degrade more than T-Chain does.
    for protocol in ("bittorrent", "propshare", "fairtorrent"):
        growth = fig9.value(rows, protocol, 0.5) / base[protocol]
        assert growth >= tchain_growth * 0.9, protocol

    # At 50 % free-riders T-Chain beats every baseline outright.
    tchain_50 = fig9.value(rows, "tchain", 0.5)
    for protocol in ("bittorrent", "propshare", "fairtorrent"):
        assert fig9.value(rows, protocol, 0.5) >= tchain_50, protocol
