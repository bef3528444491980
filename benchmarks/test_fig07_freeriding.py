"""Figure 7: 25 % free-riders with large-view + whitewashing.

Shape checks (paper Sec. IV-C): free-riders complete their downloads
under BitTorrent, PropShare and FairTorrent but not a single one
completes under T-Chain; compliant T-Chain leechers are protected —
their slowdown against the no-free-rider baseline stays well below
the worst baseline's.
"""

from conftest import run_once

from repro.experiments import fig7, run_figure


def test_fig7_freeriding(benchmark, scale, artifact):
    rows = run_once(benchmark, lambda: run_figure(fig7, scale))
    artifact("fig07", fig7.render(rows))

    by_protocol = {}
    for row in rows:
        by_protocol.setdefault(row.protocol, []).append(row)

    # (b) free-riders succeed against every baseline...
    for protocol in ("bittorrent", "propshare", "fairtorrent"):
        rates = [r.freerider_completion_rate
                 for r in by_protocol[protocol]]
        assert sum(rates) / len(rates) > 0.5, protocol

    # ...and never against T-Chain (no T-Chain line in Fig. 7(b)).
    for row in by_protocol["tchain"]:
        assert row.freerider_completion_rate == 0.0
        assert row.freerider_completion_s is None

    # (a) compliant leechers still finish everywhere in sane time.
    for row in rows:
        assert row.compliant_completion_s > 0

    # (a) T-Chain compliant times competitive with the baselines.
    tchain_mean = sum(r.compliant_completion_s
                      for r in by_protocol["tchain"]) / \
        len(by_protocol["tchain"])
    bt_mean = sum(r.compliant_completion_s
                  for r in by_protocol["bittorrent"]) / \
        len(by_protocol["bittorrent"])
    assert tchain_mean <= 1.3 * bt_mean
