"""Figure 11: opportunistic seeding.

Shape checks: (a) in a flash crowd, leechers initiate a burst of
chains early (the seeder alone cannot feed the crowd) and the
leecher-initiated rate then falls off — most late chains come from
reciprocation, not initiation; (b) under the trace, the fraction of
opportunistically-created chains grows with the free-rider share.
"""

from conftest import run_once

from repro.experiments import fig11, run_figure


def test_fig11_opportunistic_seeding(benchmark, scale, artifact):
    cumulative, rows = run_once(benchmark,
                                lambda: run_figure(fig11, scale))
    artifact("fig11", fig11.render((cumulative, rows)))

    # (a) leechers do initiate chains...
    seeder_total, leecher_total = cumulative.final_counts()
    assert leecher_total > 0
    assert seeder_total > 0

    # ...mostly early: at least half of all leecher-initiated chains
    # exist by the first third of the run.
    samples = cumulative.samples
    third = samples[max(1, len(samples) // 3)]
    assert third[2] >= 0.3 * leecher_total

    # (b) opportunistic share grows with the free-rider share.
    shares = [r.opportunistic_fraction for r in rows]
    assert shares[-1] > shares[0]
    assert shares[-1] >= max(shares) * 0.6  # roughly increasing
