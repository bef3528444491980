"""Figure 12: fairness-factor CDFs.

Shape checks: with no free-riders all four protocols produce tight
fairness distributions; with 25 % free-riders T-Chain's distribution
stays tight (steep CDF near 1) while the baselines spread out —
T-Chain's p10–p90 spread is the smallest of the four.
"""

from conftest import run_once

from repro.experiments import fig12, run_figure


def test_fig12_fairness(benchmark, scale, artifact):
    curves = run_once(benchmark, lambda: run_figure(fig12, scale))
    artifact("fig12", fig12.render(curves))

    clean = {c.protocol: c for c in curves[0.0]}
    attacked = {c.protocol: c for c in curves[0.25]}

    # Everyone produced data.
    for c in list(clean.values()) + list(attacked.values()):
        assert len(c.factors) > 5, c.protocol

    # (a) no free-riders: medians in a sane band around 1 (allowing
    # the seeder's contribution to lift them).
    for c in clean.values():
        assert 0.6 <= c.median() <= 2.5, c.protocol

    # (b) under attack T-Chain has the tightest distribution.
    tchain_spread = attacked["tchain"].spread()
    for protocol in ("bittorrent", "propshare", "fairtorrent"):
        assert tchain_spread <= attacked[protocol].spread() * 1.1, \
            protocol

    # T-Chain's spread should not blow up under attack.
    assert tchain_spread <= 2.5 * max(clean["tchain"].spread(), 0.2)
