"""Figure 10: active chains over time.

Shape checks: under a flash crowd the chain count climbs well above
its starting level, then collapses as leechers finish and depart
(termination tracks departure); under the continuous trace the chain
count moves with the active-leecher count.
"""

from conftest import run_once

from repro.experiments import fig10, run_figure


def test_fig10_active_chains(benchmark, scale, artifact):
    flash, trace = run_once(benchmark, lambda: run_figure(fig10, scale))
    artifact("fig10", fig10.render((flash, trace)))

    # (a) chains ramp up then die with the swarm.
    assert flash.peak_chains() >= 5
    assert flash.chains_at_end() <= 0.2 * flash.peak_chains()

    # (a) the peak occurs while leechers are still present.
    peak_time = max(flash.samples, key=lambda s: s[1])[0]
    last_time = flash.samples[-1][0]
    assert peak_time < last_time

    # (b) chains and leechers correlate positively over the trace.
    chains = [c for _, c, _ in trace.samples]
    leechers = [l for _, _, l in trace.samples]
    assert _pearson(chains, leechers) > 0.3


def _pearson(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return 0.0
    return sxy / (sxx * syy) ** 0.5
