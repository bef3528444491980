"""Figure 6: piece diversity (crawler) and initial-piece effects.

Shape checks: (a) neighbors differ in a substantial fraction of
pieces throughout the swarm's life (the paper's 612/2808 ≈ 22 %
average), so chains can always grow; (b) completion time falls
monotonically (≈ linearly) as leechers start with more pre-seeded
pieces, vanishing at 100 %.
"""

from conftest import run_once

from repro.experiments import fig6, run_figure


def test_fig6_diversity_and_initial_pieces(benchmark, scale, artifact):
    result = run_once(benchmark, lambda: run_figure(fig6, scale))
    samples, rows, n_pieces = result
    artifact("fig06", fig6.render(result))

    # (a) pairs differ in a healthy share of pieces mid-swarm.
    assert samples
    peak = max(s.mean_difference for s in samples)
    assert peak >= 0.15 * n_pieces

    # (b) more initial pieces -> faster completion, ~0 at 100 %.
    times = [r.mean_completion_s for r in rows]
    assert all(b <= a * 1.15 for a, b in zip(times, times[1:]))
    assert times[-1] <= 0.25 * times[0]
