"""Interest regression suite.

Interest — *who wants a piece that whom holds* — is answered from the
bitmask books through the one swarm state (``repro.bt.columnar``).
Two contracts are under test:

* **Trace neutrality** — mask-native interest is bit-identical (full
  event trace *and* final metrics) to the naive per-neighbour
  ``wanted() & completed`` rescans it replaced, pinned by digests
  taken from those rescans (``tests/test_golden_traces.py``).
* **Consistency under churn** — after *every* fired event in a
  scenario full of joins, completion-leaves, whitewash rebrands,
  crashes and flow-window churn, every column (the maintained
  availability counts included) must equal a from-scratch rescan
  (``ColumnarState.check_consistency``), and each T-Chain node's
  flow window (``flow.blocked``) must equal the over-window set
  recounted from its pending pieces.
"""

import pytest

from repro.experiments import run_swarm

from tests.test_golden_traces import (
    FLASH,
    PLAIN,
    assert_golden,
    check_every_event,
)


class TestTraceNeutrality:
    def test_tchain_full_trace_bit_identical(self):
        assert_golden("churn-tchain-7", protocol="tchain", seed=7,
                      **FLASH)

    @pytest.mark.parametrize("protocol", ["bittorrent", "propshare",
                                          "fairtorrent", "random"])
    def test_baseline_protocols_bit_identical(self, protocol):
        assert_golden(f"plain-{protocol}-7", protocol=protocol, seed=7,
                      **PLAIN)

    @pytest.mark.parametrize("key", ["columnar", "interest_index"])
    def test_removed_extra_keys_fail_loudly(self, key):
        with pytest.raises(ValueError, match=f"unknown extra key.*{key}.*removed"):
            run_swarm(protocol="tchain", seed=3, leechers=6, pieces=5,
                      extra={key: False})

    def test_unknown_extra_key_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown extra.*sanitise"):
            run_swarm(protocol="tchain", seed=3, leechers=6, pieces=5,
                      extra={"sanitise": True})


class TestSanitizedChaosRun:
    def test_sanitizer_clean_with_index_on(self):
        """The simulation sanitizer stays quiet over a trace-arrival
        churn scenario (conservation + fair-exchange invariants) and
        the interest state is consistent at the end."""
        result = run_swarm(protocol="tchain", seed=13, sanitize=True,
                           arrival="trace", **FLASH)
        assert result.swarm.sim.events_fired > 200
        result.swarm.columnar.check_consistency()


def _assert_flow_windows(swarm):
    """Every T-Chain node's blocked set is its over-window set, and
    ``eligible`` answers from it.  (``check_consistency`` recounts the
    set too; this spells the definition out independently.)"""
    seen = 0
    for peer in swarm.peers.values():
        flow = getattr(peer, "flow", None)
        if flow is None or not peer.active:
            continue
        seen += 1
        expected = {nid for nid, count in flow._pending.items()
                    if count >= flow.pending_limit}
        assert flow.blocked == expected, (
            f"{peer.id}: blocked {sorted(flow.blocked)} != "
            f"{sorted(expected)}")
        assert all(flow.eligible(nid) != (nid in expected)
                   for nid in flow._pending)
    assert seen


class TestChurnConsistency:
    """The randomized-churn property test: swarm state == naive rescan
    after every event."""

    def test_index_matches_rescan_after_every_event(self):
        checks = []

        def setup(swarm):
            def crash_one():
                # Deterministic mid-run crash: the first active
                # non-seeder joins the churn mix.
                for pid in sorted(swarm.peers):
                    peer = swarm.peers[pid]
                    if peer.active and peer.kind != "seeder":
                        peer.crash()
                        return

            swarm.sim.schedule(40.0, crash_one)
            check_every_event(swarm, checks, also=_assert_flow_windows)

        run_swarm(protocol="tchain", seed=11, setup=setup, **FLASH)
        assert len(checks) > 200  # the property was actually exercised

    def test_final_state_consistent_for_baselines(self):
        for protocol in ("bittorrent", "propshare", "fairtorrent",
                         "random"):
            result = run_swarm(protocol=protocol, seed=5, leechers=8,
                               pieces=6)
            result.swarm.columnar.check_consistency()
