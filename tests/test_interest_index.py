"""Interest regression suite.

Interest — *who wants a piece that whom holds* — is answered from the
bitmask books through the one swarm state (``repro.bt.columnar``).
Two contracts are under test:

* **Trace neutrality** — mask-native interest is bit-identical (full
  event trace *and* final metrics) to the naive per-neighbour
  ``wanted() & completed`` rescans it replaced, pinned by digests
  taken from those rescans (``tests/test_golden_traces.py``).
* **Consistency** — at the end of a plain (freerider-free) baseline
  run, every column must equal a from-scratch rescan
  (``ColumnarState.check_consistency``).

The churn, flow-window and sanitizer properties, ``plain-fairtorrent-7``
and the removed-key checks live in ``tests/test_columnar.py``.
"""

import pytest

from repro.experiments import run_swarm

from tests.test_golden_traces import FLASH, PLAIN, assert_golden


class TestTraceNeutrality:
    def test_tchain_full_trace_bit_identical(self):
        assert_golden("churn-tchain-7", protocol="tchain", seed=7,
                      **FLASH)

    @pytest.mark.parametrize("protocol", ["bittorrent", "propshare",
                                          "random"])
    def test_baseline_protocols_bit_identical(self, protocol):
        assert_golden(f"plain-{protocol}-7", protocol=protocol, seed=7,
                      **PLAIN)


class TestChurnConsistency:
    def test_final_state_consistent_for_baselines(self):
        for protocol in ("bittorrent", "propshare", "fairtorrent",
                         "random"):
            result = run_swarm(protocol=protocol, seed=5, leechers=8,
                               pieces=6)
            result.swarm.columnar.check_consistency()
