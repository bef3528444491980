"""Fault-plan traces: the recovery paths the golden digests miss.

``tests/test_golden_traces.py`` pins 25 fault-free or loss-only runs;
none of them crashes a peer, so the orphan write-off, the departing
donor's key handover and the donor re-sending a key its requestor
still waits for (crash, then plead) are unpinned there.  Each digest
below hashes the full event trace, the final per-peer metric rows and
the recovery counters of a T-Chain run under crashes plus control
loss, delay and upload stalls, with and without free-riders; both
runs are sanitized (which leaves the trace unchanged).

A digest that moves means the simulation moved; regenerate only for a
change that is meant to alter traces.

Licence v0 (the same as for ``tests/test_golden_traces.py``): a PR
may regenerate these digests only when all four hold:

1. the shape suite (``pytest benchmarks --ignore=benchmarks/perf``)
   passes, with the regenerated ``benchmarks/out`` committed;
2. CHANGES.md lists every ``benchmarks/out`` row that moved, with its
   parent value beside the new one;
3. no compliant completion rate falls in any table;
4. the PR says in one sentence why the trace had to move.
"""

import dataclasses
import hashlib

import pytest

from repro.faults import FaultPlan, crash_schedule
from tests.test_golden_traces import traced_run

#: Crashes plus lossy, delayed and stalling control/data planes.
PLAN = FaultPlan(control_loss_prob=0.25, control_delay_prob=0.15,
                 control_delay_s=2.0, upload_stall_prob=0.1,
                 upload_stall_s=8.0,
                 crashes=tuple(crash_schedule(4, first_s=10.0,
                                              spacing_s=15.0)))

#: 0.0 was taken on the last commit whose exchange ledger kept every
#: transaction, key and sealed piece of the run; 0.25 when a crashed
#: free-rider's periodic tasks began to stop with it (112 post-crash
#: ticks of F6 and W28 left the trace, nothing else moved).
FAULT_GOLDEN = {
    0.0: "0ca69da49479221b4d5108d5d032550843bd23cc648be5df1f0f97fef92a024e",
    0.25:
        "912e6c9a442e091faa4a92d83ef977fc554c2607987fde233b61f0c988ffe9f0",
}


def fault_digest(freerider_fraction):
    digest, result = traced_run(protocol="tchain", seed=3, leechers=24,
                                pieces=10, fault_plan=PLAN, sanitize=True,
                                freerider_fraction=freerider_fraction)
    recovery = dataclasses.astuple(result.swarm.metrics.recovery)
    return hashlib.sha256(
        (digest + repr(recovery)).encode("ascii")).hexdigest(), result


@pytest.mark.parametrize("freerider_fraction", sorted(FAULT_GOLDEN))
def test_fault_plan_trace(freerider_fraction):
    digest, result = fault_digest(freerider_fraction)
    recovery = result.swarm.metrics.recovery
    # The scenario reaches the paths it exists to pin.
    assert recovery.crashes == 4
    assert recovery.orphaned_chains > 0 and recovery.dead_letters > 0
    assert recovery.pleads > 0 and recovery.reopens > 0
    assert recovery.key_retransmits > 0 and recovery.forgives > 0
    assert digest == FAULT_GOLDEN[freerider_fraction]
