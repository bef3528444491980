"""Deterministic fault injection for the T-Chain exchange.

Three pieces (see docs/FAULTS.md):

* :mod:`repro.faults.plan` — :class:`FaultPlan`, the declarative
  failure configuration (control-message loss/delay, peer crash
  schedule, upload stalls);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which draws
  every fault decision from a *named substream* of the run seed so an
  attached-but-idle injector reproduces the fault-free event trace
  bit-for-bit;
* :mod:`repro.faults.harness` — :func:`chaos_spec` / :func:`run_chaos`,
  the chaos regression harness CI runs (``repro chaos``);
* :mod:`repro.faults.workerkill` — :class:`WorkerKill`, seeded
  SIGKILL injection for sweep-fabric worker processes
  (``repro sweep --kill-prob``, docs/SWEEPS.md).

The recovery machinery the faults exercise lives in the protocol glue
(:mod:`repro.bt.protocols.tchain`): report/key retransmission with
capped exponential backoff, the requestor plead path, donor-crash
orphan handling.
"""

from repro.faults.harness import (ChaosResult, chaos_spec, crash_schedule,
                                  run_chaos)
from repro.faults.injector import FAULT_STREAM_LABEL, FaultInjector
from repro.faults.plan import (FaultPlan, FaultPlanError,
                               NetworkPartition, PeerCrash)
from repro.faults.workerkill import WORKERKILL_STREAM_LABEL, WorkerKill

__all__ = [
    "FAULT_STREAM_LABEL",
    "WORKERKILL_STREAM_LABEL",
    "ChaosResult",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "NetworkPartition",
    "PeerCrash",
    "WorkerKill",
    "chaos_spec",
    "crash_schedule",
    "run_chaos",
]
