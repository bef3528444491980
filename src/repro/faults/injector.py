"""The deterministic fault injector.

A :class:`FaultInjector` interprets a :class:`repro.faults.plan.FaultPlan`
against one swarm.  It interposes at exactly three points:

* :meth:`control_fate` — consulted by :meth:`repro.bt.swarm.Swarm.send_control`
  for every control message (drop / extra delay / pass);
* :meth:`stall_delay` — consulted by :meth:`repro.bt.peer.Peer` when a
  finished piece transfer hands its payload to the receiver;
* the crash schedule — :meth:`attach` schedules one event per
  :class:`~repro.faults.plan.PeerCrash`, each calling
  :meth:`repro.bt.peer.Peer.crash` (unclean departure).

Every draw comes from a *named substream* of the run seed
(:func:`repro.sim.randomness.substream`), never from the simulation's
main ``Simulator.rng`` — attaching an injector therefore perturbs no
existing draw, and an idle plan reproduces the fault-free trace
bit-for-bit (``tests/test_faults.py::TestSubstreamIsolation``).
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.faults.plan import FaultPlan, FaultPlanError, PeerCrash
from repro.sim.randomness import substream

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.swarm import Swarm

#: Label of the injector's substream; documented in docs/FAULTS.md as
#: part of the determinism contract.
FAULT_STREAM_LABEL = "faults"


class FaultInjector:
    """Injects the faults of one plan into one swarm, reproducibly.

    Parameters
    ----------
    plan:
        The declarative fault plan.
    seed:
        Root seed the substream is derived from; pass the swarm's
        ``config.seed`` (``attach`` asserts they match when possible).
    """

    def __init__(self, plan: FaultPlan, seed: int):
        self.plan = plan
        self._draws = substream(seed, FAULT_STREAM_LABEL)
        self.seed = seed
        self.swarm: Optional["Swarm"] = None
        #: ids of peers this injector crashed, in crash order
        self.crashed_ids: List[str] = []
        self.crashes_skipped = 0
        #: severed-link sets per applied partition, keyed by plan index
        self._severed_by_partition: dict = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, swarm: "Swarm") -> "FaultInjector":
        """Install on ``swarm`` and schedule the crash plan."""
        if swarm.fault_injector is not None:
            raise RuntimeError("swarm already has a fault injector")
        if self.plan.partitions and getattr(swarm, "net", None) is None:
            raise FaultPlanError(
                "partition plans need the network substrate — run "
                "with extra={'net': ...}")
        self.swarm = swarm
        swarm.fault_injector = self
        for crash in self.plan.crashes:
            swarm.sim.schedule_at(crash.at_s, self._execute_crash, crash)
        for index, partition in enumerate(self.plan.partitions):
            swarm.sim.schedule_at(partition.at_s,
                                  self._apply_partition, index,
                                  partition)
            if partition.heal_s is not None:
                swarm.sim.schedule_at(partition.heal_s,
                                      self._heal_partition, index)
        return self

    # ------------------------------------------------------------------
    # Network partitions
    # ------------------------------------------------------------------
    def _apply_partition(self, index: int, partition) -> None:
        cut = self.swarm.net.sever(partition.groups)
        self._severed_by_partition[index] = cut

    def _heal_partition(self, index: int) -> None:
        cut = self._severed_by_partition.pop(index, ())
        self.swarm.net.restore(cut)

    @property
    def _counters(self):
        return self.swarm.metrics.recovery

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def control_fate(self, kind: str, sender_id: str,
                     receiver_id: str) -> Optional[float]:
        """Decide one control message's fate.

        Returns ``None`` for a drop, else the extra delay (>= 0) to
        add on top of the configured control latency.  The zero-rate
        guards matter: an idle plan must make *no* draws, so its
        substream state cannot influence anything.
        """
        plan = self.plan
        if plan.control_loss_prob > 0.0 \
                and self._draws.random() < plan.control_loss_prob:
            self._counters.control_dropped += 1
            return None
        if plan.control_delay_prob > 0.0 \
                and self._draws.random() < plan.control_delay_prob:
            extra = self._draws.uniform(0.0, plan.control_delay_s)
            self._counters.control_delayed += 1
            return extra
        return 0.0

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def stall_delay(self) -> float:
        """Extra seconds before a finished transfer's payload lands."""
        plan = self.plan
        if plan.upload_stall_prob > 0.0 \
                and self._draws.random() < plan.upload_stall_prob:
            self._counters.stalls += 1
            return self._draws.uniform(0.0, plan.upload_stall_s)
        return 0.0

    # ------------------------------------------------------------------
    # Peer lifecycle
    # ------------------------------------------------------------------
    def _execute_crash(self, crash: PeerCrash) -> None:
        victim = self._resolve_victim(crash)
        if victim is None:
            self.crashes_skipped += 1
            return
        self.crashed_ids.append(victim.id)
        self._counters.crashes += 1
        victim.crash()

    def _resolve_victim(self, crash: PeerCrash):
        swarm = self.swarm
        if crash.peer_id is not None:
            victim = swarm.find_peer(crash.peer_id)
            if victim is None or not victim.active:
                return None
            return victim
        # Seeded draw: prefer a leecher that is mid-transaction (the
        # interesting victim — its crash strands sealed pieces, silent
        # payees and unhandled keys); fall back to any active leecher.
        leechers = sorted(swarm.leechers(), key=lambda p: p.id)
        if not leechers:
            return None
        state = getattr(swarm, "_tchain_state", None)
        if state is not None:
            busy = [p for p in leechers
                    if state.ledger.open_transactions_involving(p.id)]
            if busy:
                return self._draws.choice(busy)
        return self._draws.choice(leechers)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"FaultInjector(seed={self.seed}, "
                f"crashed={self.crashed_ids}, "
                f"skipped={self.crashes_skipped})")
