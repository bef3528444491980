"""The replication network: T-Chain exchanges over storage.

:class:`ReplicationSystem` runs a population of storage nodes on the
discrete-event engine.  Owners periodically repair under-replicated
objects by finding a host; in **tchain** mode the host's commitment is
withheld until the owner reciprocates by hosting a replica for a
payee the host designates (the unmodified
:class:`~repro.core.exchange.ExchangeLedger` referees the exchange);
in the **altruistic** baseline hosts commit immediately.

Churn kills nodes (their hosted replicas vanish; their own objects
are lost unless a committed replica survives); replacements join
empty.  The measured quantities are the ones preservation systems
care about: object durability, committed replication factor, storage
fairness — and who gets them when free-riders are present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.chain import ChainRegistry
from repro.core.exchange import ExchangeLedger
from repro.core.transaction import Transaction, TransactionState
from repro.replication.node import NodeKind, StorageNode
from repro.replication.objects import ReplicaState, StoredObject
from repro.sim.engine import Simulator
from repro.sim.events import PeriodicTask


def _node_id(node: StorageNode) -> str:
    """Sort key for node lists (module-level so per-event candidate
    sorts don't rebuild a closure each call — SL303)."""
    return node.node_id


@dataclass
class ReplicationConfig:
    """Tunables of a replication run."""

    n_nodes: int = 24
    objects_per_node: int = 2
    capacity_units: int = 6
    target_replication: int = 2
    transfer_time_s: float = 5.0
    repair_interval_s: float = 20.0
    audit_interval_s: float = 60.0
    churn_interval_s: float = 40.0
    churn_kill_probability: float = 0.02
    duration_s: float = 600.0
    freerider_fraction: float = 0.0
    mode: str = "tchain"  # or "altruistic"
    seed: int = 0


@dataclass
class ReplicationReport:
    """Outcome of a run."""

    compliant_objects: int
    compliant_durable: int
    freerider_objects: int
    freerider_durable: int
    objects_lost: int
    mean_compliant_replication: float
    mean_freerider_replication: float
    storage_fairness: Dict[str, float] = field(default_factory=dict)

    @property
    def compliant_durability(self) -> float:
        """Fraction of compliant objects at/above one replica."""
        if self.compliant_objects == 0:
            return 0.0
        return self.compliant_durable / self.compliant_objects

    @property
    def freerider_durability(self) -> float:
        """Fraction of free-rider objects at/above one replica."""
        if self.freerider_objects == 0:
            return 0.0
        return self.freerider_durable / self.freerider_objects


class ReplicationSystem:
    """One replication network simulation."""

    def __init__(self, config: ReplicationConfig):
        if config.mode not in ("tchain", "altruistic"):
            raise ValueError(f"unknown mode {config.mode!r}")
        self.config = config
        self.sim = Simulator(seed=config.seed)
        self.ledger = ExchangeLedger(ChainRegistry())
        self.nodes: Dict[str, StorageNode] = {}
        self.objects: Dict[int, StoredObject] = {}
        self.objects_lost = 0
        self._next_object = 0
        self._next_node = 0
        #: owner id -> open transaction ids awaiting its reciprocation
        self._obligations: Dict[str, List[int]] = {}
        rng = self.sim.rng
        n_free = round(config.freerider_fraction * config.n_nodes)
        kinds = [NodeKind.FREERIDER] * n_free \
            + [NodeKind.COMPLIANT] * (config.n_nodes - n_free)
        rng.shuffle(kinds)
        for kind in kinds:
            self._spawn_node(kind)
        PeriodicTask(self.sim, config.repair_interval_s,
                     self._repair_round, first_delay=1.0)
        PeriodicTask(self.sim, config.audit_interval_s, self._audit)
        PeriodicTask(self.sim, config.churn_interval_s, self._churn)

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def _spawn_node(self, kind: NodeKind) -> StorageNode:
        self._next_node += 1
        node = StorageNode(node_id=f"N{self._next_node}",
                           capacity_units=self.config.capacity_units,
                           kind=kind)
        for _ in range(self.config.objects_per_node):
            obj = StoredObject(object_id=self._next_object,
                               owner_id=node.node_id)
            self._next_object += 1
            node.objects.append(obj)
            self.objects[obj.object_id] = obj
        self.nodes[node.node_id] = node
        return node

    def _alive_nodes(self) -> List[StorageNode]:
        return [n for n in self.nodes.values() if n.alive]

    # ------------------------------------------------------------------
    # Repair: owners seek hosts for under-replicated objects
    # ------------------------------------------------------------------
    def _repair_round(self) -> None:
        rng = self.sim.rng
        for node in sorted(self._alive_nodes(),
                           key=_node_id):
            for obj in node.needs_replicas(
                    self.config.target_replication):
                host = self._find_host(obj)
                if host is None:
                    continue
                if self.config.mode == "altruistic":
                    self._store_altruistically(host, obj)
                else:
                    self._store_tchain(host, node, obj)

    def _find_host(self, obj: StoredObject) -> Optional[StorageNode]:
        rng = self.sim.rng
        candidates = [
            n for n in self._alive_nodes()
            if n.node_id != obj.owner_id
            and obj.object_id not in n.hosted
            and n.can_host()
        ]
        if not candidates:
            return None
        candidates.sort(key=_node_id)
        return rng.choice(candidates)

    # ------------------------------------------------------------------
    # Altruistic baseline
    # ------------------------------------------------------------------
    def _store_altruistically(self, host: StorageNode,
                              obj: StoredObject) -> None:
        host.host(obj.object_id)
        obj.replicas[host.node_id] = ReplicaState.PENDING
        self.sim.schedule(self.config.transfer_time_s,
                          self._commit_replica, host.node_id,
                          obj.object_id)

    # ------------------------------------------------------------------
    # T-Chain exchange
    # ------------------------------------------------------------------
    def _store_tchain(self, host: StorageNode, owner: StorageNode,
                      obj: StoredObject) -> None:
        """Host stores the object; owner owes a reciprocation toward a
        payee (another owner with replication needs) chosen by the
        host."""
        payee = self._select_payee(host, owner)
        chain = self.ledger.begin_chain(host.node_id, False,
                                        self.sim.now)
        if payee is None:
            # termination analogue: nobody needs anything — commit
            # unconditionally
            tx, _ = self.ledger.create_transaction(
                chain, host.node_id, owner.node_id, None,
                obj.object_id, self.sim.now, encrypted=False)
            host.host(obj.object_id)
            obj.replicas[host.node_id] = ReplicaState.PENDING
            self.sim.schedule(self.config.transfer_time_s,
                              self._finish_unconditional,
                              tx.transaction_id, host.node_id,
                              obj.object_id)
            return
        tx, _ = self.ledger.create_transaction(
            chain, host.node_id, owner.node_id, payee.node_id,
            obj.object_id, self.sim.now)
        host.host(obj.object_id)
        obj.replicas[host.node_id] = ReplicaState.PENDING
        self.sim.schedule(self.config.transfer_time_s,
                          self._replica_stored, tx.transaction_id)

    def _select_payee(self, host: StorageNode,
                      owner: StorageNode) -> Optional[StorageNode]:
        rng = self.sim.rng
        candidates = [
            n for n in self._alive_nodes()
            if n.node_id not in (host.node_id, owner.node_id)
            and n.needs_replicas(self.config.target_replication)
        ]
        if host.needs_replicas(self.config.target_replication):
            return host  # direct reciprocity: host itself
        if not candidates:
            return None
        candidates.sort(key=_node_id)
        return rng.choice(candidates)

    def _replica_stored(self, transaction_id: int) -> None:
        """The host finished writing the replica; now the owner owes."""
        tx = self.ledger.find(transaction_id)
        if tx is None or tx.state is not TransactionState.CREATED:
            return
        self.ledger.mark_delivered(transaction_id, self.sim.now)
        owner = self.nodes.get(tx.requestor_id)
        if owner is None or not owner.alive:
            return
        self._obligations.setdefault(owner.node_id, []).append(
            transaction_id)
        self.sim.call_now(self._fulfil_obligations, owner.node_id)

    def _fulfil_obligations(self, owner_id: str) -> None:
        owner = self.nodes.get(owner_id)
        if owner is None or not owner.alive:
            return
        pending = self._obligations.get(owner_id, [])
        for tx_id in list(pending):
            tx = self.ledger.find(tx_id)
            if tx is None or tx.state is not TransactionState.DELIVERED:
                pending.remove(tx_id)
                continue
            if owner.kind is NodeKind.FREERIDER:
                continue  # never reciprocates; replica stays pending
            payee = self.nodes.get(tx.payee_id)
            if payee is None or not payee.alive:
                continue
            under = payee.needs_replicas(
                self.config.target_replication)
            under = [o for o in under
                     if o.object_id not in owner.hosted
                     and o.owner_id != owner.node_id]
            if not under or owner.free_units <= 0:
                continue
            target_obj = under[0]
            next_payee = self._select_payee(owner, payee)
            chain = self.ledger.registry.revive(tx.chain_id)
            if next_payee is None:
                next_tx, _ = self.ledger.create_transaction(
                    chain, owner.node_id, payee.node_id, None,
                    target_obj.object_id, self.sim.now,
                    reciprocates=tx_id, encrypted=False)
            else:
                next_tx, _ = self.ledger.create_transaction(
                    chain, owner.node_id, payee.node_id,
                    next_payee.node_id, target_obj.object_id,
                    self.sim.now, reciprocates=tx_id)
            owner.host(target_obj.object_id)
            target_obj.replicas[owner.node_id] = ReplicaState.PENDING
            pending.remove(tx_id)
            self.sim.schedule(self.config.transfer_time_s,
                              self._reciprocation_stored,
                              next_tx.transaction_id)

    def _reciprocation_stored(self, transaction_id: int) -> None:
        tx = self.ledger.find(transaction_id)
        if tx is None or tx.state is not TransactionState.CREATED:
            return
        prev = self.ledger.mark_delivered(transaction_id, self.sim.now)
        if not tx.encrypted:
            # unconditional store completes immediately
            self._commit_replica(tx.donor_id, tx.piece_index)
        else:
            beneficiary = self.nodes.get(tx.requestor_id)
            if beneficiary is not None and beneficiary.alive:
                self._obligations.setdefault(
                    tx.requestor_id, []).append(transaction_id)
                self.sim.call_now(self._fulfil_obligations,
                                  tx.requestor_id)
        if prev is not None:
            # payee's report reaches the original host: commitment
            self.ledger.report_reciprocation(prev.transaction_id,
                                             self.sim.now)
            self.ledger.release_key(prev.transaction_id, self.sim.now)
            self.ledger.settle(prev.transaction_id)
            self._commit_replica(prev.donor_id, prev.piece_index)

    def _finish_unconditional(self, transaction_id: int,
                              host_id: str, object_id: int) -> None:
        tx = self.ledger.find(transaction_id)
        if tx is not None and tx.state is TransactionState.CREATED:
            self.ledger.mark_delivered(transaction_id, self.sim.now)
        self._commit_replica(host_id, object_id)

    def _commit_replica(self, host_id: str, object_id: int) -> None:
        host = self.nodes.get(host_id)
        obj = self.objects.get(object_id)
        if host is None or obj is None or not host.alive:
            return
        if obj.replicas.get(host_id) is ReplicaState.PENDING:
            host.commit(object_id)
            host.commitments_received += 1
            obj.replicas[host_id] = ReplicaState.COMMITTED

    # ------------------------------------------------------------------
    # Audits and churn
    # ------------------------------------------------------------------
    def _audit(self) -> None:
        """Hosts drop replicas whose commitment never came: storage
        reclaimed from non-reciprocating owners."""
        for node in self._alive_nodes():
            for object_id in list(node.hosted_ids(
                    ReplicaState.PENDING)):
                node.drop(object_id)
                obj = self.objects.get(object_id)
                if obj is not None:
                    obj.drop_at(node.node_id)

    def _churn(self) -> None:
        rng = self.sim.rng
        for node in sorted(self._alive_nodes(),
                           key=_node_id):
            if rng.random() >= self.config.churn_kill_probability:
                continue
            node.alive = False
            # hosted replicas vanish
            for object_id in list(node.hosted):
                self.objects[object_id].drop_at(node.node_id)
                node.drop(object_id)
            # its own objects survive only through committed replicas
            for obj in node.objects:
                if obj.replication_factor() == 0:
                    self.objects_lost += 1
                    del self.objects[obj.object_id]
                    # reclaim any pending replicas of the lost object
                    for host_id in list(obj.replicas):
                        holder = self.nodes.get(host_id)
                        if holder is not None:
                            holder.drop(obj.object_id)
            node.objects = [o for o in node.objects
                            if o.object_id in self.objects]
            self._obligations.pop(node.node_id, None)
            self._spawn_node(node.kind)

    # ------------------------------------------------------------------
    # Run + report
    # ------------------------------------------------------------------
    def run(self) -> ReplicationReport:
        """Run for the configured duration and report."""
        self.sim.run(until=self.config.duration_s)
        return self.report()

    def report(self) -> ReplicationReport:
        """Current durability/fairness snapshot."""
        compliant_objs, freerider_objs = [], []
        for obj in self.objects.values():
            owner = self.nodes.get(obj.owner_id)
            if owner is None:
                continue
            if owner.kind is NodeKind.FREERIDER:
                freerider_objs.append(obj)
            else:
                compliant_objs.append(obj)

        def durable(objs):
            return sum(1 for o in objs if o.replication_factor() >= 1)

        def mean_rf(objs):
            if not objs:
                return 0.0
            return sum(o.replication_factor()
                       for o in objs) / len(objs)

        fairness = {}
        for node in self._alive_nodes():
            hosted_for_me = sum(
                1 for obj in node.objects
                for state in obj.replicas.values()
                if state is ReplicaState.COMMITTED)
            fairness[node.node_id] = (
                hosted_for_me / max(1, node.stored_for_others))
        return ReplicationReport(
            compliant_objects=len(compliant_objs),
            compliant_durable=durable(compliant_objs),
            freerider_objects=len(freerider_objs),
            freerider_durable=durable(freerider_objs),
            objects_lost=self.objects_lost,
            mean_compliant_replication=mean_rf(compliant_objs),
            mean_freerider_replication=mean_rf(freerider_objs),
            storage_fairness=fairness,
        )
