"""Network-substrate integration suite.

Three contracts (same pattern as the swarm-state suites):

* **Trace neutrality** — a run with an *idle* substrate attached (all
  latencies/jitter/loss zero, unconstrained bandwidth) must be
  bit-identical to the flat model, across protocols and seeds: the
  substrate adds delays of exactly ``0.0`` and makes no randomness
  draws, so enabling it must not move a single event.
* **WAN realism** — a lossy multi-DC latency-matrix swarm completes
  sanitizer-clean, control messages really drop, and completion takes
  longer than the flat equivalent.
* **Partition faults** — a :class:`NetworkPartition` severs the
  configured link groups on schedule, messages across the cut drop as
  unroutable, transfers cannot start across it, and after the heal
  the swarm still converges (all survivors finish).
"""

import pytest

from repro.experiments import run_swarm
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    NetworkPartition,
)
from tests.test_golden_traces import trace_observer

#: All-zero substrate: attached but physically inert.
IDLE_NET = {"topology": "star", "nodes": 4}

#: The canonical WAN: 3 DCs, 40-120 ms one-way, 3% loss, jitter.
WAN_NET = {"topology": "multi_dc", "loss": 0.03, "jitter_ms": 15.0}


def traced_run(extra, seed=7, protocol="tchain", **kwargs):
    """One run returning (event trace, result) under ``extra``."""
    trace = []

    def setup(swarm):
        swarm.sim.add_observer(trace_observer(trace))

    kwargs.setdefault("leechers", 10)
    kwargs.setdefault("pieces", 8)
    result = run_swarm(protocol=protocol, seed=seed, setup=setup,
                       extra=dict(extra), **kwargs)
    return trace, result


class TestIdleSubstrateTraceNeutral:
    @pytest.mark.parametrize("protocol", ["tchain", "bittorrent"])
    @pytest.mark.parametrize("seed", [3, 7])
    def test_idle_substrate_is_bit_identical(self, protocol, seed):
        flat_trace, flat = traced_run({}, seed=seed, protocol=protocol)
        idle_trace, idle = traced_run({"net": dict(IDLE_NET)},
                                      seed=seed, protocol=protocol)
        assert flat_trace == idle_trace
        assert flat.metrics.mean_completion_time() == \
            idle.metrics.mean_completion_time()

    def test_idle_substrate_draws_no_randomness(self):
        _, result = traced_run({"net": dict(IDLE_NET)})
        rng = result.swarm.net._rng
        from repro.sim.randomness import substream
        fresh = substream(result.swarm.config.seed, "net")
        assert rng.getstate() == fresh.getstate()


class TestWanScenario:
    def test_lossy_multi_dc_completes_sanitizer_clean(self):
        _, result = traced_run({"net": dict(WAN_NET)}, seed=3,
                               leechers=12, sanitize=True)
        assert result.completion_rate() == 1.0
        assert result.swarm.sim.sanitizer.checks_run > 0
        counters = result.swarm.net.counters
        assert counters.control_sent > 0
        assert counters.control_dropped > 0  # 3% loss really bites
        assert counters.transfers_priced > 0

    def test_wan_latency_slows_completion(self):
        _, flat = traced_run({}, seed=3)
        # A deliberately slow WAN (2 s between any two DCs) must
        # dominate completion time: every cross-DC piece is floored at
        # the path latency and every control message pays it too.
        slow = [[0.0, 2000.0, 2000.0],
                [2000.0, 0.0, 2000.0],
                [2000.0, 2000.0, 0.0]]
        _, wan = traced_run(
            {"net": {"topology": "multi_dc", "matrix_ms": slow}},
            seed=3)
        assert wan.metrics.mean_completion_time() > \
            flat.metrics.mean_completion_time()

    def test_substrate_composes_with_fault_injector(self):
        plan = FaultPlan(control_loss_prob=0.05)

        def setup(swarm):
            FaultInjector(plan, swarm.config.seed).attach(swarm)

        result = run_swarm(protocol="tchain", seed=5, leechers=10,
                           pieces=8, setup=setup, sanitize=True,
                           extra={"net": dict(WAN_NET)})
        assert result.completion_rate() == 1.0
        # Both layers dropped messages independently.
        assert result.swarm.net.counters.control_dropped > 0
        assert result.swarm.metrics.recovery.control_dropped > 0


class TestNetValueIsData:
    """``extra["net"]`` describes a network; each run builds its own.

    A live ``NetworkModel`` carries its rng, link cursors, placements
    and counters, so reusing one across runs made the same seed give
    different runs; it is refused instead.
    """

    @staticmethod
    def outcome(net):
        try:
            result = run_swarm(leechers=20, pieces=8, seed=3,
                               extra={"net": net})
        except TypeError:
            return "rejected"
        return result.swarm.sim.events_fired, result.swarm.sim.now

    def test_same_net_value_gives_the_same_run_twice(self):
        from repro.net.link import build_network
        from repro.net.topogen import graph_from_spec
        spec = {"topology": "multi_dc", "loss": 0.02, "jitter_ms": 10.0}
        graph = graph_from_spec(spec)[0]
        model = build_network(spec, seed=3)
        for net in (spec, graph, model):
            assert self.outcome(net) == self.outcome(net)


class TestNetworkPartitionFault:
    def partition_plan(self, at_s=4.0, heal_s=12.0):
        return FaultPlan(partitions=(
            NetworkPartition(at_s=at_s, groups=(("dc2",),),
                             heal_s=heal_s),))

    def test_partition_severs_and_heals_on_schedule(self):
        plan = self.partition_plan()
        seen = {}

        def setup(swarm):
            FaultInjector(plan, swarm.config.seed).attach(swarm)
            swarm.sim.schedule_at(8.0, lambda: seen.update(
                mid=dict(swarm.net.describe())))

        result = run_swarm(protocol="tchain", seed=11, leechers=12,
                           pieces=8, setup=setup, sanitize=True,
                           extra={"net": {"topology": "multi_dc"}})
        assert seen["mid"]["severed"] == 2  # dc2's two WAN links
        counters = result.swarm.net.counters
        assert counters.partitions_applied == 1
        assert counters.partitions_healed == 1
        assert counters.links_severed == 2
        assert counters.links_restored == 2
        assert len(result.swarm.net._severed) == 0

    def test_swarm_converges_after_heal(self):
        plan = self.partition_plan(at_s=2.0, heal_s=30.0)

        def setup(swarm):
            FaultInjector(plan, swarm.config.seed).attach(swarm)

        result = run_swarm(protocol="tchain", seed=2, leechers=12,
                           pieces=8, setup=setup, sanitize=True,
                           extra={"net": {"topology": "multi_dc"}})
        assert result.completion_rate() == 1.0
        counters = result.swarm.net.counters
        assert (counters.control_unroutable > 0
                or counters.transfers_unroutable > 0)

    def test_partition_plan_requires_substrate(self):
        plan = self.partition_plan()

        def setup(swarm):
            FaultInjector(plan, swarm.config.seed).attach(swarm)

        with pytest.raises(FaultPlanError):
            run_swarm(protocol="tchain", seed=2, leechers=4, pieces=4,
                      setup=setup)

    def test_partition_validation(self):
        with pytest.raises(FaultPlanError):
            NetworkPartition(at_s=5.0, groups=(("a",),), heal_s=5.0)
        with pytest.raises(FaultPlanError):
            NetworkPartition(at_s=1.0, groups=())

    def test_plan_with_partitions_is_not_idle(self):
        assert not self.partition_plan().idle
        assert FaultPlan().idle
