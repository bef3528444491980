"""Unit tests for the network substrate: links, topology generators,
routing, placement, partitions."""

import pytest

from random import Random

from repro.net.link import (
    Link,
    LinkSpec,
    NetGraph,
    NetworkModel,
    build_network,
    link_key,
)
from repro.net.routing import RouteTable
from repro.net.topogen import (
    DEFAULT_DC_MATRIX_MS,
    graph_from_spec,
    multi_dc,
    star,
)


def wan(loss=0.0, jitter_ms=0.0, bandwidth=None):
    return multi_dc(DEFAULT_DC_MATRIX_MS, loss_prob=loss,
                    jitter_ms=jitter_ms, bandwidth_kbps=bandwidth)


class TestLinkSpec:
    def test_rejects_self_link(self):
        with pytest.raises(ValueError):
            LinkSpec("a", "a")

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            LinkSpec("a", "b", loss_prob=1.0)
        with pytest.raises(ValueError):
            LinkSpec("a", "b", latency_s=-1.0)
        with pytest.raises(ValueError):
            LinkSpec("a", "b", bandwidth_kbps=0.0)

    def test_link_key_is_canonical(self):
        assert link_key("b", "a") == link_key("a", "b") == ("a", "b")


class TestLinkTraverse:
    def test_idle_link_is_free_and_drawless(self):
        link = Link(LinkSpec("a", "b"))

        class Boom:
            def random(self):
                raise AssertionError("idle link drew randomness")

            uniform = random

        assert link.traverse(0.0, 0.0, Boom()) == 0.0

    def test_latency_and_jitter(self):
        link = Link(LinkSpec("a", "b", latency_s=0.1, jitter_s=0.05))
        rng = Random(1)
        for _ in range(50):
            delay = link.traverse(0.0, 0.0, rng)
            assert 0.1 <= delay <= 0.15

    def test_loss_is_seeded(self):
        spec = LinkSpec("a", "b", loss_prob=0.5)
        link1, link2 = Link(spec), Link(spec)
        rng1, rng2 = Random(7), Random(7)
        fates1 = [link1.traverse(0.0, 0.0, rng1) for _ in range(64)]
        fates2 = [link2.traverse(0.0, 0.0, rng2) for _ in range(64)]
        assert fates1 == fates2
        assert None in fates1 and 0.0 in fates1
        assert link1.dropped == fates1.count(None)

    def test_fifo_queueing_serializes_sized_messages(self):
        # 1000 Kbps link: an 125 KB message serializes in 1 s.
        link = Link(LinkSpec("a", "b", bandwidth_kbps=1000.0))
        rng = Random(0)
        first = link.traverse(0.0, 125.0, rng)
        second = link.traverse(0.0, 125.0, rng)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)  # queued behind the first
        # After the queue drains, a later arrival is not delayed.
        third = link.traverse(10.0, 125.0, rng)
        assert third == pytest.approx(1.0)

    def test_zero_size_skips_the_queue(self):
        link = Link(LinkSpec("a", "b", bandwidth_kbps=8.0))
        rng = Random(0)
        link.traverse(0.0, 100.0, rng)  # occupies the link 100 s
        assert link.traverse(0.0, 0.0, rng) == 0.0


class TestTopogen:
    def test_star_shape(self):
        graph = star(4, latency_s=0.01)
        assert len(graph.nodes) == 5
        assert len(graph.links) == 4
        assert graph.attach_nodes == ("leaf0", "leaf1", "leaf2",
                                      "leaf3")

    def test_multi_dc_rejects_asymmetric_matrix(self):
        with pytest.raises(ValueError):
            multi_dc(((0.0, 10.0), (20.0, 0.0)))

    def test_graph_from_spec_round_trip(self):
        graph, placement, control_kb = graph_from_spec(
            {"topology": "multi_dc", "loss": 0.02,
             "placement": {"S1": "dc0"}, "control_kb": 0.5})
        assert placement == {"S1": "dc0"}
        assert control_kb == 0.5
        assert graph.nodes == ("dc0", "dc1", "dc2")

    def test_graph_from_spec_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            graph_from_spec({"topology": "star", "typo": 1})
        with pytest.raises(ValueError):
            graph_from_spec({"topology": "hypercube"})
        # a deleted generator is an unknown topology
        with pytest.raises(ValueError):
            graph_from_spec({"topology": "mesh"})


class TestRouting:
    def adj(self, *specs):
        model = NetworkModel(NetGraph(
            nodes=tuple(sorted({n for s in specs for n in s[:2]})),
            links=tuple(LinkSpec(a, b, latency_s=lat)
                        for a, b, lat in specs)))
        return model

    def test_shortest_by_latency_not_hops(self):
        model = self.adj(("a", "b", 0.001), ("b", "c", 0.001),
                         ("a", "c", 0.010))
        assert model.routes.path("a", "c") == ["a", "b", "c"]

    def test_deterministic_tie_break(self):
        model = self.adj(("a", "b", 0.001), ("b", "d", 0.001),
                         ("a", "c", 0.001), ("c", "d", 0.001))
        # Equal cost and hops: the lexicographically-first path wins.
        assert model.routes.path("a", "d") == ["a", "b", "d"]

    def test_cache_hits_and_invalidation(self):
        model = self.adj(("a", "b", 0.001), ("b", "c", 0.001))
        routes = model.routes
        assert routes.path("a", "c") is not None
        assert routes.path("a", "b") is not None
        assert routes.builds == 1 and routes.hits == 1
        routes.invalidate()
        assert routes.path("a", "c") is not None
        assert routes.builds == 2

    def test_unreachable_returns_none(self):
        model = NetworkModel(NetGraph(
            nodes=("a", "b", "c"),
            links=(LinkSpec("a", "b"),)))
        assert model.routes.path("a", "c") is None
        assert model.routes.distance("a", "c") is None


class TestPlacementAndPartitions:
    def test_round_robin_placement_is_deterministic(self):
        model = NetworkModel(wan())
        nodes = [model.place(f"L{i}") for i in range(5)]
        assert nodes == ["dc0", "dc1", "dc2", "dc0", "dc1"]
        # Idempotent: re-placing returns the assigned node.
        assert model.place("L0") == "dc0"

    def test_explicit_placement_pins(self):
        model = NetworkModel(wan(), placement={"S1": "dc2"})
        assert model.place("S1") == "dc2"

    def test_rename_keeps_geography(self):
        model = NetworkModel(wan())
        node = model.place("L1")
        model.rename("L1", "W9")
        assert model.node_of("W9") == node
        assert model.node_of("L1") is None

    def test_sever_and_heal_round_trip(self):
        model = NetworkModel(wan())
        assert model.control_fate("A", "B") is not None
        cut = model.sever([("dc1",)])  # isolate dc1 from the rest
        assert len(cut) == 2
        # A (dc0) to B (dc1) is now unroutable; dc0-dc2 still works.
        assert model.control_fate("A", "B") is None
        assert model.counters.control_unroutable == 1
        model.restore(cut)
        assert model.control_fate("A", "B") is not None
        assert model.counters.links_restored == 2

    def test_transfer_floor_none_across_partition(self):
        model = NetworkModel(wan())
        model.place("A"), model.place("B")
        model.sever([("dc1",)])
        assert model.transfer_floor("A", "B", 100.0) is None
        assert model.counters.transfers_unroutable == 1

    def test_sever_rejects_unknown_node(self):
        model = NetworkModel(wan())
        with pytest.raises(ValueError):
            model.sever([("atlantis",)])


class TestTransferFloor:
    def test_floor_is_latency_plus_bottleneck(self):
        graph = NetGraph(
            nodes=("a", "b", "c"),
            links=(LinkSpec("a", "b", latency_s=0.1,
                            bandwidth_kbps=8000.0),
                   LinkSpec("b", "c", latency_s=0.2,
                            bandwidth_kbps=800.0)))
        model = NetworkModel(graph, placement={"X": "a", "Y": "c"})
        # 100 KB over the 800 Kbps bottleneck = 1 s, plus 0.3 s
        # propagation.
        assert model.transfer_floor("X", "Y", 100.0) == \
            pytest.approx(1.3)

    def test_loss_degrades_throughput_deterministically(self):
        graph = NetGraph(
            nodes=("a", "b"),
            links=(LinkSpec("a", "b", bandwidth_kbps=800.0,
                            loss_prob=0.2),))
        model = NetworkModel(graph, placement={"X": "a", "Y": "b"})
        assert model.transfer_floor("X", "Y", 100.0) == \
            pytest.approx(1.0 / 0.8)

    def test_same_node_is_free(self):
        model = NetworkModel(wan(), placement={"X": "dc0",
                                               "Y": "dc0"})
        assert model.transfer_floor("X", "Y", 100.0) == 0.0
        assert model.control_fate("X", "Y") == 0.0

    def test_unconstrained_path_is_latency_only(self):
        model = NetworkModel(wan(), placement={"X": "dc0",
                                               "Y": "dc1"})
        assert model.transfer_floor("X", "Y", 1000.0) == \
            pytest.approx(0.040)


class TestBuildNetwork:
    def test_accepts_model_graph_and_dict(self):
        model = NetworkModel(wan())
        assert build_network(model) is model
        assert isinstance(build_network(wan()), NetworkModel)
        assert isinstance(
            build_network({"topology": "star", "nodes": 3}),
            NetworkModel)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            build_network(42)


class TestInertFastPath:
    def test_all_zero_connected_graph_is_inert(self):
        model = NetworkModel(star(4))
        assert model._inert
        assert model.control_fate("A", "B") == 0.0
        assert model.transfer_floor("A", "B", 100.0) == 0.0
        assert model.counters.control_sent == 1
        assert model.counters.transfers_priced == 1

    def test_any_nonzero_knob_disables_it(self):
        assert not NetworkModel(star(4, latency_s=0.01))._inert
        assert not NetworkModel(star(4, jitter_s=0.01))._inert
        assert not NetworkModel(star(4, loss_prob=0.1))._inert
        assert not NetworkModel(star(4, bandwidth_kbps=800.0))._inert

    def test_disconnected_graph_is_not_inert(self):
        model = NetworkModel(NetGraph(
            nodes=("a", "b", "c"), links=(LinkSpec("a", "b"),)))
        assert not model._inert
        model.place("X"), model.place("Y"), model.place("Z")
        assert model.control_fate("X", "Z") is None

    def test_sever_disables_and_heal_restores(self):
        model = NetworkModel(star(4))
        model.place("A"), model.place("B")
        cut = model.sever([("leaf0",)])
        assert not model._inert
        assert model.control_fate("A", "B") is None  # A sits on leaf0
        model.restore(cut)
        assert model._inert
        assert model.control_fate("A", "B") == 0.0
