"""Tests for the attack implementations themselves."""

import pytest

from repro.attacks import (
    FreeRiderOptions,
    make_freerider,
    make_freerider_factory,
    make_sybil_group,
)
from repro.bt.config import SwarmConfig
from repro.bt.protocols import PROTOCOLS
from repro.bt.protocols.bittorrent import BitTorrentLeecher
from repro.bt.protocols.tchain import TChainLeecher, TChainState
from repro.bt.swarm import Swarm
from repro.experiments import run_swarm
from repro.workloads.arrivals import flash_crowd, schedule_arrivals


def make_swarm(protocol="bittorrent", seed=1, **overrides):
    overrides.setdefault("n_pieces", 8)
    config = SwarmConfig(seed=seed, **overrides)
    swarm = Swarm(config)
    seeder_cls, _ = PROTOCOLS[protocol]
    seeder_cls(swarm).join()
    return swarm


class TestFreeRiderConstruction:
    def test_zero_capacity(self):
        swarm = make_swarm()
        fr = make_freerider(BitTorrentLeecher)(swarm)
        assert fr.uplink.capacity_kbps == 0.0
        assert fr.kind == "freerider"
        assert fr.next_upload() is None

    def test_class_cache(self):
        options = FreeRiderOptions()
        assert make_freerider(BitTorrentLeecher, options) is \
            make_freerider(BitTorrentLeecher, options)

    def test_distinct_options_distinct_classes(self):
        a = make_freerider(BitTorrentLeecher, FreeRiderOptions())
        b = make_freerider(BitTorrentLeecher,
                           FreeRiderOptions(whitewash=False))
        assert a is not b

    def test_class_name_mentions_base(self):
        cls = make_freerider(BitTorrentLeecher)
        assert "BitTorrentLeecher" in cls.__name__

    def test_factory_builds_peers(self):
        swarm = make_swarm()
        factory = make_freerider_factory(swarm, BitTorrentLeecher)
        fr = factory()
        assert fr.kind == "freerider"


class TestLargeView:
    def test_unlimited_neighbors(self):
        swarm = make_swarm()
        options = FreeRiderOptions(large_view=True, whitewash=False)
        fr = make_freerider(BitTorrentLeecher, options)(swarm)
        fr.join()
        assert fr.id in swarm.topology._unlimited

    def test_periodic_reannounce(self):
        # Slow seeder so the free-rider cannot finish (and leave)
        # within the observation window.
        swarm = make_swarm(n_pieces=64, seeder_capacity_kbps=600.0)
        options = FreeRiderOptions(large_view=True, whitewash=False)
        fr = make_freerider(BitTorrentLeecher, options)(swarm)
        fr.join()
        before = swarm.tracker.announce_count
        swarm.sim.run(until=35.0)
        assert fr.active  # still downloading
        assert swarm.tracker.announce_count >= before + 3

    def test_no_reannounce_without_large_view(self):
        swarm = make_swarm(n_pieces=64, seeder_capacity_kbps=600.0)
        options = FreeRiderOptions(large_view=False, whitewash=False)
        fr = make_freerider(BitTorrentLeecher, options)(swarm)
        fr.join()
        before = swarm.tracker.announce_count
        swarm.sim.run(until=35.0)
        assert fr.active
        assert swarm.tracker.announce_count == before


class TestWhitewashing:
    def test_whitewash_changes_identity_keeps_pieces(self):
        swarm = make_swarm()
        options = FreeRiderOptions(large_view=False, whitewash=True)
        fr = make_freerider(BitTorrentLeecher, options)(swarm)
        fr.join()
        old_id = fr.id
        fr.book.add_completed(0)
        fr.on_piece_completed(0)
        swarm.sim.run(until=1.0)
        assert fr.id != old_id
        assert fr.book.has(0)
        assert fr.whitewash_count == 1
        assert old_id not in swarm.peers
        assert fr.id in swarm.peers

    def test_whitewash_resets_neighbors_history(self):
        result = run_swarm(protocol="fairtorrent", leechers=20,
                           pieces=8, seed=4, freerider_fraction=0.2)
        frs = [p for p in result.swarm.departed.values()
               if p.kind == "freerider"]
        frs += [p for p in result.swarm.peers.values()
                if p.kind == "freerider"]
        assert any(p.whitewash_count > 0 for p in frs)

    def test_tchain_freeriders_never_whitewash_spontaneously(self):
        """Encrypted pieces give no whitewash trigger (Sec. III-A3)."""
        result = run_swarm(protocol="tchain", leechers=20, pieces=8,
                           seed=4, freerider_fraction=0.2,
                           max_time=500.0)
        frs = [p for p in result.swarm.peers.values()
               if p.kind == "freerider"]
        # whitewashing only after a *usable* piece; most T-Chain
        # free-riders never get one
        assert sum(p.whitewash_count for p in frs) <= \
            sum(p.book.completed_count for p in frs)


class TestCollusionRegistration:
    def test_colluders_registered_and_tracked_across_whitewash(self):
        swarm = make_swarm(protocol="tchain")
        options = FreeRiderOptions(large_view=False, whitewash=True,
                                   collude=True)
        fr = make_freerider(TChainLeecher, options)(swarm)
        fr.join()
        state = TChainState.of(swarm)
        assert fr.id in state.colluders
        old_id = fr.id
        fr.book.add_completed(0)
        fr.on_piece_completed(0)
        swarm.sim.run(until=1.0)
        assert old_id not in state.colluders
        assert fr.id in state.colluders


class TestSybil:
    def test_group_shares_book(self):
        swarm = make_swarm(protocol="tchain")
        group = make_sybil_group(swarm, TChainLeecher, size=3)
        assert len(group) == 3
        group[0].book.add_completed(2)
        assert group[1].book.has(2)
        assert group[2].book.has(2)

    def test_group_size_validation(self):
        swarm = make_swarm(protocol="tchain")
        with pytest.raises(ValueError):
            make_sybil_group(swarm, TChainLeecher, size=0)

    def test_sybils_join_and_are_colluders(self):
        swarm = make_swarm(protocol="tchain")
        group = make_sybil_group(swarm, TChainLeecher, size=3)
        schedule_arrivals(swarm, flash_crowd(
            [lambda p=p: p for p in group], swarm.sim.rng))
        swarm.run(max_time=20.0, stop_when_drained=False)
        state = TChainState.of(swarm)
        joined = [p for p in group if p.active]
        assert joined
        for peer in joined:
            assert peer.id in state.colluders

    def test_sybil_benefit_flows_only_through_false_reports(self):
        """Sybil identities gain usable pieces only via the collusion
        channel (a Sybil payee vouching for a Sybil requestor) or the
        rare termination gifts — never by plain non-reciprocation
        (Sec. III-A4)."""
        swarm = make_swarm(protocol="tchain")
        _, leecher_cls = PROTOCOLS["tchain"]
        compliant = [lambda: leecher_cls(swarm) for _ in range(12)]
        group = make_sybil_group(swarm, TChainLeecher, size=3)
        factories = compliant + [lambda p=p: p for p in group]
        schedule_arrivals(swarm, flash_crowd(factories, swarm.sim.rng))
        swarm.run(max_time=600.0)
        state = TChainState.of(swarm)
        decrypted = group[0].book.completed_count
        gifts = sum(
            1 for t in state.ledger._transactions.values()
            if not t.encrypted and t.requestor_id.startswith("Y"))
        if decrypted > gifts:
            assert state.ledger.collusion_successes > 0
