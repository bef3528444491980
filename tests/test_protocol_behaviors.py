"""Behavioural tests for the individual baseline protocols."""

import pytest

from repro.bt.config import (DEFAULT_LEECHER_CAPACITIES, SEEDER_SLOTS,
                             UPLOAD_SLOTS, SwarmConfig)
from repro.bt.protocols import PROTOCOLS
from repro.bt.protocols.base import OPTIMISTIC_SLOTS, BaselineSeeder
from repro.bt.protocols.fairtorrent import FairTorrentLeecher
from repro.bt.protocols.propshare import PropShareLeecher, RANDOM_SHARE
from repro.bt.swarm import Swarm
from repro.experiments import run_swarm


def small_swarm(protocol, n_pieces=8, seed=1, with_seeder=True):
    config = SwarmConfig(n_pieces=n_pieces, seed=seed)
    swarm = Swarm(config)
    seeder_cls, leecher_cls = PROTOCOLS[protocol]
    seeder = None
    if with_seeder:
        seeder = seeder_cls(swarm)
        seeder.join()
    return swarm, seeder, leecher_cls


class TestBaselineSeeder:
    def test_serves_interested_neighbors(self):
        swarm, seeder, leecher_cls = small_swarm("bittorrent")
        leecher = leecher_cls(swarm)
        leecher.join()
        swarm.sim.run(until=5.0)
        assert leecher.book.completed_count > 0

    def test_does_not_serve_uninterested(self):
        swarm, seeder, leecher_cls = small_swarm("bittorrent")
        leecher = leecher_cls(swarm)
        # complete the book BEFORE joining so the seeder never has a
        # reason to serve this peer
        for piece in range(swarm.torrent.n_pieces):
            leecher.book.add_completed(piece)
        leecher.join()
        seeder.pump()
        swarm.sim.run(until=5.0)
        assert seeder.kb_uploaded == 0.0

    def test_uses_config_capacity_and_slots(self):
        swarm, seeder, _ = small_swarm("bittorrent")
        assert seeder.uplink.capacity_kbps == \
            swarm.config.seeder_capacity_kbps
        assert seeder.uplink.n_slots == SEEDER_SLOTS

    def test_seeder_never_finishes_or_leaves(self):
        result = run_swarm(protocol="bittorrent", leechers=6,
                           pieces=4, seed=2)
        seeders = result.swarm.seeders()
        assert len(seeders) == 1
        assert seeders[0].finish_time is None


class TestBitTorrentChoking:
    def test_leecher_has_tft_plus_optimistic_slots(self):
        swarm, _, leecher_cls = small_swarm("bittorrent")
        leecher = leecher_cls(swarm)
        assert leecher.uplink.n_slots == UPLOAD_SLOTS + OPTIMISTIC_SLOTS

    def test_contributors_get_unchoked(self):
        swarm, _, leecher_cls = small_swarm("bittorrent")
        a = leecher_cls(swarm)
        a.join()
        a.book.add_completed(0)
        b = leecher_cls(swarm)
        b.join()
        b.book.add_completed(1)
        # b uploads a lot to a in this round
        a.contributions.record(b.id, 1024.0)
        a._rechoke()
        assert b.id in a.choker.unchoked


class TestPropShare:
    def test_random_share_is_twenty_percent(self):
        assert RANDOM_SHARE == pytest.approx(0.2)

    def test_draw_prefers_big_contributors(self):
        swarm, _, _ = small_swarm("propshare")
        leecher = PropShareLeecher(swarm)
        leecher.join()
        leecher.contributions.record("big", 1000.0)
        leecher.contributions.record("small", 1.0)
        leecher.contributions.roll()
        draws = [leecher._draw_receiver(["big", "small"])
                 for _ in range(200)]
        big_share = draws.count("big") / len(draws)
        assert big_share > 0.7

    def test_draw_uniform_without_history(self):
        swarm, _, _ = small_swarm("propshare")
        leecher = PropShareLeecher(swarm)
        leecher.join()
        draws = {leecher._draw_receiver(["a", "b"])
                 for _ in range(100)}
        assert draws == {"a", "b"}


class TestFairTorrent:
    def test_serves_lowest_deficit_first(self):
        # No seeder: keep the piece distribution exactly as staged.
        swarm, _, leecher_cls = small_swarm("fairtorrent",
                                            with_seeder=False)
        me = FairTorrentLeecher(swarm)
        me.join()
        creditor = leecher_cls(swarm)
        creditor.join()
        stranger = leecher_cls(swarm)
        stranger.join()
        # stage pieces only after all joins so no pump has fired yet
        me.book.add_completed(0)
        me.book.add_completed(1)
        me.deficits.on_received(creditor.id, 512.0)  # we owe creditor
        plan = me.next_upload()
        assert plan is not None
        assert plan.receiver_id == creditor.id

    def test_deficit_updates_on_traffic(self):
        result = run_swarm(protocol="fairtorrent", leechers=8,
                           pieces=6, seed=3)
        assert result.completion_rate("leecher") == 1.0


class TestRandomBT:
    def test_completes_without_incentives(self):
        result = run_swarm(protocol="random", leechers=10, pieces=6,
                           seed=4)
        assert result.completion_rate("leecher") == 1.0

    def test_freeriders_ride_freely(self):
        """Random BT has zero defenses — free-riders finish about as
        fast as everyone else."""
        result = run_swarm(protocol="random", leechers=20, pieces=8,
                           seed=5, freerider_fraction=0.25)
        assert result.metrics.completion_rate("freerider") == 1.0


class TestLeecherCapacities:
    def test_drawn_from_config_palette(self):
        result = run_swarm(protocol="bittorrent", leechers=30,
                           pieces=4, seed=6)
        palette = set(DEFAULT_LEECHER_CAPACITIES)
        for record in result.metrics.by_kind("leecher"):
            assert record.capacity_kbps in palette

    def test_heterogeneous(self):
        result = run_swarm(protocol="bittorrent", leechers=30,
                           pieces=4, seed=6)
        capacities = {r.capacity_kbps
                      for r in result.metrics.by_kind("leecher")}
        assert len(capacities) >= 3
