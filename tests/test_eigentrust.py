"""Tests for the EigenTrust baseline and the false-praise attack."""

import pytest

from repro.attacks import FreeRiderOptions
from repro.bt.config import SwarmConfig
from repro.bt.protocols import PROTOCOLS
from repro.bt.protocols.eigentrust import (
    EigenTrustLeecher,
    NEWCOMER_SHARE,
    TrustAuthority,
)
from repro.bt.swarm import Swarm
from repro.experiments import run_swarm


def authority_swarm(seed=1):
    swarm = Swarm(SwarmConfig(n_pieces=8, seed=seed))
    return swarm, TrustAuthority.of(swarm)


class TestTrustAuthority:
    def test_singleton_per_swarm(self):
        swarm, authority = authority_swarm()
        assert TrustAuthority.of(swarm) is authority

    def test_trust_flows_to_good_uploaders(self):
        swarm, authority = authority_swarm()
        seeder_cls, leecher_cls = PROTOCOLS["eigentrust"]
        a = leecher_cls(swarm)
        a.join()
        b = leecher_cls(swarm)
        b.join()
        c = leecher_cls(swarm)
        c.join()
        for _ in range(5):
            authority.report_satisfactory(a.id, b.id)
            authority.report_satisfactory(c.id, b.id)
        authority.recompute()
        assert authority.trust(b.id) > authority.trust(c.id)

    def test_self_rating_ignored(self):
        swarm, authority = authority_swarm()
        authority.report_satisfactory("X", "X")
        assert not authority.has_reputation("X")

    def test_trust_vector_normalized(self):
        swarm, authority = authority_swarm()
        _, leecher_cls = PROTOCOLS["eigentrust"]
        peers = [leecher_cls(swarm) for _ in range(4)]
        for p in peers:
            p.join()
        for rater in peers:
            for ratee in peers:
                if rater is not ratee:
                    authority.report_satisfactory(rater.id, ratee.id)
        authority.recompute()
        total = sum(authority.trust(p.id) for p in peers)
        assert total == pytest.approx(1.0, rel=0.05)

    def test_forget_peer_removes_all_traces(self):
        swarm, authority = authority_swarm()
        authority.report_satisfactory("A", "B")
        authority.report_satisfactory("B", "A")
        authority.forget_peer("B")
        assert not authority.has_reputation("B")
        assert authority.trust("B") == 0.0

    def test_false_praise_inflates_trust(self):
        swarm, authority = authority_swarm()
        _, leecher_cls = PROTOCOLS["eigentrust"]
        honest = [leecher_cls(swarm) for _ in range(3)]
        for p in honest:
            p.join()
        liar_a = leecher_cls(swarm)
        liar_a.join()
        liar_b = leecher_cls(swarm)
        liar_b.join()
        # genuine modest reputation among honest peers
        for rater in honest:
            for ratee in honest:
                if rater is not ratee:
                    authority.report_satisfactory(rater.id, ratee.id)
        # two liars praise each other massively
        authority.report_praise(liar_a.id, liar_b.id, 100.0)
        authority.report_praise(liar_b.id, liar_a.id, 100.0)
        authority.recompute()
        mean_honest = sum(authority.trust(p.id) for p in honest) / 3
        assert authority.trust(liar_a.id) > 0
        # liars bootstrap each other to nonzero standing without ever
        # uploading a byte
        assert authority.trust(liar_a.id) >= 0.3 * mean_honest


class TestEigenTrustSwarm:
    def test_compliant_swarm_completes(self):
        result = run_swarm(protocol="eigentrust", leechers=20,
                           pieces=10, seed=3)
        assert result.completion_rate("leecher") == 1.0

    def test_crashed_leecher_is_forgotten(self):
        """A crash skips ``on_leave``; the authority must still drop
        the crashed id, or its local trust row outlives the peer."""
        from repro.faults import FaultPlan, PeerCrash
        result = run_swarm(protocol="eigentrust", leechers=20,
                           pieces=32, seed=3,
                           fault_plan=FaultPlan(
                               crashes=(PeerCrash(at_s=20.0),)))
        crashed = result.summary().crashed_ids
        assert crashed == ("L10",)
        authority = TrustAuthority.of(result.swarm)
        assert "L10" not in authority._local
        assert not authority.has_reputation("L10")

    def test_newcomer_share_constant(self):
        assert NEWCOMER_SHARE == pytest.approx(0.1)

    def test_freeriders_survive_via_newcomer_share(self):
        """Table II / Sec. V: the 10 % altruism budget is the target
        of strategic free-riders — they finish, just slower."""
        result = run_swarm(protocol="eigentrust", leechers=30,
                           pieces=12, seed=2, freerider_fraction=0.25)
        metrics = result.metrics
        assert metrics.completion_rate("freerider") > 0.5
        fr = metrics.mean_completion_time("freerider")
        compliant = metrics.mean_completion_time("leecher")
        assert fr >= compliant * 0.9  # not faster than honest peers

    def test_false_praise_defeats_the_scheme(self):
        """With a praise ring, free-riders do at least as well as
        compliant peers — the vulnerability T-Chain's Table II row
        avoids by having no reputation aggregate at all."""
        options = FreeRiderOptions(large_view=True, whitewash=False,
                                   collude=True)
        plain = run_swarm(protocol="eigentrust", leechers=30,
                          pieces=12, seed=2, freerider_fraction=0.25)
        praised = run_swarm(protocol="eigentrust", leechers=30,
                            pieces=12, seed=2, freerider_fraction=0.25,
                            freerider_options=options)
        fr_plain = plain.metrics.mean_completion_time("freerider")
        fr_praised = praised.metrics.mean_completion_time("freerider")
        assert fr_praised < fr_plain

    def test_tchain_immune_where_eigentrust_falls(self):
        options = FreeRiderOptions(large_view=True, whitewash=False,
                                   collude=True)
        eigen = run_swarm(protocol="eigentrust", leechers=30,
                          pieces=12, seed=2, freerider_fraction=0.25,
                          freerider_options=options)
        tchain = run_swarm(protocol="tchain", leechers=30, pieces=12,
                           seed=2, freerider_fraction=0.25,
                           freerider_options=options)
        assert eigen.metrics.completion_rate("freerider") == 1.0
        assert tchain.metrics.completion_rate("freerider") < 0.5
