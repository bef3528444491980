"""The empty-handed gate in ``Peer.pump``.

A peer that holds nothing (``book.cmask == 0``) and owes nothing (no
T-Chain ``obligations``) returns from ``pump()`` before calling
``next_upload()``.  That is trace-neutral only because, for every
registered protocol, the skipped call is a guaranteed ``None`` that
draws nothing and schedules nothing.  The first test holds each
protocol to that claim on its own, so a future ``next_upload`` with a
side effect fails here instead of being gated silently.
"""

import pytest

from repro.attacks.freerider import FreeRiderOptions, make_freerider
from repro.bt.config import SwarmConfig
from repro.bt.protocols import PROTOCOLS
from repro.bt.protocols.tchain import TChainLeecher, TChainSeeder
from repro.bt.swarm import Swarm

FREERIDERS = [
    FreeRiderOptions(),
    FreeRiderOptions(large_view=False, whitewash=False),
    FreeRiderOptions(collude=True),
]

CASES = [(name, None) for name in sorted(PROTOCOLS)] + [
    (name, options) for name in sorted(PROTOCOLS)
    for options in FREERIDERS]


def case_id(case):
    name, options = case
    if options is None:
        return name
    flags = [flag for flag in ("large_view", "whitewash", "collude")
             if getattr(options, flag)]
    return f"{name}-freerider-{'+'.join(flags) or 'plain'}"


def busy_swarm(protocol, seed=4):
    """A seeder and five leechers a few seconds into a download:
    neighbours with pieces, wants, unchokes and open exchanges."""
    swarm = Swarm(SwarmConfig(n_pieces=16, seed=seed))
    seeder_cls, leecher_cls = PROTOCOLS[protocol]
    seeder_cls(swarm).join()
    for _ in range(5):
        leecher_cls(swarm).join()
    swarm.sim.run(until=6.0)
    assert any(p.book.cmask for p in swarm.leechers())
    return swarm, leecher_cls


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_next_upload_of_an_empty_handed_peer_is_inert(case):
    protocol, options = case
    swarm, leecher_cls = busy_swarm(protocol)
    cls = leecher_cls if options is None \
        else make_freerider(leecher_cls, options)
    newcomer = cls(swarm)
    newcomer.join()
    assert newcomer.book.cmask == 0 and not newcomer.obligations
    assert swarm.topology.degree(newcomer.id) == 6
    sim = swarm.sim
    rng_state, seq, pending = sim.rng.getstate(), sim._seq, len(sim._heap)
    assert newcomer.next_upload() is None
    assert sim.rng.getstate() == rng_state
    assert sim._seq == seq and len(sim._heap) == pending


class CountingLeecher(TChainLeecher):
    """Counts how often the serving loop consults the protocol."""

    asked = 0

    def next_upload(self):
        self.asked += 1
        return None


def tchain_pair():
    swarm = Swarm(SwarmConfig(n_pieces=8, seed=2))
    TChainSeeder(swarm).join()
    peer = CountingLeecher(swarm)
    peer.join()
    return swarm, peer


class TestGate:
    def test_empty_handed_peer_never_asks(self):
        swarm, peer = tchain_pair()
        # join() pumped, and so did the connect to the seeder
        peer.pump()
        peer.on_neighbor_connected("S1")
        assert peer.asked == 0

    def test_a_held_piece_opens_the_gate(self):
        swarm, peer = tchain_pair()
        peer.book.add_completed(0)
        peer.pump()
        assert peer.asked == 1

    def test_a_debt_opens_the_gate(self):
        """A T-Chain newcomer reciprocates by forwarding the sealed
        piece itself: owing is enough, holding is not required."""
        swarm, peer = tchain_pair()
        peer.obligations.append(1)
        peer.pump()
        assert peer.book.cmask == 0 and peer.asked == 1
