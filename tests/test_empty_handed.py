"""The unwanted gate in ``Peer.pump``.

A peer that owes nothing (no T-Chain ``obligations``) and whose
``ColumnarState.unwanted`` bit is set — no live neighbour wants a
piece it holds; an empty book always — returns from ``pump()`` before
calling ``next_upload()``.  That is trace-neutral only because, for
every registered protocol, the skipped call is a guaranteed ``None``
that draws nothing and schedules nothing.  The first two tests hold
each protocol to that claim on its own, for an empty-handed peer and
for one whose pieces nobody around it wants, so a future
``next_upload`` with a side effect fails here instead of being gated
silently.
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


def joined_newcomer(case):
    """A fresh leecher (or free-rider) of ``case`` in a busy swarm,
    neighbour of all six members."""
    protocol, options = case
    swarm, leecher_cls = busy_swarm(protocol)
    cls = leecher_cls if options is None \
        else make_freerider(leecher_cls, options)
    newcomer = cls(swarm)
    newcomer.join()
    assert not newcomer.obligations
    assert swarm.columnar.degree(newcomer.id) == 6
    return swarm, newcomer


def assert_inert(swarm, peer):
    sim = swarm.sim
    rng_state, seq, pending = sim.rng.getstate(), sim._seq, len(sim._heap)
    assert peer.next_upload() is None
    assert sim.rng.getstate() == rng_state
    assert sim._seq == seq and len(sim._heap) == pending


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_next_upload_of_an_empty_handed_peer_is_inert(case):
    swarm, newcomer = joined_newcomer(case)
    assert newcomer.book.cmask == 0
    assert_inert(swarm, newcomer)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_next_upload_of_an_unwanted_holder_is_inert(case):
    """The newcomer holds pieces 0 and 1, and every neighbour that
    does not hold them expects them (on their way, as in a crowd that
    all fetches the same few pieces): nobody wants what it holds."""
    swarm, newcomer = joined_newcomer(case)
    for neighbor in newcomer.neighbor_peers():
        for piece in (0, 1):
            neighbor.book.expect(piece)
    newcomer.book.add_completed(0)
    newcomer.book.add_completed(1)
    columnar = swarm.columnar
    assert any(n.book.wmask for n in newcomer.neighbor_peers())
    assert columnar.wanters(newcomer, newcomer.book.cmask) == []
    assert columnar.unwanted[columnar.row_of[newcomer.id]]
    assert_inert(swarm, newcomer)


class CountingLeecher(TChainLeecher):
    """Counts how often the serving loop consults the protocol."""

    asked = 0

    def next_upload(self):
        self.asked += 1
        return None


class ScanningLeecher(CountingLeecher):
    """Counts, then plans as a T-Chain leecher does (and so scans)."""

    def next_upload(self):
        super().next_upload()
        return TChainLeecher.next_upload(self)


def tchain_pair(cls=CountingLeecher):
    swarm = Swarm(SwarmConfig(n_pieces=8, seed=2))
    TChainSeeder(swarm).join()
    peer = cls(swarm)
    peer.join()
    return swarm, peer


class TestGate:
    def test_empty_handed_peer_never_asks(self):
        swarm, peer = tchain_pair()
        # join() pumped, and so did the connect to the seeder
        # (Swarm.connect_strangers pumps both ends of a new edge)
        peer.pump()
        assert swarm.connect(peer.id, "S1")  # existing: pumps nobody
        peer.pump()
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
        peer.obligations = [1]
        peer.pump()
        assert peer.book.cmask == 0 and peer.asked == 1

    def test_a_scan_that_finds_nobody_closes_it(self):
        """The seeder wants nothing: the first pump after a completion
        scans and sets the bit, later pumps stop at it, and a
        neighbour that wants the piece opens it again."""
        swarm, peer = tchain_pair(ScanningLeecher)
        peer.book.add_completed(0)
        peer.pump()
        peer.pump()
        peer.pump()
        assert peer.asked == 1
        wanter = TChainLeecher(swarm)
        wanter.join()
        assert peer.asked == 2
        assert swarm.columnar.wanters(peer, peer.book.cmask) \
            == [wanter.id]
