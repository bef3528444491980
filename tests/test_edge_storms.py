"""Graph edits pay per edge made: ``Swarm.connect_strangers``.

``Peer.join``, ``Peer.refill_neighbors`` and ``Swarm.rebrand`` hand
their tracker reply to one loop.  It calls ``ColumnarState.link`` only
for an edge within both caps that both ends admit: it stops once the
connecting peer is at its cap (unless unlimited), skips a stranger at
its cap, and asks admission only of a peer whose class defines
``accepts_connection_from`` (the T-Chain seeder).  On departure,
``ColumnarState.remove_peer`` calls each ex-neighbour's
``on_neighbor_disconnected`` directly.

The equivalence test holds the loop to a copy of the per-stranger
``Swarm.connect`` loop it replaced, on random swarms run side by side;
the count tests pin what the loop no longer does.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.freerider import FreeRiderOptions, make_freerider
from repro.attacks.sybil import make_sybil_group
from repro.bt.columnar import ColumnarState
from repro.bt.config import SwarmConfig
from repro.bt.peer import Peer
from repro.bt.protocols import PROTOCOLS
from repro.bt.protocols.tchain import (TChainLeecher, TChainSeeder,
                                       _TChainNode)
from repro.bt.swarm import Swarm
from repro.experiments import run_swarm

LARGE_VIEW = make_freerider(TChainLeecher,
                            FreeRiderOptions(large_view=True,
                                             whitewash=True))


def parent_connect(swarm, a, b):
    """``Swarm.connect`` before the stranger loop: ``link``'s refusals
    in its order, then admission asked of both ends, then the edge and
    one pump per end (``on_neighbor_connected``)."""
    state = swarm.columnar
    row_a, row_b = state.row_of.get(a), state.row_of.get(b)
    if row_a is None or row_b is None or row_a == row_b \
            or state.are_neighbors(a, b):
        return
    cap, unlimited = state.max_neighbors, state._unlimited
    if (state.degree(a) >= cap and a not in unlimited) \
            or (state.degree(b) >= cap and b not in unlimited):
        return
    peers = swarm.peers
    for asked, other in ((a, b), (b, a)):
        admits = peers[asked].accepts_connection_from
        if admits is not None and not admits(other):
            return
    assert state.link(a, b) is True
    peers[a].pump()
    peers[b].pump()


def parent_connect_strangers(swarm, peer_id, strangers):
    """The per-stranger loop ``join``, ``refill`` and ``rebrand`` ran."""
    for other_id in strangers:
        parent_connect(swarm, peer_id, other_id)


@contextmanager
def pumps_logged():
    """Every ``Peer.pump`` call, appended to its swarm's ``pumps``."""
    pump = Peer.pump

    def logged(self):
        self.swarm.pumps.append(self.id)
        pump(self)

    with mock.patch.object(Peer, "pump", logged):
        yield


SWARM = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 16),
    "cap": st.integers(2, 6),
    # (kind, pieces held): kind 0 leecher, 1 large-view free-rider,
    # 2 a pair of Sybil identities sharing one book
    "peers": st.lists(st.tuples(st.integers(0, 2),
                                st.sets(st.integers(0, 5), max_size=3)),
                      min_size=3, max_size=10),
    "banned": st.sets(st.integers(0, 9), max_size=3),
    "script": st.lists(st.tuples(st.integers(0, 12),
                                 st.lists(st.integers(-1, 12),
                                          max_size=8)),
                       min_size=1, max_size=4),
    "departures": st.lists(st.integers(0, 12), max_size=3),
    "events": st.integers(0, 400),
})


def build(params, parent):
    """A T-Chain swarm of ``params``; ``parent`` routes every stranger
    loop (joins, refills, rebrands) through the replaced one."""
    swarm = Swarm(SwarmConfig(n_pieces=6, seed=params["seed"],
                              max_neighbors=params["cap"]))
    swarm.pumps = []
    if parent:
        swarm.connect_strangers = \
            lambda pid, strangers: parent_connect_strangers(
                swarm, pid, strangers)
    seeder = TChainSeeder(swarm)
    members = []
    for kind, pieces in params["peers"]:
        if kind == 2:
            group = make_sybil_group(swarm, TChainLeecher, 2)
        else:
            group = [(LARGE_VIEW if kind else TChainLeecher)(swarm)]
        for piece in sorted(pieces):
            group[0].book.add_completed(piece)
        members.extend(group)
    # Backed off before they join: the seeder refuses their edges.
    for index in sorted(params["banned"]):
        if index < len(members):
            seeder.note_exchange_written_off(members[index].id)
    everyone = [seeder] + members
    for peer in everyone:
        peer.join()
    return swarm, everyone


def drive(params, parent):
    """Build, run the drawn stranger loops and departures, then some
    events; returns the swarm."""
    swarm, everyone = build(params, parent)
    loop = parent_connect_strangers if parent \
        else Swarm.connect_strangers

    def pick(index):
        return everyone[index % len(everyone)]

    for index, others in params["script"]:
        peer = pick(index)
        if not peer.active:
            continue
        # -1 names nobody registered; the rest may repeat, name the
        # peer itself, a neighbour or a peer at its cap.
        loop(swarm, peer.id,
             ["ghost" if i < 0 else pick(i).id for i in others])
    for index in params["departures"]:
        pick(index).leave()
    swarm.sim.run(max_events=params["events"])
    return swarm


def snapshot(swarm):
    state = swarm.columnar
    return {
        "ids": list(state.ids),
        "adj_rows": [list(rows) for rows in state.adj_rows],
        "avail": list(state.avail),
        "unwanted": list(state.unwanted),
        "pumps": swarm.pumps,
        "rng": swarm.sim.rng.getstate(),
        "seq": swarm.sim._seq,
        "now": swarm.sim.now,
    }


class TestEquivalence:
    @given(SWARM)
    @settings(max_examples=60, deadline=None)
    def test_loop_equals_the_per_stranger_connects(self, params):
        with pumps_logged():
            parent = snapshot(drive(params, parent=True))
            change = snapshot(drive(params, parent=False))
        assert change == parent

    def test_the_drawn_cases_occur(self):
        """One fixed draw holds a peer over the cap, a peer at it, a
        refused edge and a shared book, so the equivalence covers
        them."""
        params = {"seed": 3, "cap": 2, "banned": {0},
                  "peers": [(0, {0}), (1, set()), (2, {1}), (0, set()),
                            (0, {2})],
                  "script": [(1, [0, 2, 3, 4, 5, -1, 1])],
                  "departures": [], "events": 0}
        refusals = []
        admits = TChainSeeder.accepts_connection_from

        def counted(self, peer_id):
            answer = admits(self, peer_id)
            if not answer:
                refusals.append(peer_id)
            return answer

        with pumps_logged(), mock.patch.object(
                TChainSeeder, "accepts_connection_from", counted):
            swarm = drive(params, parent=False)
        state = swarm.columnar
        degrees = {pid: state.degree(pid) for pid in state.row_of}
        assert max(degrees.values()) > params["cap"]
        assert params["cap"] in degrees.values()
        assert refusals
        books = [state.books[row] for row in state.row_of.values()]
        assert len({id(book) for book in books}) < len(books)


def counted_run(**kwargs):
    """``run_swarm`` recording every ``link`` attempt with both ends'
    degree and cap exemption, every admission ask and every departure
    notice, per departure."""
    links, asks, departures = [], [], []

    def setup(swarm):
        state = swarm.columnar
        link = state.link

        def counted_link(a, b):
            links.append((a, state.degree(a), a in state._unlimited,
                          state.degree(b), b in state._unlimited, b))
            return link(a, b)
        state.link = counted_link

    admits = TChainSeeder.accepts_connection_from

    def counted_admits(self, peer_id):
        answer = admits(self, peer_id)
        asks.append((self.id, peer_id, answer))
        return answer

    remove_peer = ColumnarState.remove_peer
    notify = Peer.on_neighbor_disconnected

    def counted_remove(self, peer_id):
        departures.append((peer_id, []))
        gone = remove_peer(self, peer_id)
        departures[-1] = (peer_id, departures[-1][1], list(gone))
        return gone

    def counted_notice(self, neighbor_id):
        departures[-1][1].append(self.id)
        notify(self, neighbor_id)

    with mock.patch.object(TChainSeeder, "accepts_connection_from",
                           counted_admits), \
            mock.patch.object(ColumnarState, "remove_peer",
                              counted_remove), \
            mock.patch.object(Peer, "on_neighbor_disconnected",
                              counted_notice):
        result = run_swarm(setup=setup, **kwargs)
    return result, links, asks, departures


class TestCounts:
    """A small large-view crowd (cap 55 passed by the free-riders) and
    a small-cap T-Chain swarm with whitewashing free-riders."""

    RUNS = (
        dict(protocol="tchain", seed=7, leechers=150, pieces=4,
             piece_size_kb=64, freerider_fraction=0.1),
        dict(protocol="tchain", seed=11, leechers=40, pieces=12,
             freerider_fraction=0.25, max_neighbors=8),
    )

    def test_no_link_attempt_from_a_full_peer_or_to_a_full_stranger(self):
        for kwargs in self.RUNS:
            result, links, _, _ = counted_run(**kwargs)
            cap = result.swarm.columnar.max_neighbors
            assert links
            assert not [row for row in links
                        if row[1] >= cap and not row[2]]
            assert not [row for row in links
                        if row[3] >= cap and not row[4]]
            assert any(row[1] >= cap for row in links)  # unlimited ones

    def test_admission_is_asked_only_of_the_seeder(self):
        refused = 0
        for kwargs in self.RUNS:
            result, links, asks, _ = counted_run(**kwargs)
            assert asks
            seeders = {pid for pid, _, _ in asks}
            assert all(pid.startswith("S") for pid in seeders)
            # Each ask is one would-be edge: refused ones make no link
            # attempt, admitted ones make exactly one.
            admitted = sum(1 for _, _, answer in asks if answer)
            refused += len(asks) - admitted
            assert admitted == sum(1 for row in links
                                   if row[0] in seeders
                                   or row[5] in seeders)
        assert refused  # the small-cap seeder snubs, then refuses
        for name, (seeder_cls, leecher_cls) in PROTOCOLS.items():
            assert leecher_cls.accepts_connection_from is None, name
            if seeder_cls is not TChainSeeder:
                assert seeder_cls.accepts_connection_from is None, name
        assert _TChainNode.accepts_connection_from is None
        assert LARGE_VIEW.accepts_connection_from is None

    def test_a_departure_notifies_each_ex_neighbour_once(self):
        for kwargs in self.RUNS:
            _, _, _, departures = counted_run(**kwargs)
            assert len(departures) >= 10
            for departed, notified, gone in departures:
                assert notified == gone, departed
