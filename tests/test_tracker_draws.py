"""Draw-neutrality of the simulation's generator and of the
strangers-only tracker reply.

``SimRandom``'s ``choice`` / ``shuffle`` / ``sample`` must return what
``random.Random`` returns and leave the generator where it leaves it.
``Tracker.announce(peer_id, known)`` filters its reply, and
``Peer.refill_neighbors`` may decide "knows everyone" by degree and
skip building and shuffling the membership
(``Tracker.announce_all_known``), but both must leave the seeded
generator exactly where the unfiltered reply would have:
"draw-neutral" means equal ``rng.getstate()``, nothing weaker.
These tests run on every CI interpreter, which is where a stdlib
change to ``Random.shuffle`` / ``sample`` / ``_randbelow`` would
surface.
"""

from random import Random

import pytest

from repro.bt.config import SwarmConfig
from repro.bt.peer import Peer
from repro.bt.swarm import Swarm
from repro.bt.tracker import Tracker
from repro.devtools import SanitizerError
from repro.sim.randomness import SimRandom, skip_shuffle

SEEDS = range(20)
LENGTHS = range(131)


def twins(seed):
    """A stdlib generator and a ``SimRandom`` seeded alike."""
    return Random(seed), SimRandom(seed)


class TestSimRandom:
    """Each kernel against the stdlib: same result, same state."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shuffle(self, seed):
        for n in LENGTHS:
            plain, sim = twins(seed)
            want, got = list(range(n)), list(range(n))
            plain.shuffle(want)
            sim.shuffle(got)
            assert got == want, n
            assert sim.getstate() == plain.getstate(), n

    @pytest.mark.parametrize("seed", SEEDS)
    def test_choice(self, seed):
        for n in LENGTHS[1:]:
            plain, sim = twins(seed)
            seq = [f"x{i}" for i in range(n)]
            assert [sim.choice(seq) for _ in range(5)] \
                == [plain.choice(seq) for _ in range(5)], n
            assert sim.getstate() == plain.getstate(), n

    def test_choice_from_nothing_draws_nothing(self):
        plain, sim = twins(1)
        for rng in (plain, sim):
            with pytest.raises(IndexError):
                rng.choice([])
        assert sim.getstate() == plain.getstate() == Random(1).getstate()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_of_a_range(self, seed):
        for n in LENGTHS:
            for k in sorted({0, 1, 5, 6, n // 2, min(n, 50), n}):
                if k > n:
                    continue
                plain, sim = twins(seed)
                assert sim.sample(range(n), k) \
                    == plain.sample(range(n), k), (n, k)
                assert sim.getstate() == plain.getstate(), (n, k)

    # The stdlib keeps a pool list while n <= 21 + 4 ** ceil(log(3k, 4))
    # (277 at k = 50) and a set of picks beyond; 1045 / 1046 are the
    # cut at k = 86.
    @pytest.mark.parametrize("n, k", [
        (276, 50), (277, 50), (278, 50), (1045, 50), (1046, 50),
        (1045, 86), (1046, 86), (60, 60), (2000, 5)])
    def test_sample_both_branches(self, n, k):
        for seed in SEEDS:
            plain, sim = twins(seed)
            population = range(3, 3 + 2 * n, 2)
            assert sim.sample(population, k) \
                == plain.sample(population, k), seed
            assert sim.getstate() == plain.getstate(), seed

    def test_sample_of_anything_else_is_the_stdlibs(self):
        for seed in SEEDS:
            plain, sim = twins(seed)
            names = [f"n{i}" for i in range(40)]
            assert sim.sample(names, 7) == plain.sample(names, 7)
            assert sim.sample(names, 9, counts=[2] * 40) \
                == plain.sample(names, 9, counts=[2] * 40)
            assert sim.getstate() == plain.getstate()

    def test_sample_rejects_before_drawing(self):
        plain, sim = twins(1)
        for k in (-1, 11):
            for rng in (plain, sim):
                with pytest.raises(ValueError):
                    rng.sample(range(10), k)
        assert sim.getstate() == plain.getstate() == Random(1).getstate()


class TestSkipShuffle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_state_equals_real_shuffle(self, seed):
        for n in LENGTHS:
            for kind in (Random, SimRandom):
                skipped, shuffled = kind(seed), Random(seed)
                skip_shuffle(skipped, n)
                shuffled.shuffle(list(range(n)))
                assert skipped.getstate() == shuffled.getstate(), \
                    (kind, n)

    def test_short_lists_draw_nothing(self):
        rng = Random(1)
        before = rng.getstate()
        skip_shuffle(rng, 0)
        skip_shuffle(rng, 1)
        assert rng.getstate() == before


def tracker_pair(seed, population, list_size=50):
    """Two identical trackers on identically seeded generators."""
    ids = [f"P{i:03d}" for i in range(population)]
    pair = []
    for _ in range(2):
        tracker = Tracker(Random(seed), list_size=list_size)
        for pid in ids:
            tracker.join(pid)
        pair.append(tracker)
    return ids, pair[0], pair[1]


class TestAllKnownAnnounce:
    """``known`` = every other member: ``[]``, and the same generator
    state and ``announce_count`` as the unfiltered call."""

    @pytest.mark.parametrize("population", [1, 2, 3, 17, 31, 50, 51])
    @pytest.mark.parametrize("registered", [True, False])
    def test_same_draws_empty_reply(self, population, registered):
        for seed in SEEDS:
            ids, plain, filtered = tracker_pair(seed, population)
            requester = ids[population // 2] if registered else "P-new"
            everyone = {pid for pid in ids if pid != requester}
            full = plain.announce(requester)
            assert len(full) == min(len(everyone), 50) \
                and set(full) <= everyone
            assert filtered.announce(requester, everyone) == []
            assert filtered.rng.getstate() == plain.rng.getstate()
            assert filtered.announce_count == plain.announce_count == 1

    def test_sample_branch_is_filtered_too(self):
        """n > list_size takes ``rng.sample`` as before; knowing
        everyone still yields ``[]`` at the same generator state."""
        for seed in SEEDS:
            ids, plain, filtered = tracker_pair(seed, 80, list_size=20)
            everyone = set(ids[1:])
            assert len(plain.announce(ids[0])) == 20
            assert filtered.announce(ids[0], everyone) == []
            assert filtered.rng.getstate() == plain.rng.getstate()


class TestGeneralPath:
    """Anything but exactly-everyone is the old caller-side filter:
    the full reply minus ``known``, order kept, same draws."""

    IDS = [f"P{i:03d}" for i in range(30)]

    def replies(self, requester, known):
        """The filtered reply per seed, each checked against the
        unfiltered one."""
        for seed in SEEDS:
            _, plain, filtered = tracker_pair(seed, len(self.IDS))
            want = [m for m in plain.announce(requester)
                    if m not in known]
            assert filtered.announce(requester, known) == want
            assert filtered.rng.getstate() == plain.rng.getstate()
            yield want

    def test_partial_knowledge(self):
        ids = self.IDS
        known = set(ids[::3]) - {ids[4]}
        for reply in self.replies(ids[4], known):
            assert sorted(reply) == sorted(set(ids) - known - {ids[4]})

    def test_strict_superset_with_non_members(self):
        known = set(self.IDS[1:]) | {"GONE1", "GONE2"}
        assert all(reply == []
                   for reply in self.replies(self.IDS[0], known))

    def test_right_size_wrong_content(self):
        """As many ids as there are other members, but one of them a
        non-member: a degree heuristic would answer ``[]`` and lose
        the one stranger."""
        ids = self.IDS
        known = (set(ids[1:]) - {ids[7]}) | {"GONE"}
        assert all(reply == [ids[7]]
                   for reply in self.replies(ids[0], known))

    def test_known_naming_the_requester(self):
        """All members and of the right size, but the requester's own
        id stands in for a real stranger."""
        ids = self.IDS
        known = set(ids) - {ids[7]}
        assert all(reply == [ids[7]]
                   for reply in self.replies(ids[0], known))


class Idle(Peer):
    def next_upload(self):
        return None


def joined(n, sanitize=False):
    """``n`` idle peers ``P0 …`` joined through the tracker: every
    announce names every earlier member, so the graph is complete."""
    swarm = Swarm(SwarmConfig(n_pieces=4, seed=5), sanitize=sanitize)
    peers = [Idle(swarm, f"P{i}", 800.0, 1) for i in range(n)]
    for peer in peers:
        peer.join()
    return swarm, peers


class TestAllKnownRefill:
    """``Peer.refill_neighbors`` answers "knows every other member" by
    degree, which is exact only while every neighbour is a member."""

    @staticmethod
    def spy_set_path(swarm, monkeypatch):
        calls = []
        build = swarm.columnar.neighbor_ids

        def neighbor_ids(pid):
            calls.append(pid)
            return build(pid)

        monkeypatch.setattr(swarm.columnar, "neighbor_ids", neighbor_ids)
        return calls

    @pytest.mark.parametrize("n", [2, 5, 31])
    def test_complete_graph_draws_what_announce_draws(self, n,
                                                     monkeypatch):
        swarm, peers = joined(n)
        twin, twin_peers = joined(n)
        assert swarm.sim.rng.getstate() == twin.sim.rng.getstate()
        calls = self.spy_set_path(swarm, monkeypatch)
        peers[1].refill_neighbors()
        # The reference is the full, unfiltered reply: every other peer.
        assert sorted(twin.tracker.announce("P1")) \
            == sorted(p.id for p in twin_peers if p.id != "P1")
        assert calls == []
        assert swarm.sim.rng.getstate() == twin.sim.rng.getstate()
        assert swarm.tracker.announce_count == twin.tracker.announce_count
        swarm.columnar.check_consistency()

    def test_sample_branch(self):
        """More other members than a reply holds (a large-view peer
        neighbouring them all): the discarded ``sample`` is drawn."""
        for seed in SEEDS:
            ids = [f"P{i:03d}" for i in range(80)]
            plain, fast = (Tracker(SimRandom(seed), list_size=20)
                           for _ in range(2))
            for tracker in (plain, fast):
                for pid in ids:
                    tracker.join(pid)
            assert len(plain.announce(ids[0])) == 20
            fast.announce_all_known()
            assert fast.rng.getstate() == plain.rng.getstate()
            assert fast.announce_count == plain.announce_count == 1

    def test_non_member_neighbour_takes_the_set_path(self, monkeypatch):
        swarm, peers = joined(5)
        twin, _ = joined(5)
        # P4 leaves the tracker but keeps its edges: P0's degree is no
        # longer members - 1, so the refill asks with its neighbour set.
        for s in (swarm, twin):
            s.tracker.leave("P4")
        calls = self.spy_set_path(swarm, monkeypatch)
        peers[0].refill_neighbors()
        assert calls == ["P0"]
        assert twin.tracker.announce(
            "P0", twin.columnar.neighbor_ids("P0")) == []
        assert swarm.sim.rng.getstate() == twin.sim.rng.getstate()
        with pytest.raises(AssertionError, match="non-members"):
            swarm.columnar.check_consistency()

    def test_broken_invariant_trips_the_sanitizer(self):
        """A non-member neighbour *and* a member nobody neighbours:
        the degree matches, the set does not, and a sanitized run
        recomputes the set and refuses the skip."""
        swarm, peers = joined(5, sanitize=True)
        swarm.tracker.leave("P4")
        swarm.tracker.join("GHOST")
        with pytest.raises(SanitizerError, match="skipped as all-known"):
            peers[0].refill_neighbors()

    def test_sanitized_swarm_below_the_threshold(self):
        """A whitewashing BitTorrent swarm below the refill threshold
        (free-riders whitewash by default): every departure is a refill
        storm, each refill is cross-checked, and every neighbour stays
        a member after every event."""
        from repro.experiments import run_swarm
        checks = []

        def setup(swarm):
            recount = swarm.sim.sanitizer.on_all_known_refill

            def counted(peer):
                checks.append(peer.id)
                recount(peer)

            swarm.sim.sanitizer.on_all_known_refill = counted
            swarm.sim.add_observer(
                lambda handle: swarm.columnar.check_consistency())

        result = run_swarm(protocol="bittorrent", leechers=16, pieces=12,
                           seed=7, freerider_fraction=0.25,
                           sanitize=True, setup=setup)
        assert len(checks) > 500  # 752 at this seed
        assert result.completion_rate("leecher") == 1.0
