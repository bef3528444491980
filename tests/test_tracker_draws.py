"""Draw-neutrality of the strangers-only tracker reply.

``Tracker.announce(peer_id, known)`` may skip building and shuffling
the membership when the requester already knows everyone, but it must
leave the seeded generator exactly where the full shuffle would have:
"draw-neutral" means equal ``rng.getstate()``, nothing weaker.  These
tests run on every CI interpreter, which is where a stdlib change to
``Random.shuffle`` / ``_randbelow`` would surface.
"""

from random import Random

import pytest

from repro.bt.tracker import Tracker
from repro.sim.randomness import skip_shuffle

SEEDS = range(20)


class TestSkipShuffle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_state_equals_real_shuffle(self, seed):
        for n in range(131):
            skipped, shuffled = Random(seed), Random(seed)
            skip_shuffle(skipped, n)
            shuffled.shuffle(list(range(n)))
            assert skipped.getstate() == shuffled.getstate(), n

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
