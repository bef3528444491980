"""Golden traces: the one swarm state against the naive reference.

Every digest below is the sha256 of a run's full ``(time, seq,
callback qualname)`` event trace plus its final per-peer metric rows,
taken on the last commit that still carried the naive reference arm
(set-backed ``PieceBook``, per-neighbour ``wanted() & completed``
rescans: ``extra={"columnar": False, "interest_index": False}``)
*before* that arm, the swarm-wide interest index and both flags were
deleted.  They replace the on/off cross-product suites: the mask-native
state has to reproduce the naive arm bit for bit, on every protocol,
under whitewashing free-riders, trace-arrival churn, a lossy multi-DC
substrate and a Sybil group pooling one piece book.

A digest that moves means the simulation moved.  Regenerate only for a
change that is *meant* to alter traces, and say so in the PR.
"""

import hashlib

import pytest

from repro.attacks.sybil import make_sybil_group
from repro.bt.protocols.tchain import TChainLeecher
from repro.experiments import run_swarm

#: Flash crowd, 25 % free-riders (large view + whitewash, the default
#: ``FreeRiderOptions``) — the Sec. IV comparison shape.
FLASH = dict(leechers=14, pieces=10, freerider_fraction=0.25)
#: The free-rider-less baseline shape of the retired on/off suites.
PLAIN = dict(leechers=10, pieces=8)

GOLDEN = {
    "flash-tchain-3":
        "eb99e83b2616a593ff1a7d8b3a6ab7885167f9dc5521e2bbdda541ceaa4de8dd",
    "flash-tchain-5":
        "05b69719427d8e33801914067371eb5e24305b7a519785da17db93387175f012",
    "flash-bittorrent-3":
        "2cac59c8d4f8c796b0ea9b53d62af35cd25116a097bcd1c6abf0c9ba5f639760",
    "flash-bittorrent-5":
        "daf0e9b4cd927d0d5a27f5fe25d15ca1f8044b8a27695d076f8547d309f0833e",
    "flash-propshare-3":
        "5f81b56c14e7a4e251362bb1f407139ed186ed8cc718635837f282fe75b60dc2",
    "flash-propshare-5":
        "5edea4cece01ce8ff2ff57977d10e8d9097886ce1ac78de3d2e02ddcccce6406",
    "flash-fairtorrent-3":
        "3ffe22ba3d5f2f12648d16b7723e76e568a10dc24860b3afe7f7ff12782ae787",
    "flash-fairtorrent-5":
        "c20f25ad3942632914f7aa4b6acb26ec4a66d60b595d970ecbde8150d1d61b26",
    "flash-random-3":
        "f539f9768e755af0854e3e61097d6b4f7020742c9418503765e03cefe9dc32c1",
    "flash-random-5":
        "bb666091019fcde9d611db926e7eb2d605def1940f3885c61d8f6378ae574e0c",
    "churn-trace":
        "36396e6c8a6e7f688f9d21a220692b7f65d5f6b5dabc8881246d0aee811bdd57",
    "net-multi-dc":
        "6509036e1de69f846da3cd549d2b6fba125e4deefa9b8553ba4a424377e79a50",
    "sybil":
        "eed166b5cd8f3406f696b42f1989dd3b5fb9c0eeb8145de91b785f1794192f8a",
    "churn-tchain-7":
        "25fec02449591a629dba7adb1767dbfb5f1cbf1d472e99b8e769420edaa556cf",
    "plain-bittorrent-7":
        "211a073dbf5d4fc457c064f295c706806013da52d7e48d3b5c256278582a2a5e",
    "churn-tchain-11":
        "5b0a533da211d28da7786bce25e92e688fe673f264095a5a1c40f446556788b3",
    "plain-bittorrent-11":
        "feb21c38c0e807a560236ba4a8006020de59503f528dec50e932ffb8d5fc602a",
    "churn-tchain-23":
        "c55b898461e38e483f74a0a9bf0b5755e8e58e31bad5602be45ffd064874a8a7",
    "plain-bittorrent-23":
        "59f3271945b9dd67b320b88c380b2e99b35e24bd35f9c52c83c4ee9a51a5f9eb",
    "plain-propshare-7":
        "43b664f53f77002c31d4147c0414041b1b80dbc357ec7e80013a9d83e440e643",
    "plain-fairtorrent-7":
        "53b25d4f412d91da5096fd0d7e441a020941de736b3fb0b280457b9db8355a57",
    "plain-random-7":
        "fdd06c7db7453bf6d77aeafc81feefaa13ddaa42c8a539c5d74b1ab5abfa7dae",
    "crowd-tchain-120":
        "f97179e88278070b768dfbb6a3ebac1efc88bf572c46a0086450f02d8b15e286",
    "crowd-bittorrent-120":
        "410eefdee2569627207047d051d7d397730a1ef7aac7377297bc446b5ca00126",
}


def record_rows(result):
    """Bit-comparable projection of the final per-peer metrics."""
    return sorted(
        (r.peer_id, r.kind, r.capacity_kbps, r.join_time,
         r.finish_time, r.leave_time, r.kb_uploaded, r.kb_downloaded,
         r.pieces_uploaded, r.pieces_downloaded, r.utilization)
        for r in result.metrics.records)


def traced_run(setup=None, **kwargs):
    """One ``run_swarm`` returning ``(digest, result)``."""
    trace = []

    def observe(handle):
        callback = handle.callback
        trace.append((handle.time, handle.seq,
                      getattr(callback, "__qualname__",
                              type(callback).__name__)))

    def instrument(swarm):
        swarm.sim.add_observer(observe)
        if setup is not None:
            setup(swarm)

    result = run_swarm(setup=instrument, **kwargs)
    digest = hashlib.sha256()
    digest.update(repr(trace).encode("ascii"))
    digest.update(repr(record_rows(result)).encode("ascii"))
    return digest.hexdigest(), result


def assert_golden(key, **kwargs):
    """Run the scenario and compare with the pinned naive-arm digest."""
    digest, result = traced_run(**kwargs)
    assert result.swarm.sim.events_fired > 50  # the scenario ran
    assert digest == GOLDEN[key], (
        f"{key}: trace diverged from the naive reference arm")
    return result


def check_every_event(swarm, checks, also=None):
    """Rebuild the swarm state from scratch and compare, after every
    fired event; ``checks`` grows by one per event."""
    def check(_handle):
        swarm.columnar.check_consistency()
        if also is not None:
            also(swarm)
        checks.append(1)

    swarm.sim.add_observer(check)


def sybil_setup(swarm):
    """Three Sybil identities pooling one book join at t = 1."""
    for peer in make_sybil_group(swarm, TChainLeecher, size=3):
        swarm.sim.schedule(1.0, peer.join)


SYBIL = dict(protocol="tchain", seed=9, leechers=8, pieces=6,
             setup=sybil_setup)


@pytest.mark.parametrize("seed", [3, 5])
@pytest.mark.parametrize("protocol", ["tchain", "bittorrent", "propshare",
                                      "fairtorrent", "random"])
def test_flash_crowd_with_freeriders(protocol, seed):
    assert_golden(f"flash-{protocol}-{seed}", protocol=protocol,
                  seed=seed, **FLASH)


def test_tchain_crowd_above_tracker_list_size():
    """120 leechers: ``Tracker.announce`` takes its ``rng.sample``
    branch (n > 50) and refills happen in a swarm larger than the
    refill threshold.  Taken on the last commit with a list-of-lists
    availability column and a cached-sort adjacency."""
    assert_golden("crowd-tchain-120", protocol="tchain", seed=13,
                  leechers=120, pieces=4)


def test_bittorrent_crowd_with_large_view_freeriders():
    """As above plus 30 default free-riders: large-view degrees well
    above the 55-neighbour cap, cap-refused ``Swarm.connect`` calls on
    the compliant side and whitewash churn."""
    assert_golden("crowd-bittorrent-120", protocol="bittorrent", seed=13,
                  leechers=120, pieces=8, freerider_fraction=0.25)


def test_trace_arrival_churn():
    assert_golden("churn-trace", protocol="tchain", seed=5,
                  arrival="trace", leechers=24, pieces=12,
                  freerider_fraction=0.2)


def test_lossy_multi_dc_substrate():
    assert_golden("net-multi-dc", protocol="tchain", seed=3,
                  leechers=16, pieces=10, freerider_fraction=0.2,
                  extra={"net": {"topology": "multi_dc", "loss": 0.02,
                                 "jitter_ms": 10.0}})


def test_sybil_group_sharing_one_book():
    """Regression: N identities pooling one ``PieceBook`` used to
    corrupt the default swarm state (the book had one listener slot,
    so all but the last identity went stale: 3406 events and three
    compliant leechers starved, against 581 / none on the naive arm).
    The state must stay consistent after every event, everyone must
    finish, and the trace must equal the naive arm's."""
    checks = []

    def setup(swarm):
        sybil_setup(swarm)
        check_every_event(swarm, checks)

    result = assert_golden("sybil", **dict(SYBIL, setup=setup))
    assert len(checks) == result.swarm.sim.events_fired == 581
    assert all(r.finish_time is not None
               for r in result.metrics.compliant_leechers())
