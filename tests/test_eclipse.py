"""The free-rider eclipse, as data (ROADMAP item 3).

The paper's robustness claim (Sec. IV-C/D, Fig. 9) is that compliant
T-Chain leechers are protected up to 50 % free-riders.  Under trace
arrivals this reproduction breaks it as a *liveness* failure: starved
large-view free-riders never leave, fill the neighbour tables of the
seeder and of every late joiner, and the pieces only the seeder still
holds become unreachable.  The run below is the re-anchor's recipe
verbatim.  On this tree it stops on quiescence at t = 3238 s with 30
of its 60 compliant leechers unfinished; a clean run ends "drained"
with all of them done.  ``Swarm.stop_reason`` is what tells the two
apart: before it existed a starved quiescence stop and a clean finish
looked the same to the caller.

``xfail(strict=True)``: the fix of item 3 turns this green, and must
then delete the marker.
"""

import pytest

from repro.experiments import run_swarm
from repro.experiments.runner import seeds_for


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: at 50 % large-view free-riders under trace "
    "arrivals the seeder is eclipsed and half the compliant leechers "
    "starve; the run ends quiescent, not drained"))
def test_compliant_leechers_finish_at_half_freeriders():
    result = run_swarm(
        protocol="tchain", seed=seeds_for("fig9/tchain/0.5", 42, 4)[1],
        leechers=120, pieces=32, freerider_fraction=0.5,
        arrival="trace", trace_horizon_s=250.0, max_time=5370.0)
    compliant = result.metrics.compliant_leechers()
    unfinished = [r.peer_id for r in compliant if r.finish_time is None]
    assert len(compliant) == 60
    assert (result.stop_reason, len(unfinished)) == ("drained", 0), (
        f"stopped {result.stop_reason!r} at t = "
        f"{result.swarm.sim.now:.0f} s with {len(unfinished)} of "
        f"{len(compliant)} compliant leechers unfinished")
