"""Determinism regression harness.

The contract under test (``repro.sim.engine``): running the same
scenario with the same seed reproduces the same event trace
bit-for-bit.  The harness records every fired event through the
engine's observer hook and compares full traces — not just summary
statistics — across repeated runs.
"""

from repro.experiments import run_swarm


def traced_run(seed, **kwargs):
    """One flash-crowd run returning (event trace, result).

    The trace rows are ``(time, seq, callback qualname)`` for every
    event fired; the observer attaches before any event fires (the
    ``setup`` hook runs pre-arrival), so the trace is complete.
    """
    trace = []

    def setup(swarm):
        swarm.sim.add_observer(
            lambda handle: trace.append(
                (handle.time, handle.seq,
                 getattr(handle.callback, "__qualname__",
                         repr(handle.callback)))))

    result = run_swarm(arrival="flash", seed=seed, setup=setup,
                       **kwargs)
    return trace, result


def record_rows(result):
    """Bit-comparable projection of the final per-peer metrics."""
    return sorted(
        (r.peer_id, r.kind, r.capacity_kbps, r.join_time,
         r.finish_time, r.leave_time, r.kb_uploaded, r.kb_downloaded,
         r.pieces_uploaded, r.pieces_downloaded, r.utilization)
        for r in result.metrics.records)


SCENARIO = dict(protocol="tchain", leechers=12, pieces=10,
                freerider_fraction=0.25)


class TestSameSeedIdentical:
    def test_event_traces_bit_identical(self):
        trace_a, result_a = traced_run(seed=42, **SCENARIO)
        trace_b, result_b = traced_run(seed=42, **SCENARIO)
        assert len(trace_a) > 100  # the scenario actually ran
        assert trace_a == trace_b

    def test_final_metrics_bit_identical(self):
        _, result_a = traced_run(seed=42, **SCENARIO)
        _, result_b = traced_run(seed=42, **SCENARIO)
        assert record_rows(result_a) == record_rows(result_b)
        assert result_a.swarm.sim.now == result_b.swarm.sim.now
        assert result_a.swarm.sim.events_fired \
            == result_b.swarm.sim.events_fired

    def test_other_protocols_also_deterministic(self):
        for protocol in ("bittorrent", "propshare", "fairtorrent"):
            trace_a, _ = traced_run(seed=9, protocol=protocol,
                                    leechers=8, pieces=6)
            trace_b, _ = traced_run(seed=9, protocol=protocol,
                                    leechers=8, pieces=6)
            assert trace_a == trace_b, protocol


class TestIdleFaultPlanInert:
    """Attaching a zero-rate FaultPlan must not perturb the trace.

    This is the determinism contract of ``repro.faults``: the
    injector draws from its own named substream and makes zero draws
    when every rate is 0.0, and control messages cross
    ``Swarm.send_control`` in *every* run — so the event traces are
    bit-identical with and without the idle injector attached.
    """

    def test_zero_rate_plan_trace_bit_identical(self):
        from repro.faults import FaultPlan
        idle = FaultPlan()
        assert idle.idle
        trace_a, result_a = traced_run(seed=42, **SCENARIO)
        trace_b, result_b = traced_run(seed=42, fault_plan=idle,
                                       **SCENARIO)
        assert len(trace_a) > 100
        assert trace_a == trace_b
        assert record_rows(result_a) == record_rows(result_b)
        assert result_a.swarm.sim.now == result_b.swarm.sim.now

    def test_active_plan_perturbs_trace(self):
        """Sanity check on the previous test: a plan with real rates
        does change the trace, so the comparison has teeth."""
        from repro.faults import FaultPlan
        lossy = FaultPlan(control_loss_prob=0.2)
        trace_a, _ = traced_run(seed=42, **SCENARIO)
        trace_b, _ = traced_run(seed=42, fault_plan=lossy, **SCENARIO)
        assert trace_a != trace_b


class TestDifferentSeedsDiffer:
    def test_event_traces_differ(self):
        trace_a, _ = traced_run(seed=42, **SCENARIO)
        trace_c, _ = traced_run(seed=43, **SCENARIO)
        assert trace_a != trace_c

    def test_metrics_differ(self):
        _, result_a = traced_run(seed=42, **SCENARIO)
        _, result_c = traced_run(seed=43, **SCENARIO)
        assert record_rows(result_a) != record_rows(result_c)
