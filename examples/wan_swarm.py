#!/usr/bin/env python3
"""WAN study: a T-Chain swarm spread over three datacenters.

The paper's evaluation (Sec. IV-A) uses the flat model — control
messages cost a fixed latency and only uplinks are constrained.  This
example turns on the link-level network substrate (docs/NETWORK.md)
and runs the same swarm three ways:

* **flat** — the paper's model, no substrate;
* **wan** — a 3-DC latency matrix (40-120 ms one-way), 3% per-link
  control loss and seeded jitter: every cross-DC report/key/plead
  pays real propagation delay and sometimes vanishes, exercising the
  retransmit machinery without a fault injector;
* **partitioned** — the same WAN, but dc2 is cut off from the world
  mid-download (a :class:`~repro.faults.NetworkPartition` fault) and
  healed 15 s later.  Messages across the cut drop as unroutable,
  transfers cannot start across it, and the swarm still converges
  after the heal.

Run:  python examples/wan_swarm.py
"""

from repro.analysis.reporting import format_table
from repro.experiments import run_swarm
from repro.faults import FaultPlan, NetworkPartition

WAN = {"topology": "multi_dc", "loss": 0.03, "jitter_ms": 15.0}

SCENARIO = dict(protocol="tchain", leechers=15, pieces=12, seed=11,
                sanitize=True)


def flat():
    return run_swarm(**SCENARIO), None


def wan():
    result = run_swarm(extra={"net": dict(WAN)}, **SCENARIO)
    return result, result.swarm.net


def partitioned():
    plan = FaultPlan(partitions=(
        NetworkPartition(at_s=5.0, groups=(("dc2",),), heal_s=20.0),))
    result = run_swarm(fault_plan=plan, extra={"net": dict(WAN)},
                       **SCENARIO)
    return result, result.swarm.net


def main() -> None:
    rows = []
    net_rows = []
    for name, scenario in (("flat", flat), ("wan", wan),
                           ("partitioned", partitioned)):
        result, net = scenario()
        metrics = result.metrics
        rows.append((name, metrics.mean_completion_time("leecher"),
                     metrics.completion_rate("leecher"),
                     round(result.swarm.sim.now, 1)))
        if net is not None:
            c = net.counters
            net_rows.append((name, c.control_sent, c.control_dropped,
                             c.control_unroutable,
                             c.transfers_unroutable,
                             c.links_severed, c.links_restored))
    print(format_table(
        ["scenario", "mean completion (s)", "completion rate",
         "sim seconds"],
        rows, title="T-Chain across three datacenters"))
    print()
    print(format_table(
        ["scenario", "ctl sent", "ctl lost", "ctl unroutable",
         "xfer unroutable", "severed", "restored"],
        net_rows, title="substrate counters"))
    print("\nEvery run is sanitized: the fair-exchange invariant held "
          "under WAN loss,\njitter and a 15 s partition.")


if __name__ == "__main__":
    main()
