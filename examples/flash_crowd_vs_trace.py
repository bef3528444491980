#!/usr/bin/env python3
"""Workload study: flash crowd vs continuous-trace arrivals.

The paper evaluates both regimes: a release-day flash crowd
(everyone joins within 10 s) and a RedHat-9-like continuous stream.
This example runs T-Chain under both, prints completion statistics,
and shows the chain dynamics that drive them (Figs. 10 and 11):
active chains tracking the leecher population, and opportunistic
seeding concentrated where the seeder cannot keep up.

Run:  python examples/flash_crowd_vs_trace.py
"""

from repro.analysis.reporting import format_series
from repro.experiments import run_swarm

LEECHERS = 50
PIECES = 32
SEED = 23


def run_with_chain_sampling(arrival: str):
    result = run_swarm(protocol="tchain", leechers=LEECHERS,
                       pieces=PIECES, seed=SEED, arrival=arrival,
                       trace_horizon_s=300.0, series=("chains",))
    return result, result.series["chains"]


def report(name: str, result, samples) -> None:
    state = result.tchain_state
    print(f"--- {name} ---")
    print(f"mean completion {result.mean_completion_time():.1f} s, "
          f"utilization {result.mean_utilization():.0%}")
    print(f"chains: {state.registry.total_count} total, "
          f"{state.registry.opportunistic_fraction:.0%} initiated by "
          f"leechers (opportunistic seeding)")
    print(format_series(
        "active chains / active leechers",
        [(t, f"{c:4d} chains, {l:4d} leechers")
         for t, c, l in samples[::max(1, len(samples) // 8)]],
        x_label="time (s)", y_label=""))
    print()


if __name__ == "__main__":
    for arrival, label in (("flash", "flash crowd (all join < 10 s)"),
                           ("trace", "continuous RedHat-9-like trace")):
        result, samples = run_with_chain_sampling(arrival)
        report(label, result, samples)
