"""repro — a full reproduction of *T-Chain: A General Incentive Scheme
for Cooperative Computing* (Shin et al., IEEE ICDCS 2015).

The package is layered bottom-up:

* :mod:`repro.sim` — deterministic discrete-event simulation engine.
* :mod:`repro.net` — uplink bandwidth model and the optional link-level
  network substrate.
* :mod:`repro.bt` — a from-scratch BitTorrent substrate (tracker,
  swarm, leechers/seeders, LRF piece selection, tit-for-tat choking)
  plus the four evaluated protocols: original BitTorrent, PropShare,
  FairTorrent, Random BitTorrent — and T-Chain applied to BitTorrent.
* :mod:`repro.core` — the T-Chain contribution itself: the symmetric-
  crypto almost-fair exchange, triangle chaining, flow control,
  newcomer bootstrapping and opportunistic seeding.
* :mod:`repro.attacks` — free-riding strategies (large-view exploit,
  whitewashing, Sybil, collusion).
* :mod:`repro.workloads` — arrival models (flash crowd, synthetic
  RedHat-9-like trace, replacement churn).
* :mod:`repro.analysis` — metrics: completion times, uplink
  utilization, fairness factors, chain statistics.
* :mod:`repro.models` — the paper's analytical results (bootstrapping
  dynamics of Sec. III-B, collusion probability of Sec. III-A4,
  overhead model of Sec. III-C).
* :mod:`repro.experiments` — one experiment definition per paper
  figure/table, driven by the benchmark harness in ``benchmarks/``.

Quickstart
----------
>>> from repro.experiments import run_swarm
>>> result = run_swarm(protocol="tchain", leechers=40, pieces=32, seed=1)
>>> result.mean_completion_time() > 0
True
"""

__version__ = "1.0.0"
