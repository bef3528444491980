"""Generated network topologies for the substrate.

Each generator returns a :class:`~repro.net.link.NetGraph` — nodes,
:class:`~repro.net.link.LinkSpec` edges, and the attach set peers may
be placed on.  Both are pure, unseeded functions of their arguments:
:func:`star` (one shared hop) and :func:`multi_dc` (a WAN latency
matrix); :func:`graph_from_spec` builds either from a JSON-able dict
so sweep manifests and the CLI can carry topologies as plain data.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.net.link import LinkSpec, NetGraph


def _link(a: str, b: str, latency_s: float, bandwidth_kbps,
          jitter_s: float, loss_prob: float) -> LinkSpec:
    return LinkSpec(a=a, b=b, latency_s=latency_s,
                    bandwidth_kbps=bandwidth_kbps, jitter_s=jitter_s,
                    loss_prob=loss_prob)


def star(n_leaves: int, hub: str = "core", latency_s: float = 0.0,
         bandwidth_kbps: Optional[float] = None, jitter_s: float = 0.0,
         loss_prob: float = 0.0) -> NetGraph:
    """``n_leaves`` access nodes hanging off one hub; peers attach to
    the leaves.  The minimal topology with a real shared hop."""
    if n_leaves < 1:
        raise ValueError("star needs at least one leaf")
    leaves = tuple(f"leaf{i}" for i in range(n_leaves))
    links = tuple(_link(leaf, hub, latency_s, bandwidth_kbps,
                        jitter_s, loss_prob) for leaf in leaves)
    return NetGraph(nodes=leaves + (hub,), links=links, attach=leaves)


def multi_dc(latency_ms: Sequence[Sequence[float]],
             names: Optional[Sequence[str]] = None,
             bandwidth_kbps: Optional[float] = None,
             jitter_ms: float = 0.0,
             loss_prob: float = 0.0) -> NetGraph:
    """WAN of datacenters from a symmetric latency matrix (ms).

    ``latency_ms[i][j]`` is the one-way latency between DC ``i`` and
    ``j``; the diagonal is ignored.  Peers attach to the DCs
    round-robin, modelling a swarm spread across regions."""
    n = len(latency_ms)
    if n < 2:
        raise ValueError("multi_dc needs at least two datacenters")
    for row in latency_ms:
        if len(row) != n:
            raise ValueError("latency matrix must be square")
    if names is None:
        names = tuple(f"dc{i}" for i in range(n))
    elif len(names) != n:
        raise ValueError("names must match the matrix size")
    links = []
    for i in range(n):
        for j in range(i + 1, n):
            if latency_ms[i][j] != latency_ms[j][i]:
                raise ValueError(
                    f"latency matrix asymmetric at ({i}, {j})")
            links.append(_link(names[i], names[j],
                               latency_ms[i][j] / 1000.0,
                               bandwidth_kbps, jitter_ms / 1000.0,
                               loss_prob))
    return NetGraph(nodes=tuple(names), links=tuple(links))


#: Canonical 3-region WAN used by examples, tests and the net-smoke CI
#: job: a US/EU/APAC triangle with realistic one-way latencies.
DEFAULT_DC_MATRIX_MS = (
    (0.0, 40.0, 120.0),
    (40.0, 0.0, 90.0),
    (120.0, 90.0, 0.0),
)

GENERATORS = ("star", "multi_dc")


def graph_from_spec(spec: Dict
                    ) -> Tuple[NetGraph, Optional[Dict[str, str]], float]:
    """Build ``(graph, placement, control_size_kb)`` from a JSON-able
    dict — the ``extra={"net": {...}}`` / CLI / sweep-manifest format.

    Keys: ``topology`` (one of :data:`GENERATORS`), ``nodes`` (star
    leaf count), ``latency_ms``, ``jitter_ms``, ``loss``,
    ``bandwidth_kbps``, ``matrix_ms``/``names`` (multi-DC; defaults to
    :data:`DEFAULT_DC_MATRIX_MS`), plus pass-through ``placement`` and
    ``control_kb``.
    """
    spec = dict(spec)
    kind = spec.pop("topology", "star")
    placement = spec.pop("placement", None)
    control_kb = float(spec.pop("control_kb", 0.0))
    nodes = int(spec.pop("nodes", 4))
    latency_s = float(spec.pop("latency_ms", 0.0)) / 1000.0
    jitter_ms = float(spec.pop("jitter_ms", 0.0))
    loss = float(spec.pop("loss", 0.0))
    bandwidth = spec.pop("bandwidth_kbps", None)
    bandwidth = float(bandwidth) if bandwidth is not None else None
    common = dict(bandwidth_kbps=bandwidth,
                  jitter_s=jitter_ms / 1000.0, loss_prob=loss)
    if kind == "star":
        graph = star(nodes, latency_s=latency_s, **common)
    elif kind == "multi_dc":
        matrix = spec.pop("matrix_ms", DEFAULT_DC_MATRIX_MS)
        graph = multi_dc(matrix, names=spec.pop("names", None),
                         bandwidth_kbps=bandwidth,
                         jitter_ms=jitter_ms, loss_prob=loss)
    else:
        raise ValueError(
            f"unknown topology {kind!r}; expected one of "
            f"{', '.join(GENERATORS)}")
    unused = sorted(spec)
    if unused:
        raise ValueError(f"unused net spec keys: {', '.join(unused)}")
    return graph, placement, control_kb
