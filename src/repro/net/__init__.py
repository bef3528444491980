"""Network substrate: uplink bandwidth and the optional link-level
model (the neighbor graph is part of the swarm state,
:mod:`repro.bt.columnar`).

Following the paper's evaluation assumptions (Sec. IV-A), upload
bandwidth is the only constrained resource by default; download
bandwidth is unlimited and link latency matters only for small control
messages.  The optional substrate (:mod:`repro.net.link`,
:mod:`repro.net.topogen`, :mod:`repro.net.routing`; enabled via
``extra={"net": spec}``) layers per-edge latency/jitter/loss, FIFO
queueing and shortest-path routing on top — see docs/NETWORK.md.
"""

from repro.net.bandwidth import Transfer, Uplink
from repro.net.link import (
    Link,
    LinkSpec,
    NET_STREAM_LABEL,
    NetGraph,
    NetworkModel,
    build_network,
)
from repro.net.routing import RouteTable
from repro.net.topogen import (
    DEFAULT_DC_MATRIX_MS,
    graph_from_spec,
    multi_dc,
    star,
)

__all__ = [
    "DEFAULT_DC_MATRIX_MS",
    "Link",
    "LinkSpec",
    "NET_STREAM_LABEL",
    "NetGraph",
    "NetworkModel",
    "RouteTable",
    "Transfer",
    "Uplink",
    "build_network",
    "graph_from_spec",
    "multi_dc",
    "star",
]
