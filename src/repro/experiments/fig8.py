"""Figure 8: collusion against T-Chain.

Same setting as Fig. 7, but all T-Chain free-riders collude: whenever
a colluder is the designated payee for a fellow colluder's
transaction, it files a false reception report, so the donor releases
the key for an upload that never happened (Sec. III-A4).

Paper shapes: colluding free-riders *can* now finish downloads, but
orders of magnitude slower than compliant leechers (~40× at swarm
size 1000 — sub-dial-up speeds), and collusion barely affects
compliant leechers.  The baselines are unchanged from Fig. 7.
"""

from __future__ import annotations

from typing import List

from repro.attacks.freerider import FreeRiderOptions
from repro.experiments.config import ExperimentScale
from repro.experiments.fig7 import Fig7Row, _grid, render as _render
from repro.experiments.fig7 import reduce  # noqa: F401 -- Fig. 7's rows
from repro.experiments.parallel import RunSpec

#: Colluding free-riders (no whitewash: identity changes would break
#: the colluders' mutual recognition).
COLLUSION_OPTIONS = FreeRiderOptions(large_view=True, whitewash=False,
                                     collude=True)


def grid(scale: ExperimentScale) -> List[RunSpec]:
    """Fig. 7's grid with colluding free-riders (and Fig. 7's
    ``reduce``)."""
    return _grid(scale, COLLUSION_OPTIONS, "fig8")


def render(rows: List[Fig7Row]) -> str:
    """Figure 8 as two printed tables."""
    return _render(rows, title_prefix="Fig. 8")
