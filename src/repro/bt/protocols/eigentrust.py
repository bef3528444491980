"""EigenTrust (Kamvar et al., WWW 2003) as a comparison baseline.

The paper's related-work discussion (Sec. V, Table II) holds
EigenTrust up as the representative indirect-reciprocity scheme: peers
rate each transaction, normalized local trust values are aggregated
into a global trust vector (the principal eigenvector of the trust
matrix), and service is allocated by global trust, with ~10 % of each
peer's resources reserved for newcomers with no reputation.

We implement the scheme faithfully enough to measure the properties
Table II claims:

* **global trust aggregation** — power iteration with pre-trusted-peer
  damping, ``t ← (1−a)·Cᵀt + a·p``, recomputed every epoch.  Kamvar's
  paper distributes this computation; we centralize it at the tracker
  (a simplification in the *system's favor* — no gossip error), which
  is also why Table II scores the approach low on
  simplicity/scalability.
* **trust-weighted unchoking** — each upload slot picks its receiver
  with probability proportional to global trust (90 %) or uniformly
  among zero-trust newcomers (10 %) — the altruism budget the paper
  notes "has been the target of strategic free-riders".
* **local trust from direct experience** — a received piece is a
  satisfactory transaction for its uploader.
* **the false-praise hole** — colluders may inject fabricated local
  trust for each other (:meth:`TrustAuthority.report_praise`),
  inflating their global trust; T-Chain's Table II advantage is that
  it has no aggregate to poison.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro.bt.peer import UploadPlan
from repro.bt.protocols.base import BaselineLeecher
from repro.sim.events import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.swarm import Swarm

#: fraction of bandwidth reserved for zero-trust newcomers
NEWCOMER_SHARE = 0.1

#: damping toward the pre-trusted set (Kamvar's ``a``)
PRETRUST_WEIGHT = 0.15

#: power-iteration steps per epoch (converges fast at swarm sizes here)
ITERATIONS = 15


class TrustAuthority:
    """Centralized stand-in for EigenTrust's distributed aggregation.

    Holds every peer's local trust counts and recomputes the global
    trust vector once per epoch.
    """

    def __init__(self, swarm: "Swarm"):
        self.swarm = swarm
        #: rater id -> ratee id -> positive local trust mass
        self._local: Dict[str, Dict[str, float]] = {}
        self._global: Dict[str, float] = {}
        self.pretrusted: Set[str] = set()
        #: used by the false-praise attack to find fellow colluders
        self.colluders: Set[str] = set()
        self.recompute_count = 0
        PeriodicTask(swarm.sim, swarm.config.rechoke_interval_s,
                     self.recompute, first_delay=0.0)

    @classmethod
    def of(cls, swarm: "Swarm") -> "TrustAuthority":
        """The swarm's authority, created on first use."""
        authority = getattr(swarm, "_trust_authority", None)
        if authority is None:
            authority = cls(swarm)
            swarm._trust_authority = authority
        return authority

    # ------------------------------------------------------------------
    # Local trust input
    # ------------------------------------------------------------------
    def report_satisfactory(self, rater: str, ratee: str,
                            weight: float = 1.0) -> None:
        """A genuine satisfactory transaction."""
        if rater == ratee:
            return
        row = self._local.setdefault(rater, {})
        row[ratee] = row.get(ratee, 0.0) + weight

    def report_praise(self, rater: str, ratee: str,
                      weight: float) -> None:
        """Fabricated praise — the false-praise attack.

        The authority cannot distinguish it from genuine experience;
        that inability is the vulnerability being modelled.
        """
        self.report_satisfactory(rater, ratee, weight)

    def forget_peer(self, peer_id: str) -> None:
        """Drop a departed peer's row and column."""
        self._local.pop(peer_id, None)
        for row in self._local.values():
            row.pop(peer_id, None)
        self._global.pop(peer_id, None)
        self.pretrusted.discard(peer_id)

    # ------------------------------------------------------------------
    # Global trust
    # ------------------------------------------------------------------
    def recompute(self) -> None:
        """Power-iterate ``t ← (1−a)·Cᵀt + a·p`` over current members."""
        self.recompute_count += 1
        members = sorted(self.swarm.peers)
        if not members:
            self._global = {}
            return
        pretrusted = [m for m in members if m in self.pretrusted] \
            or members
        p = {m: (1.0 / len(pretrusted) if m in pretrusted else 0.0)
             for m in members}
        # normalized local trust rows
        c: Dict[str, Dict[str, float]] = {}
        for rater in members:
            row = {ratee: v for ratee, v in
                   self._local.get(rater, {}).items()
                   if ratee in self.swarm.peers}
            total = sum(row.values())
            c[rater] = ({k: v / total for k, v in row.items()}
                        if total > 0 else dict(p))
        t = dict(p)
        for _ in range(ITERATIONS):
            nxt = {m: PRETRUST_WEIGHT * p[m] for m in members}
            for rater in members:
                weight = t.get(rater, 0.0)
                if weight <= 0:
                    continue
                for ratee, cij in c[rater].items():
                    nxt[ratee] = nxt.get(ratee, 0.0) \
                        + (1 - PRETRUST_WEIGHT) * weight * cij
            t = nxt
        self._global = t

    def trust(self, peer_id: str) -> float:
        """Current global trust of a peer (0 for strangers)."""
        return self._global.get(peer_id, 0.0)

    def has_reputation(self, peer_id: str) -> bool:
        """Does anyone's local trust mention this peer?"""
        return any(peer_id in row for row in self._local.values())


class EigenTrustLeecher(BaselineLeecher):
    """A compliant EigenTrust leecher."""

    def __init__(self, swarm: "Swarm", peer_id: Optional[str] = None,
                 capacity_kbps: Optional[float] = None):
        super().__init__(swarm, peer_id, capacity_kbps,
                         n_slots=swarm.config.total_upload_slots)
        self.authority = TrustAuthority.of(swarm)

    def next_upload(self) -> Optional[UploadPlan]:
        candidates = self.serveable_neighbors()
        if not candidates:
            return None
        receiver_id = self._draw_receiver(candidates)
        plan = self.plan_for(receiver_id)
        if plan is not None:
            return plan
        for other in candidates:
            if other != receiver_id:
                plan = self.plan_for(other)
                if plan is not None:
                    return plan
        return None

    def _draw_receiver(self, candidates: List[str]) -> str:
        rng = self.sim.rng
        trusted = [(c, self.authority.trust(c)) for c in candidates]
        newcomers = [c for c, t in trusted if t <= 0.0]
        weighted = [(c, t) for c, t in trusted if t > 0.0]
        if newcomers and (not weighted
                          or rng.random() < NEWCOMER_SHARE):
            return rng.choice(newcomers)
        if weighted:
            names = [c for c, _ in weighted]
            weights = [t for _, t in weighted]
            return rng.choices(names, weights=weights, k=1)[0]
        return rng.choice(candidates)

    def on_payload(self, payload, uploader_id: str) -> None:
        self.authority.report_satisfactory(self.id, uploader_id)
        super().on_payload(payload, uploader_id)
        self.pump()

    def on_leave(self) -> None:
        self.authority.forget_peer(self.id)
        super().on_leave()
