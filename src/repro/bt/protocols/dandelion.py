"""Dandelion (Sirivianos et al., USENIX 2007) as a comparison baseline.

Dandelion is the paper's representative encryption-plus-credit
scheme: a *trusted central server* keeps a credit balance per peer;
uploads earn credit (the receiver's acknowledgment is routed through
the server, which also brokers the decryption keys), downloads spend
it, and newcomers start with an initial credit grant "earned by some
means outside the scope of the file-sharing system" (Sec. V).

What Table II holds against it — and what this implementation lets us
measure —

* the central bank is a scalability/simplicity liability (every
  transaction touches it; we count the message load);
* fairness is good: credit cannot be forged, so free-riders can only
  spend their initial grant and then starve;
* newcomer bootstrapping is rigid: the initial grant is a fixed
  subsidy, and whitewashing (a fresh identity = a fresh grant) turns
  it into an attack budget.

The cryptographic half (server-brokered keys) is modelled by the
credit gate itself: a download is only *scheduled* when the receiver
can pay, which is exactly what holding the key hostage achieves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.bt.peer import UploadPlan
from repro.bt.protocols.base import BaselineLeecher, BaselineSeeder

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.swarm import Swarm

#: credit granted to every new identity (in pieces)
INITIAL_CREDIT = 2.0

#: credit earned per piece uploaded / spent per piece downloaded
CREDIT_PER_PIECE = 1.0

#: free pieces the content provider's seeder serves per identity —
#: the out-of-band bootstrap subsidy the paper criticizes as rigid
SEEDER_FREE_CAP = 3

#: seconds a broke-but-demanding compliant peer waits before buying
#: one credit out of band (Dandelion assumes credit "earned by some
#: means outside the scope of the file-sharing system")
TOPUP_DELAY_S = 10.0


class CreditBank:
    """The trusted third party: per-peer credit balances.

    Single point of coordination (and failure) — `message_count`
    tallies the per-transaction server traffic that Table II's
    simplicity/scalability row penalizes.
    """

    def __init__(self):
        self._balance: Dict[str, float] = {}
        self._free_served: Dict[str, int] = {}
        self.message_count = 0
        self.grants = 0
        #: credits bought out of band — the scheme's hidden subsidy
        self.out_of_band_credits = 0

    @classmethod
    def of(cls, swarm: "Swarm") -> "CreditBank":
        """The swarm's bank, created on first use."""
        bank = getattr(swarm, "_credit_bank", None)
        if bank is None:
            bank = cls()
            swarm._credit_bank = bank
        return bank

    def enroll(self, peer_id: str) -> None:
        """Register an identity with the initial grant."""
        if peer_id not in self._balance:
            self._balance[peer_id] = INITIAL_CREDIT
            self.grants += 1
            self.message_count += 1

    def balance(self, peer_id: str) -> float:
        """Current credit of a peer."""
        return self._balance.get(peer_id, 0.0)

    def can_afford(self, peer_id: str,
                   pieces: float = 1.0) -> bool:
        """Does the peer hold enough credit for ``pieces``?"""
        return self.balance(peer_id) >= pieces * CREDIT_PER_PIECE

    def settle(self, uploader_id: str, downloader_id: str) -> bool:
        """Move one piece's credit from downloader to uploader.

        Returns False (and moves nothing) if the downloader cannot
        pay — the server then withholds the key, i.e. the transfer is
        never honored.
        """
        self.message_count += 2  # receipt + key release
        cost = CREDIT_PER_PIECE
        if self._balance.get(downloader_id, 0.0) < cost:
            return False
        self._balance[downloader_id] -= cost
        self._balance[uploader_id] = \
            self._balance.get(uploader_id, 0.0) + cost
        return True

    def top_up(self, peer_id: str, amount: float = 1.0) -> None:
        """An out-of-band credit purchase (money → credit)."""
        self._balance[peer_id] = \
            self._balance.get(peer_id, 0.0) + amount
        self.out_of_band_credits += amount
        self.message_count += 1

    # -- provider subsidy ----------------------------------------------
    def free_quota_left(self, peer_id: str) -> int:
        """Remaining free-from-the-seeder pieces for an identity."""
        return max(0, SEEDER_FREE_CAP
                   - self._free_served.get(peer_id, 0))

    def seeder_can_serve(self, peer_id: str) -> bool:
        """May the seeder serve this peer (free quota or paying)?"""
        return self.free_quota_left(peer_id) > 0 \
            or self.can_afford(peer_id)

    def settle_seeder(self, downloader_id: str) -> bool:
        """Settle a seeder upload: free within the per-identity
        quota, paid (credit burned at the provider) beyond it.

        The subsidy is the economy's liquidity source: without it the
        seeder would be a pure credit sink and the swarm would
        deadlock once the initial grants drained into it.
        """
        self.message_count += 2
        if self.free_quota_left(downloader_id) > 0:
            self._free_served[downloader_id] = \
                self._free_served.get(downloader_id, 0) + 1
            return True
        cost = CREDIT_PER_PIECE
        if self._balance.get(downloader_id, 0.0) < cost:
            return False
        self._balance[downloader_id] -= cost
        return True


class DandelionSeeder(BaselineSeeder):
    """The content provider's seeder: subsidized within a per-identity
    quota, credit-charging beyond it.

    The quota is the liquidity source of the credit economy (see
    :meth:`CreditBank.settle_seeder`); the charge beyond it keeps
    free-riders from simply living off the seeder.
    """

    def __init__(self, swarm: "Swarm", peer_id: Optional[str] = None,
                 capacity_kbps: Optional[float] = None,
                 n_slots: Optional[int] = None):
        super().__init__(swarm, peer_id, capacity_kbps, n_slots)
        self.bank = CreditBank.of(swarm)

    def on_join(self) -> None:
        self.bank.enroll(self.id)
        super().on_join()

    def serveable_neighbors(self) -> List[str]:
        return [c for c in super().serveable_neighbors()
                if self.bank.seeder_can_serve(c)]

    def on_upload_finished(self, plan: UploadPlan) -> None:
        self.bank.settle_seeder(plan.receiver_id)


class DandelionLeecher(BaselineLeecher):
    """A compliant Dandelion leecher.

    Serves any interested neighbor that can currently pay; seeder
    uploads are also credited through the bank (the server funds
    dissemination), so compliant peers accumulate credit by relaying.
    """

    def __init__(self, swarm: "Swarm", peer_id: Optional[str] = None,
                 capacity_kbps: Optional[float] = None):
        super().__init__(swarm, peer_id, capacity_kbps,
                         n_slots=swarm.config.upload_slots)
        self.bank = CreditBank.of(swarm)
        self._topup_task = None

    def on_join(self) -> None:
        self.bank.enroll(self.id)
        super().on_join()
        if self.kind == "leecher":
            # Compliant users buy credit out of band when earning
            # opportunities run dry (endgame demand starvation);
            # free-riders, by definition, pay for nothing.
            from repro.sim.events import PeriodicTask
            self._topup_task = PeriodicTask(
                self.sim, TOPUP_DELAY_S, self._maybe_top_up)

    def on_leave(self) -> None:
        if self._topup_task is not None:
            self._topup_task.stop()
        super().on_leave()

    def _maybe_top_up(self) -> None:
        if not self.active:
            return
        if not self.bank.can_afford(self.id) and self.book.wmask:
            self.bank.top_up(self.id)
            # let stalled uploaders reconsider us
            for peer in self.neighbor_peers():
                peer.pump()

    def on_rebranded(self) -> None:
        # A fresh identity gets a fresh grant — exactly the attack
        # budget the rigid-bootstrapping criticism points at.
        super().on_rebranded()
        self.bank.enroll(self.id)

    def next_upload(self) -> Optional[UploadPlan]:
        candidates = [c for c in self.serveable_neighbors()
                      if self.bank.can_afford(c)]
        self.sim.rng.shuffle(candidates)
        for receiver_id in candidates:
            plan = self.plan_for(receiver_id)
            if plan is not None:
                return plan
        return None

    def on_upload_finished(self, plan: UploadPlan) -> None:
        # Settlement happens at delivery; an unpayable receiver
        # yields no credit (the key was never released) — but the
        # can_afford gate makes that rare.
        self.bank.settle(self.id, plan.receiver_id)

    def on_payload(self, payload, uploader_id: str) -> None:
        super().on_payload(payload, uploader_id)
        self.pump()
