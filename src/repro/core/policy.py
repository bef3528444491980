"""Payee selection: direct vs. indirect reciprocity (Sec. II-B2).

When a donor uploads to a requestor it must designate the payee the
requestor will reciprocate to:

* **Direct reciprocity** — if the requestor owns at least one piece the
  donor needs, the donor designates *itself*; the pair behaves like
  encrypted tit-for-tat.
* **Indirect reciprocity** — otherwise the donor picks a random
  neighbor that needs at least one of the requestor's completed pieces
  (pay-it-forward).
* **Termination** — if no such neighbor exists the donor uploads an
  unencrypted piece and the chain ends (Fig. 1(c)).

The functions here are pure: the caller supplies the candidate sets and
the flow-control view, which keeps the decision logic testable without
a simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from random import Random
from typing import Iterable, List, Optional

from repro.core.flow_control import FlowController


class ReciprocityKind(enum.Enum):
    """Outcome of payee selection."""

    DIRECT = "direct"
    INDIRECT = "indirect"
    TERMINATE = "terminate"


@dataclass(frozen=True)
class PayeeDecision:
    """The donor's choice of payee (or the decision to terminate)."""

    kind: ReciprocityKind
    payee_id: Optional[str]

    @property
    def terminates_chain(self) -> bool:
        """True when the donor must upload unencrypted."""
        return self.kind is ReciprocityKind.TERMINATE


def select_payee(donor_id: str,
                 requestor_id: str,
                 requestor_has_piece_donor_needs: bool,
                 candidate_payees: Iterable[str],
                 flow: FlowController,
                 rng: Random) -> PayeeDecision:
    """Choose the payee for the next transaction.

    Parameters
    ----------
    requestor_has_piece_donor_needs:
        Direct-reciprocity test: does the requestor own a completed
        piece the donor still needs?
    candidate_payees:
        Donor's neighbors that need at least one of the requestor's
        completed pieces (including the piece about to be uploaded);
        the donor and the requestor themselves must not be included.
    flow:
        The donor's flow controller; over-window candidates are
        filtered out (Sec. II-D2).
    """
    if requestor_has_piece_donor_needs:
        return PayeeDecision(ReciprocityKind.DIRECT, donor_id)
    blocked = flow.blocked
    eligible: List[str] = [
        c for c in candidate_payees
        if c not in (donor_id, requestor_id) and c not in blocked
    ]
    if not eligible:
        return PayeeDecision(ReciprocityKind.TERMINATE, None)
    return PayeeDecision(ReciprocityKind.INDIRECT, rng.choice(eligible))


def should_opportunistically_seed(completed_pieces: int,
                                  unfulfilled_obligations: int) -> bool:
    """Opportunistic-seeding trigger (Sec. II-D3).

    A leecher may initiate a chain when it owns at least one completed
    piece and has no pending (not yet reciprocated) file pieces — i.e.
    no received piece whose reciprocation it still owes.  With nothing
    left to reciprocate, idle upload capacity is put to work by
    starting new chains, "immediately increasing the number of chains
    in which B is participating".
    """
    return completed_pieces >= 1 and unfulfilled_obligations == 0
