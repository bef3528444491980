"""T-Chain core: the paper's primary contribution.

The core package implements Section II of the paper independently of
any particular application:

* :mod:`repro.core.crypto` — the symmetric cipher, per-transaction keys
  and the sealed-piece abstraction that makes the exchange *almost
  fair*: an encrypted piece is useless until the matching key arrives.
* :mod:`repro.core.messages` — the protocol messages exchanged by
  donors, requestors and payees.
* :mod:`repro.core.transaction` / :mod:`repro.core.chain` — the
  triangle-chaining state machines (initiation, continuation,
  termination; Fig. 1 of the paper).
* :mod:`repro.core.exchange` — the per-peer exchange engine tying the
  above together, including departure handling (Sec. II-B4).
* :mod:`repro.core.flow_control` — adaptive receiver selection with a
  pending-piece window k (Sec. II-D2).
* :mod:`repro.core.policy` — payee selection (direct/indirect
  reciprocity) and opportunistic seeding decisions (Sec. II-D3).

The BitTorrent application of T-Chain evaluated in Section IV lives in
:mod:`repro.bt.protocols.tchain` and drives these components.
"""

from repro.core.chain import Chain, ChainPhase, ChainRegistry
from repro.core.crypto import (
    Key,
    SealedPiece,
    decrypt,
    encrypt,
    generate_key,
)
from repro.core.exchange import ExchangeError, ExchangeLedger
from repro.core.flow_control import DEFAULT_PENDING_LIMIT, FlowController
from repro.core.messages import (
    EncryptedPieceMessage,
    KeyReleaseMessage,
    PlainPieceMessage,
    ReceptionReport,
)
from repro.core.policy import (
    PayeeDecision,
    ReciprocityKind,
    select_payee,
    should_opportunistically_seed,
)
from repro.core.transaction import (
    InvalidTransition,
    Transaction,
    TransactionState,
)

__all__ = [
    "Chain",
    "ChainPhase",
    "ChainRegistry",
    "DEFAULT_PENDING_LIMIT",
    "EncryptedPieceMessage",
    "ExchangeError",
    "ExchangeLedger",
    "FlowController",
    "InvalidTransition",
    "Key",
    "KeyReleaseMessage",
    "PayeeDecision",
    "PlainPieceMessage",
    "ReceptionReport",
    "ReciprocityKind",
    "SealedPiece",
    "Transaction",
    "TransactionState",
    "decrypt",
    "encrypt",
    "generate_key",
    "select_payee",
    "should_opportunistically_seed",
]
