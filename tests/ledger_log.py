"""Test-side record of every exchange a run creates.

The exchange ledger keeps a transaction only while it is in flight, so
a test that inspects a whole run's exchanges records them as they are
made: :func:`recording` wraps ``ExchangeLedger.create_transaction`` for
the duration of a ``with`` block.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.core.crypto import Key, SealedPiece
from repro.core.exchange import ExchangeLedger
from repro.core.transaction import Transaction


@dataclass
class Created:
    """One ``create_transaction`` call: the transaction, and its key
    and sealed piece as issued (the ledger drops them later)."""

    tx: Transaction
    key: Optional[Key]
    sealed: Optional[SealedPiece]


@contextmanager
def recording() -> Iterator[List[Created]]:
    """Yield a list that collects every exchange created in the block."""
    created: List[Created] = []
    original = ExchangeLedger.create_transaction

    def create_transaction(self, *args, **kwargs):
        tx, sealed = original(self, *args, **kwargs)
        created.append(Created(tx, tx.key, sealed))
        return tx, sealed

    ExchangeLedger.create_transaction = create_transaction
    try:
        yield created
    finally:
        ExchangeLedger.create_transaction = original


def transactions(created: List[Created]) -> List[Transaction]:
    """The recorded transactions, in creation order."""
    return [entry.tx for entry in created]
