"""The shared file: pieces and per-peer piece bookkeeping.

A :class:`Torrent` describes the file (piece count/size); a
:class:`PieceBook` is one peer's view of it — which pieces are
completed, which are expected (in flight or encrypted-pending), and
which are still needed.  The distinction between *completed* and
*expected* matters for T-Chain, where a peer may hold many encrypted
pieces it cannot use yet, and for avoiding duplicate downloads in all
protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Set


@dataclass(frozen=True)
class Torrent:
    """Immutable description of the file a swarm shares."""

    n_pieces: int
    piece_size_kb: float = 256.0

    def __post_init__(self):
        if self.n_pieces < 1:
            raise ValueError("a torrent needs at least one piece")
        if self.piece_size_kb <= 0:
            raise ValueError("piece size must be positive")

    @property
    def size_kb(self) -> float:
        """Total file size in KB."""
        return self.n_pieces * self.piece_size_kb

    @property
    def size_mb(self) -> float:
        """Total file size in MB."""
        return self.size_kb / 1024.0

    def all_pieces(self) -> FrozenSet[int]:
        """The full piece index set."""
        return frozenset(range(self.n_pieces))


popcount = int.bit_count


#: Width of one per-piece count field in a packed availability value
#: (:class:`~repro.bt.columnar.ColumnarState`).  32 bits, not 8: a
#: large-view free-rider bypasses the 55-neighbour cap, so a count is
#: bounded only by the swarm size.
COUNT_BITS = 32


#: ``_BYTE_BITS[b]``: the bit positions set in the byte ``b``.
_BYTE_BITS = tuple(tuple(bit for bit in range(8) if byte >> bit & 1)
                   for byte in range(256))


def mask_bits(mask: int) -> List[int]:
    """The bit positions set in ``mask``, ascending.

    One ``to_bytes`` and a table row per byte: clearing the lowest set
    bit costs three big-int operations per *bit* (2.7x slower at 48
    pieces, 4x at 2048).
    """
    out = []
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        if byte:
            for bit in _BYTE_BITS[byte]:
                out.append(base + bit)
        base += 8
    return out


def mask_to_set(mask: int) -> Set[int]:
    """The set of bit positions in ``mask``."""
    return set(mask_bits(mask))


def set_to_mask(pieces: Iterable[int]) -> int:
    """Pack an iterable of piece indices into a bitmask."""
    mask = 0
    for piece in pieces:
        mask |= 1 << piece
    return mask


class PieceBook:
    """One peer's piece state, one bit per piece.

    ``cmask`` — completed: decrypted/usable pieces; what the peer can
    serve.  ``emask`` — expected: pieces on their way, in-flight
    downloads plus (for T-Chain) encrypted pieces awaiting a key.
    ``wmask`` — wanted: neither completed nor expected; piece selection
    skips expected pieces so the same piece is never fetched twice.
    The three masks are disjoint and together cover the torrent.

    The masks are the swarm's only record of piece interest: *"does W
    want something H holds"* is ``W.book.wmask & H.book.cmask``.  Read
    them freely; only the methods here write them.  The set-returning
    views (:attr:`completed`, :meth:`wanted`, :meth:`missing`,
    :meth:`needs_from`) materialize a fresh set per call and are meant
    for metrics, tests and cold paths.

    ``spread`` is ``cmask`` with bit ``COUNT_BITS * piece`` set per
    completed piece: the value one copy of this book adds to a
    neighbour's packed availability counts.

    A book may be shared by several peers (a Sybil group pools one);
    while its holders are registered in a swarm, ``_state`` / ``_rows``
    link it to their :class:`~repro.bt.columnar.ColumnarState` rows so
    the columns derived from the masks — neighbour availability and
    the ``unwanted`` bits — hear every completion and every piece
    wanted again, whichever identity made it.
    """

    __slots__ = ("torrent", "cmask", "spread", "emask", "wmask", "_state",
                 "_rows")

    def __init__(self, torrent: Torrent,
                 initial_pieces: Iterable[int] = ()):
        self.torrent = torrent
        self.cmask = 0
        self.spread = 0
        self.emask = 0
        self.wmask = (1 << torrent.n_pieces) - 1
        self._state = None
        self._rows: List[int] = []
        for piece in initial_pieces:
            self.add_completed(piece)

    # -- completed ------------------------------------------------------
    @property
    def completed(self) -> Set[int]:
        """Completed piece indices (a fresh set)."""
        return mask_to_set(self.cmask)

    def add_completed(self, piece: int) -> bool:
        """Mark a piece usable; returns False if already completed."""
        self._check(piece)
        bit = 1 << piece
        self.emask &= ~bit
        if self.cmask & bit:
            return False
        self.cmask |= bit
        self.wmask &= ~bit
        one_copy = 1 << COUNT_BITS * piece
        self.spread |= one_copy
        if self._state is not None:
            self._state.on_completed(self._rows, one_copy)
        return True

    def has(self, piece: int) -> bool:
        """True if the piece is completed."""
        return bool(self.cmask >> piece & 1)

    @property
    def completed_count(self) -> int:
        """Number of completed pieces."""
        return popcount(self.cmask)

    @property
    def is_complete(self) -> bool:
        """True when the whole file is downloaded."""
        return popcount(self.cmask) == self.torrent.n_pieces

    # -- expected -------------------------------------------------------
    def expect(self, piece: int) -> None:
        """Mark a piece as in flight / pending decryption."""
        self._check(piece)
        bit = 1 << piece
        if not self.cmask & bit:
            self.emask |= bit
            self.wmask &= ~bit

    def unexpect(self, piece: int) -> None:
        """A pending piece fell through (departure, abort)."""
        bit = 1 << piece
        self.emask &= ~bit
        if not (self.cmask | self.wmask) & bit:
            self.wmask |= bit
            if self._state is not None:
                self._state.on_wanted_again(self._rows, bit)

    def is_expected(self, piece: int) -> bool:
        """True if the piece is in flight or pending a key."""
        return bool(self.emask >> piece & 1)

    # -- derived sets ---------------------------------------------------
    def missing(self) -> Set[int]:
        """Pieces not yet completed (may include expected ones)."""
        return mask_to_set(self.wmask | self.emask)

    def wanted(self) -> Set[int]:
        """Pieces worth requesting: not completed and not expected."""
        return mask_to_set(self.wmask)

    def needs_from(self, other_completed: Iterable[int]) -> Set[int]:
        """Wanted pieces that ``other_completed`` could provide."""
        wmask = self.wmask
        return {p for p in other_completed if wmask >> p & 1}

    def wants(self, piece: int) -> bool:
        """True if the piece is wanted (not completed, not expected)."""
        return bool(self.wmask >> piece & 1)

    def _check(self, piece: int) -> None:
        if not 0 <= piece < self.torrent.n_pieces:
            raise IndexError(f"piece {piece} out of range "
                             f"[0, {self.torrent.n_pieces})")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"PieceBook({self.completed_count}/"
                f"{self.torrent.n_pieces} done, "
                f"{popcount(self.emask)} expected)")


def piece_payload(torrent: Torrent, piece: int) -> bytes:
    """Deterministic synthetic content for a piece.

    Used by ``real_crypto`` simulations: every donor derives the same
    bytes for the same piece, so decrypted pieces can be checked
    against ground truth end to end.
    """
    if not 0 <= piece < torrent.n_pieces:
        raise IndexError(f"piece {piece} out of range")
    size = int(torrent.piece_size_kb * 1024)
    stamp = f"piece-{piece:08d}|".encode("ascii")
    reps = size // len(stamp) + 1
    return (stamp * reps)[:size]


def full_book(torrent: Torrent) -> PieceBook:
    """A seeder's book: everything completed."""
    return PieceBook(torrent, initial_pieces=range(torrent.n_pieces))


def partial_book(torrent: Torrent, fraction: float,
                 rng) -> PieceBook:
    """A book pre-filled with a random ``fraction`` of pieces.

    Used by the initial-piece-differences experiment (Fig. 6(b)).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    count = round(fraction * torrent.n_pieces)
    pieces = rng.sample(range(torrent.n_pieces), count)
    return PieceBook(torrent, initial_pieces=pieces)
