"""Piece selection policies.

Leechers pick which piece to fetch from an uploader.  The default is
BitTorrent's Local-Rarest-First (LRF): among the candidate pieces,
prefer the one with the fewest copies among the chooser's neighbors.
T-Chain uses LRF everywhere except newcomer bootstrapping, where the
donor applies the both-need rule
(:meth:`repro.bt.protocols.tchain._TChainNode._decide_bootstrap`).
"""

from __future__ import annotations

from random import Random
from typing import AbstractSet, Dict, Iterable, Optional, Sequence, Set

from repro.bt.torrent import mask_bits


def availability(pieces: Iterable[int],
                 neighbor_books: Iterable[AbstractSet[int]]
                 ) -> Dict[int, int]:
    """Copies of each piece among the given neighbor piece sets."""
    counts = {p: 0 for p in pieces}
    for book in neighbor_books:
        for piece in counts:
            if piece in book:
                counts[piece] += 1
    return counts


def rarest_of(counts: Dict[int, int], rng: Random) -> Optional[int]:
    """LRF choice over precomputed ``{piece: copies}`` counts.

    The tail of :func:`local_rarest_first`: sorted tie pool, one
    ``rng.choice``.
    """
    if not counts:
        return None
    rarest = min(counts.values())
    pool = sorted(p for p, c in counts.items() if c == rarest)
    return rng.choice(pool)


def rarest_in_mask(candidates: int, copies: Sequence[int],
                   rng: Random) -> int:
    """LRF choice over a non-empty candidate bitmask, given the
    chooser's ``copies[piece]`` availability column.

    One pass over the candidate pieces, equal to :func:`rarest_of` on
    ``{piece: copies[piece]}`` draw for draw: the tie pool comes out
    ascending because ``mask_bits`` is ascending, and exactly one
    ``rng.choice`` is made.
    """
    best = -1
    pool = []
    for piece in mask_bits(candidates):
        count = copies[piece]
        if count < best or best < 0:
            best = count
            pool = [piece]
        elif count == best:
            pool.append(piece)
    return rng.choice(pool)


def local_rarest_first(candidates: Set[int],
                       neighbor_books: Iterable[AbstractSet[int]],
                       rng: Random) -> Optional[int]:
    """LRF choice among ``candidates``; ties broken uniformly.

    ``neighbor_books`` are the *chooser's* neighbors' completed piece
    sets — rarity is local, as in BitTorrent.
    """
    if not candidates:
        return None
    return rarest_of(availability(candidates, neighbor_books), rng)


def random_piece(candidates: Set[int], rng: Random) -> Optional[int]:
    """Uniform random choice (Random BitTorrent, tie-breaking)."""
    if not candidates:
        return None
    return rng.choice(sorted(candidates))
