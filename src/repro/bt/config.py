"""Swarm configuration.

The paper fixes its simulation setup once (Sec. IV-A):

* seeder upload 6000 Kbps, staying for the whole run;
* leecher uplinks heterogeneous, 400–1200 Kbps
  (:data:`DEFAULT_LEECHER_CAPACITIES`);
* 4 + 1 upload slots per leecher (:data:`UPLOAD_SLOTS`, plus
  ``base.OPTIMISTIC_SLOTS`` for BitTorrent-style protocols), 5 per
  seeder (:data:`SEEDER_SLOTS`);
* 256 KB pieces for BitTorrent/PropShare, 64 KB for T-Chain and
  FairTorrent (FairTorrent's basic exchange unit);
* tracker returns 50 random members (``tracker.LIST_SIZE``), refill
  below 30 neighbors (``swarm.REFILL_THRESHOLD``), at most 55
  neighbors;
* rechoke every :data:`RECHOKE_INTERVAL_S` = 10 s, optimistic unchoke
  every 30 s (``bittorrent.OPTIMISTIC_INTERVAL_S``);
* flow-control window k = 2.

A :class:`SwarmConfig` field is what some experiment varies; the fixed
setup is constants, here or beside their one reader.  The 16 KB
*blocks* of BitTorrent/PropShare are not separately simulated; a piece
transfer is the atomic unit (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Paper values (Sec. IV-A): leecher upload bandwidths vary 400-1200 Kbps.
DEFAULT_LEECHER_CAPACITIES = (400.0, 600.0, 800.0, 1000.0, 1200.0)

#: Regular upload slots of a leecher (BitTorrent's four tit-for-tat
#: slots) and upload slots of a seeder.
UPLOAD_SLOTS = 4
SEEDER_SLOTS = 5

#: Rechoke period; also every peer's re-scan and a free-rider's
#: re-announce.
RECHOKE_INTERVAL_S = 10.0

#: Every key ``SwarmConfig.extra`` accepts: the link-level substrate
#: spec.  Anything else is rejected at construction, so a typo or a
#: removed key fails loudly instead of being silently ignored.
EXTRA_KEYS = frozenset({"net"})


@dataclass
class SwarmConfig:
    """What an experiment varies about a swarm simulation.

    Defaults mirror Sec. IV-A; see module docstring.  ``n_pieces``
    plus ``piece_size_kb`` define the shared file (the paper's default
    is 128 MB: 512 pieces of 256 KB, or 2048 pieces of 64 KB for
    T-Chain/FairTorrent).
    """

    n_pieces: int = 64
    piece_size_kb: float = 256.0
    seeder_capacity_kbps: float = 6000.0
    max_neighbors: int = 55
    control_latency_s: float = 0.05
    flow_control_k: int = 2
    opportunistic_seeding: bool = True
    indirect_reciprocity: bool = True
    newcomer_bootstrap: bool = True
    real_crypto: bool = False
    seed: int = 0
    #: Quiescence stop: a swarm with no piece upload started and no
    #: arrival for this many simulated seconds is done (0 disables).
    quiet_window_s: float = 300.0
    #: T-Chain: seconds after which an unreciprocated delivery to an
    #: idle requestor marks its chain terminated (Figs. 10/11
    #: bookkeeping; flow control alone starves the free-rider).
    chain_stall_timeout_s: float = 300.0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        unknown = sorted(set(self.extra) - EXTRA_KEYS)
        if unknown:
            raise ValueError(
                f"unknown extra key(s) {unknown} (never accepted, or "
                f"removed: the swarm state has one arm and no "
                f"switches, the watchdogs are typed fields, sanitize "
                f"is a run_swarm argument); "
                f"accepted: {sorted(EXTRA_KEYS)}")

    @property
    def file_size_mb(self) -> float:
        """Size of the shared file in MB."""
        return self.n_pieces * self.piece_size_kb / 1024.0
