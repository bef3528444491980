"""T-Chain protocol behaviour at swarm level.

Asserts the paper's Section II/III claims on live simulations:
fairness enforcement, free-rider starvation, newcomer bootstrapping,
chain formation, opportunistic seeding and collusion boundaries.
"""

import gc
import weakref

import pytest

from repro.attacks.freerider import FreeRiderOptions
from repro.core.transaction import Transaction
from repro.experiments import run_swarm
from tests.ledger_log import recording, transactions


def tchain_run(**kwargs):
    defaults = dict(protocol="tchain", leechers=30, pieces=12, seed=13)
    defaults.update(kwargs)
    return run_swarm(**defaults)


class TestBasicOperation:
    def test_all_compliant_finish(self):
        result = tchain_run()
        assert result.completion_rate("leecher") == 1.0

    def test_chains_are_created_and_terminated(self):
        result = tchain_run()
        registry = result.tchain_state.registry
        assert registry.total_count > 0
        # everyone left, so every chain must have ended
        assert registry.active_count == 0

    def test_seeder_initiates_chains(self):
        result = tchain_run()
        assert result.tchain_state.registry.created_by_seeder > 0

    def test_transactions_complete(self):
        ledger = tchain_run().tchain_state.ledger
        assert ledger.completed_transactions > 0
        assert ledger.open_transactions == 0 or \
            ledger.open_transactions < ledger.completed_transactions

    def test_no_collusion_without_colluders(self):
        assert tchain_run().tchain_state.ledger.collusion_successes == 0

    def test_piece_log_records_encrypted_then_decrypted(self):
        result = tchain_run(leechers=10, pieces=6, series=("piece_log",))
        logs = [log for _, _, log in result.series["piece_log"]]
        assert any(logs)
        for log in logs:
            by_piece = {}
            for t, piece, kind in log:
                by_piece.setdefault(piece, []).append((t, kind))
            for piece, events in by_piece.items():
                kinds = [k for _, k in events]
                if "encrypted" in kinds and "decrypted" in kinds:
                    t_enc = min(t for t, k in events if k == "encrypted")
                    t_dec = max(t for t, k in events if k == "decrypted")
                    assert t_dec >= t_enc


class TestFairness:
    def test_fairness_factors_near_one(self):
        """Sec. IV-H: with only compliant leechers, downloads track
        uploads closely.  At small swarm sizes the seeder's altruistic
        share shifts the mean above 1 (it uploads ~1/3 of all pieces
        here), so we check the seeder-corrected mean and, more
        importantly, that factors cluster tightly (the paper's steep
        CDF)."""
        result = tchain_run(leechers=40, pieces=16)
        factors = result.metrics.fairness_factors("leecher")
        assert factors
        mean = sum(factors) / len(factors)
        seeder_up = sum(r.pieces_uploaded
                        for r in result.metrics.by_kind("seeder"))
        total_down = sum(r.pieces_downloaded
                         for r in result.metrics.by_kind("leecher"))
        expected = total_down / max(total_down - seeder_up, 1)
        assert mean == pytest.approx(expected, rel=0.35)
        # dispersion: most leechers sit near the mean
        var = sum((f - mean) ** 2 for f in factors) / len(factors)
        assert (var ** 0.5) / mean < 0.6

    def test_keys_withheld_until_reciprocation(self):
        """No compliant transaction completes without reciprocation or
        sanctioned forgiveness."""
        with recording() as created:
            ledger = tchain_run().tchain_state.ledger
        unreciprocated = sum(
            1 for t in transactions(created)
            if t.unreciprocated_completion)
        assert unreciprocated == 0 == ledger.collusion_successes


class TestFreeRiders:
    def test_freeriders_never_complete(self):
        result = tchain_run(leechers=40, pieces=12,
                            freerider_fraction=0.25)
        assert result.metrics.completion_rate("freerider") == 0.0
        assert result.completion_rate("leecher") == 1.0

    def test_freeriders_hold_only_encrypted_pieces(self):
        result = tchain_run(leechers=40, pieces=12,
                            freerider_fraction=0.25)
        records = result.metrics.by_kind("freerider")
        assert records
        for r in records:
            # Termination-phase plaintext gifts trickle in (the
            # paper's "rare circumstances"; they loom larger at this
            # scaled-down piece count) but never complete the file.
            assert r.pieces_completed < 12
        median = sorted(r.pieces_completed for r in records)[
            len(records) // 2]
        assert median <= 0.6 * 12

    def test_freeriders_download_bounded_by_flow_control(self):
        """Each honest peer wastes at most k pieces per free-rider."""
        result = tchain_run(leechers=30, pieces=12,
                            freerider_fraction=0.2)
        k = result.config.flow_control_k
        honest = result.n_compliant + 1  # + seeder
        for r in result.metrics.by_kind("freerider"):
            assert r.pieces_downloaded <= k * honest

    def test_compliant_leechers_protected(self):
        """Fig. 7(a): free-riders lengthen compliant completion only
        mildly under T-Chain."""
        base = tchain_run(leechers=40, pieces=16, seed=21)
        attacked = tchain_run(leechers=40, pieces=16, seed=21,
                              freerider_fraction=0.25)
        assert attacked.mean_completion_time() <= \
            2.0 * base.mean_completion_time()

    def test_silent_freeriders_also_starve(self):
        """Ablation: free-riders that do not even send reception
        reports still gain nothing.  (16+ pieces: tiny files hand out
        enough termination-phase gifts for a lucky free-rider to
        finish — see Fig. 13.)"""
        result = tchain_run(leechers=30, pieces=16,
                            freerider_fraction=0.2,
                            freeriders_send_reports=False)
        assert result.metrics.completion_rate("freerider") == 0.0
        assert result.completion_rate("leecher") == 1.0


class TestCollusion:
    def test_colluding_freeriders_progress_slowly(self):
        """Fig. 8: collusion lets free-riders decrypt, but far slower
        than compliant peers."""
        options = FreeRiderOptions(large_view=True, whitewash=False,
                                   collude=True)
        result = tchain_run(leechers=40, pieces=10, seed=17,
                            freerider_fraction=0.25,
                            freerider_options=options,
                            max_time=30000.0)
        ledger = result.tchain_state.ledger
        assert ledger.collusion_successes > 0
        compliant = result.mean_completion_time("leecher")
        fr_records = result.metrics.by_kind("freerider")
        finished = [r for r in fr_records if r.completed]
        if finished:
            mean_fr = sum(r.completion_time for r in finished) \
                / len(finished)
            # The multiple grows with scale (the paper reports ~40× at
            # swarm 1000 — a seeder-bound trickle); at unit-test scale
            # the seeder finishes the colluders' tail quickly, so only
            # a modest multiple is guaranteed.
            assert mean_fr > 1.3 * compliant
        else:
            # even with collusion they may not finish in bounded time;
            # they must at least have decrypted something
            assert any(r.pieces_completed > 0 for r in fr_records)

    def test_collusion_does_not_hurt_compliant(self):
        options = FreeRiderOptions(large_view=True, whitewash=False,
                                   collude=True)
        colluding = tchain_run(leechers=40, pieces=10, seed=17,
                               freerider_fraction=0.25,
                               freerider_options=options)
        honest_only = tchain_run(leechers=40, pieces=10, seed=17,
                                 freerider_fraction=0.25)
        assert colluding.mean_completion_time() <= \
            1.5 * honest_only.mean_completion_time()


class TestAdditionalFeatures:
    def test_opportunistic_seeding_creates_leecher_chains(self):
        result = tchain_run(leechers=40, pieces=12)
        assert result.tchain_state.registry.created_by_leechers > 0

    def test_opportunistic_seeding_can_be_disabled(self):
        result = tchain_run(opportunistic_seeding=False)
        assert result.tchain_state.registry.created_by_leechers == 0
        assert result.completion_rate("leecher") == 1.0

    def test_direct_only_ablation_still_works(self):
        result = tchain_run(indirect_reciprocity=False)
        assert result.completion_rate("leecher") == 1.0

    def test_newcomer_bootstrap_disabled_still_completes(self):
        result = tchain_run(newcomer_bootstrap=False)
        assert result.completion_rate("leecher") == 1.0

    def test_flow_control_k_sweeps(self):
        for k in (1, 2, 4):
            result = tchain_run(leechers=15, pieces=8, flow_control_k=k)
            assert result.completion_rate("leecher") == 1.0

    def test_chain_samples_collected(self):
        result = tchain_run()
        samples = result.tchain_state.registry.samples
        assert samples
        times = [t for t, _, _ in samples]
        assert times == sorted(times)

    def test_direct_reciprocity_transactions_exist(self):
        """Mid-swarm, symmetric interests should produce direct
        (payee = donor) transactions."""
        with recording() as created:
            tchain_run(leechers=30, pieces=16)
        assert any(t.direct for t in transactions(created))

    def test_indirect_transactions_exist(self):
        with recording() as created:
            tchain_run(leechers=30, pieces=16)
        assert any((not t.direct) and t.encrypted
                   for t in transactions(created))


class TestBoundedBookkeeping:
    """Per-id bookkeeping must not outlive its use: churn mints ids
    without bound (every departure, every whitewash)."""

    @staticmethod
    def run_keeping_everyone(setup=None, **kwargs):
        """``tchain_run`` and every peer it built: the swarm keeps no
        departed peer, so the run collects them as they leave."""
        departed = []

        def keep(swarm):
            swarm.on_departed = departed.append
            if setup is not None:
                setup(swarm)
        result = tchain_run(setup=keep, **kwargs)
        return result, list(result.swarm.peers.values()) + departed

    def test_unsanitized_crowd_retains_no_forgotten_ids(self):
        """``FlowController.forget`` remembers ids for one reader, the
        sanitizer's underflow classification; without a sanitizer the
        set used to grow by one id per departed neighbour per peer
        (2.46 MB of the traced heap on the 1000-leecher crowd)."""
        result, everyone = self.run_keeping_everyone(leechers=120,
                                                     pieces=4)
        assert result.completion_rate("leecher") == 1.0
        flows = [peer.flow for peer in everyone]
        assert len(flows) == 121
        assert all(not flow._forgotten for flow in flows)

    def test_sanitized_run_still_remembers(self):
        result, everyone = self.run_keeping_everyone(
            leechers=12, pieces=6, sanitize=True)
        first_out = min((peer for peer in everyone if not peer.active),
                        key=lambda peer: peer.leave_time)
        assert any(peer.flow.was_forgotten(first_out.id)
                   for peer in everyone)

    def test_open_index_holds_only_open_transactions(self):
        """``Ledger._open_by_peer`` used to keep one emptied set per id
        ever seen, so every whitewash identity leaked one."""
        with recording() as created:
            result = tchain_run(leechers=24, freerider_fraction=0.25,
                                seed=5)
        ledger = result.tchain_state.ledger
        parties = {party for tx in transactions(created)
                   for party in tx.parties()}
        assert sum(pid.startswith("W") for pid in parties) >= 10
        for peer_id, open_ids in ledger._open_by_peer.items():
            assert open_ids, f"emptied set kept for {peer_id}"
            assert all(ledger.get(i).is_open for i in open_ids)
        indexed = set().union(*ledger._open_by_peer.values())
        assert len(indexed) == ledger.open_transactions

    #: Exchanges the ledger may hold per concurrently active peer.
    IN_FLIGHT_PER_PEER = 10

    def test_ledger_holds_only_in_flight_exchanges(self):
        """The ledger used to keep every transaction, key and sealed
        piece of the run.  It must hold only what is in flight: open
        exchanges plus completed ones whose key release has not landed
        yet — a bound set by the concurrently active peers, not by the
        length of the run."""
        peak = {"live": 0, "peers": 0}

        def setup(swarm):
            def sample(_handle):
                state = getattr(swarm, "_tchain_state", None)
                if state is None:
                    return
                ledger = state.ledger
                live = len(ledger._open) + len(ledger._unsettled)
                active = sum(1 for p in swarm.peers.values() if p.active)
                peak["live"] = max(peak["live"], live)
                peak["peers"] = max(peak["peers"], active)
            swarm.sim.add_observer(sample)

        result, everyone = self.run_keeping_everyone(
            arrival="trace", leechers=80, pieces=12, seed=3,
            freerider_fraction=0.2, trace_horizon_s=8000.0, setup=setup)
        ledger = result.tchain_state.ledger
        bound = self.IN_FLIGHT_PER_PEER * peak["peers"]
        assert result.completion_rate("leecher") == 1.0
        assert peak["live"] < bound
        assert ledger.completed_transactions > 10 * bound
        # Fault-free drain: every key release landed, so nothing is
        # left in flight — and no per-exchange leftovers at the
        # compliant peers.
        assert ledger._open == {} and ledger._unsettled == {}
        assert ledger.open_transactions == 0
        leechers = [peer for peer in everyone if peer.kind == "leecher"]
        assert len(leechers) == 64
        for peer in leechers:
            assert not peer.pending_sealed and not peer._plead_attempts

    def test_run_keeps_no_history(self):
        """Nothing outlives its use: a stall watchdog used to pin the
        exchange it named (aborted or long settled) until it fired,
        and the swarm kept every departed peer, piece log and all."""
        before = {id(obj) for obj in gc.get_objects()
                  if type(obj) is Transaction}
        leechers = []

        def watch(swarm):
            register = swarm.register

            def register_and_watch(peer):
                if peer.kind != "seeder":
                    leechers.append(weakref.ref(peer))
                register(peer)
            swarm.register = register_and_watch
        result = tchain_run(arrival="trace", leechers=80, pieces=12,
                            seed=3, freerider_fraction=0.2,
                            trace_horizon_s=8000.0, setup=watch)
        gc.collect()
        assert len(leechers) == 80
        left = [ref for ref in leechers if ref() is None]
        assert len(left) == 80 - len(result.swarm.leechers()) > 60
        ledger = result.tchain_state.ledger
        assert ledger._aborted == {}
        held = {id(tx) for table in (ledger._open, ledger._unsettled)
                for tx in table.values()}
        stray = [obj for obj in gc.get_objects()
                 if type(obj) is Transaction
                 and id(obj) not in before and id(obj) not in held]
        assert stray == []

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_departed_peer_freed_without_cycle_collector(self, sanitize):
        """A departed peer is garbage as soon as the swarm and its last
        timer let go: no reference cycle (the rescan task's bound
        callback, a sanitized run's flow underflow hook) waits for the
        cyclic collector.  Trace arrivals leave most peers departed
        long before the run ends."""
        departed = []

        def setup(swarm):
            swarm.on_departed = \
                lambda peer: departed.append(weakref.ref(peer))
        gc.collect()
        gc.disable()
        try:
            result = tchain_run(arrival="trace", leechers=40, pieces=8,
                                seed=3, freerider_fraction=0.2,
                                trace_horizon_s=4000.0,
                                sanitize=sanitize, setup=setup)
            alive = [ref().id for ref in departed if ref() is not None]
        finally:
            gc.enable()
        assert len(departed) == 40 - len(result.swarm.leechers()) > 25
        assert alive == []

    def test_no_stall_watchdog_keeps_no_aborted_exchange(self):
        """The ledger keeps an aborted exchange only for an armed
        watchdog; with the watchdog off it never keeps one."""
        kept = []

        def setup(swarm):
            def sample(_handle):
                state = getattr(swarm, "_tchain_state", None)
                if state is not None and state.ledger._aborted:
                    kept.append(swarm.sim.now)
            swarm.sim.add_observer(sample)
        result = tchain_run(leechers=24, pieces=8, seed=5,
                            freerider_fraction=0.25,
                            chain_stall_timeout_s=0.0, setup=setup)
        assert result.tchain_state.ledger.aborted_transactions > 0
        assert kept == []
