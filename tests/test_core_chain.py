"""Unit tests for chains and the chain registry."""

import pytest

from repro.core.chain import Chain, ChainPhase, ChainRegistry
from repro.core.transaction import Transaction


def make_tx(tx_id=0, chain_id=0):
    return Transaction(
        transaction_id=tx_id, chain_id=chain_id, index_in_chain=0,
        donor_id="A", requestor_id="B", payee_id="C", piece_index=0)


class TestChain:
    def test_phases(self):
        chain = Chain(chain_id=0, initiator_id="S", seeded_by_seeder=True,
                      created_at=0.0)
        assert chain.phase is ChainPhase.INITIATION
        chain.append(make_tx(0))
        assert chain.phase is ChainPhase.INITIATION
        chain.append(make_tx(1))
        assert chain.phase is ChainPhase.CONTINUATION
        chain.terminate(now=10.0)
        assert chain.phase is ChainPhase.TERMINATED

    def test_append_sets_index(self):
        chain = Chain(0, "S", True, 0.0)
        t0, t1 = make_tx(0), make_tx(1)
        chain.append(t0)
        chain.append(t1)
        assert (t0.index_in_chain, t1.index_in_chain) == (0, 1)
        assert chain.length == 2

    def test_append_after_terminate_rejected(self):
        chain = Chain(0, "S", True, 0.0)
        chain.terminate(1.0)
        with pytest.raises(RuntimeError):
            chain.append(make_tx())

    def test_terminate_idempotent(self):
        chain = Chain(0, "S", True, 0.0)
        chain.terminate(1.0)
        chain.terminate(2.0)
        assert chain.terminated_at == 1.0


class TestChainRegistry:
    def test_create_assigns_sequential_ids(self):
        reg = ChainRegistry()
        ids = [reg.create("S", True, 0.0).chain_id for _ in range(3)]
        assert ids == [0, 1, 2]

    def test_active_count_tracks_terminations(self):
        reg = ChainRegistry()
        c0 = reg.create("S", True, 0.0)
        reg.create("L1", False, 1.0)
        assert reg.active_count == 2
        reg.terminate(c0.chain_id, 5.0)
        assert reg.active_count == 1
        assert reg.total_count == 2

    def test_terminate_idempotent_in_registry(self):
        reg = ChainRegistry()
        c0 = reg.create("S", True, 0.0)
        reg.terminate(c0.chain_id, 5.0)
        reg.terminate(c0.chain_id, 6.0)
        assert reg.active_count == 0

    def test_initiator_type_counters(self):
        reg = ChainRegistry()
        reg.create("S", True, 0.0)
        reg.create("L1", False, 0.0)
        reg.create("L2", False, 0.0)
        assert reg.created_by_seeder == 1
        assert reg.created_by_leechers == 2
        assert reg.opportunistic_fraction == pytest.approx(2 / 3)

    def test_opportunistic_fraction_empty(self):
        assert ChainRegistry().opportunistic_fraction == 0.0

    def test_sampling(self):
        reg = ChainRegistry()
        reg.sample(0.0)
        reg.create("S", True, 0.5)
        reg.sample(1.0)
        assert reg.samples == [(0.0, 0, 0), (1.0, 1, 1)]

    def test_chain_lengths(self):
        reg = ChainRegistry()
        c = reg.create("S", True, 0.0)
        c.append(make_tx(0))
        c.append(make_tx(1))
        reg.create("S", True, 0.0)
        assert sorted(reg.chain_lengths()) == [0, 2]

    def test_all_chains_in_creation_order(self):
        reg = ChainRegistry()
        created = [reg.create("S", True, float(i)) for i in range(4)]
        assert reg.all_chains() == created

    def test_ended_chain_keeps_only_its_slots(self):
        reg = ChainRegistry()
        c = reg.create("L1", False, 2.0)
        c.append(make_tx(0))
        reg.create("S", True, 3.0)
        reg.terminate(c.chain_id, 9.0)
        assert not reg.is_active(c.chain_id)
        assert c.chain_id not in reg._live
        ended = reg.get(c.chain_id)
        assert (ended.initiator_id, ended.seeded_by_seeder,
                ended.created_at, ended.terminated_at, ended.length) \
            == ("L1", False, 2.0, 9.0, 1)
        assert [ch.chain_id for ch in reg.all_chains()] == [0, 1]
        assert reg.chain_lengths() == [1, 0]
        assert reg.lifetimes() == [7.0]
        revived = reg.revive(c.chain_id)
        assert revived.active and revived.length == 1
        assert reg.revive(c.chain_id) is revived
        assert (reg.active_count, reg.total_count) == (2, 2)
