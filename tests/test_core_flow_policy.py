"""Unit and property tests for flow control, payee policy, bootstrap."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bootstrap import (
    is_newcomer,
    payees_compatible_with_bootstrap,
    select_bootstrap_piece,
)
from repro.core.flow_control import DEFAULT_PENDING_LIMIT, FlowController
from repro.core.policy import (
    ReciprocityKind,
    select_payee,
    select_requestor,
    should_opportunistically_seed,
)


@pytest.fixture(autouse=True)
def window_checked_after_every_op(monkeypatch):
    """Every test here runs with ``blocked == {n : pending(n) >=
    limit}`` asserted after each op that can move a count (``write_off``
    goes through ``on_reciprocation_confirmed``)."""
    for name in ("on_piece_sent", "on_reciprocation_confirmed", "forget"):
        def checked(self, neighbor_id,
                    _original=getattr(FlowController, name)):
            _original(self, neighbor_id)
            self.check_consistency()
            assert all(not self.eligible(n) for n in self.blocked)

        monkeypatch.setattr(FlowController, name, checked)


class TestFlowController:
    def test_paper_default_k_is_two(self):
        assert DEFAULT_PENDING_LIMIT == 2
        assert FlowController().pending_limit == 2

    def test_pending_counts(self):
        flow = FlowController()
        flow.on_piece_sent("B")
        flow.on_piece_sent("B")
        assert flow.pending("B") == 2
        flow.on_reciprocation_confirmed("B")
        assert flow.pending("B") == 1

    def test_eligibility_window(self):
        flow = FlowController(pending_limit=2)
        assert flow.eligible("B")
        flow.on_piece_sent("B")
        assert flow.eligible("B")
        flow.on_piece_sent("B")
        assert not flow.eligible("B")
        flow.on_reciprocation_confirmed("B")
        assert flow.eligible("B")

    def test_confirm_below_zero_is_clamped(self):
        flow = FlowController()
        flow.on_reciprocation_confirmed("B")
        assert flow.pending("B") == 0

    def test_forget_drops_state(self):
        flow = FlowController()
        flow.on_piece_sent("B")
        flow.forget("B")
        assert flow.pending("B") == 0
        assert flow.total_pending == 0

    def test_filter_eligible(self):
        flow = FlowController(pending_limit=1)
        flow.on_piece_sent("B")
        assert flow.filter_eligible(["A", "B", "C"]) == ["A", "C"]

    def test_least_loaded(self):
        flow = FlowController(pending_limit=5)
        flow.on_piece_sent("A")
        flow.on_piece_sent("A")
        flow.on_piece_sent("B")
        assert flow.least_loaded(["A", "B", "C"]) == ["C"]
        assert flow.least_loaded(["A", "B"]) == ["B"]
        assert flow.least_loaded([]) == []

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            FlowController(pending_limit=0)

    @given(st.lists(st.sampled_from(["sent", "confirmed"]), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_pending_never_negative(self, ops):
        flow = FlowController()
        for op in ops:
            if op == "sent":
                flow.on_piece_sent("B")
            else:
                flow.on_reciprocation_confirmed("B")
        assert flow.pending("B") >= 0
        assert flow.total_pending >= 0


class TestSelectPayee:
    def setup_method(self):
        self.rng = Random(7)
        self.flow = FlowController()

    def test_direct_reciprocity_preferred(self):
        decision = select_payee("B", "C", True, ["D", "E"], self.flow,
                                self.rng)
        assert decision.kind is ReciprocityKind.DIRECT
        assert decision.payee_id == "B"
        assert not decision.terminates_chain

    def test_indirect_choice_among_candidates(self):
        decision = select_payee("B", "C", False, ["D", "E"], self.flow,
                                self.rng)
        assert decision.kind is ReciprocityKind.INDIRECT
        assert decision.payee_id in {"D", "E"}

    def test_donor_and_requestor_excluded(self):
        decision = select_payee("B", "C", False, ["B", "C"], self.flow,
                                self.rng)
        assert decision.terminates_chain

    def test_termination_when_no_candidates(self):
        decision = select_payee("B", "C", False, [], self.flow, self.rng)
        assert decision.kind is ReciprocityKind.TERMINATE
        assert decision.payee_id is None

    def test_flow_control_filters_candidates(self):
        self.flow.on_piece_sent("D")
        self.flow.on_piece_sent("D")
        decision = select_payee("B", "C", False, ["D"], self.flow, self.rng)
        assert decision.terminates_chain

    def test_least_loaded_rule(self):
        flow = FlowController(pending_limit=5)
        flow.on_piece_sent("D")
        decision = select_payee("B", "C", False, ["D", "E"], flow,
                                self.rng, least_loaded=True)
        assert decision.payee_id == "E"

    def test_uniform_choice_covers_all_candidates(self):
        seen = set()
        for seed in range(50):
            decision = select_payee("B", "C", False, ["D", "E", "F"],
                                    FlowController(), Random(seed))
            seen.add(decision.payee_id)
        assert seen == {"D", "E", "F"}


class TestSelectRequestor:
    def test_picks_eligible(self):
        flow = FlowController(pending_limit=1)
        flow.on_piece_sent("A")
        choice = select_requestor(["A", "B"], flow, Random(1))
        assert choice == "B"

    def test_none_when_everyone_blocked(self):
        flow = FlowController(pending_limit=1)
        flow.on_piece_sent("A")
        assert select_requestor(["A"], flow, Random(1)) is None

    def test_none_on_empty(self):
        assert select_requestor([], FlowController(), Random(1)) is None


class TestOpportunisticSeedingTrigger:
    def test_needs_a_completed_piece(self):
        assert not should_opportunistically_seed(0, 0)

    def test_needs_no_outstanding_uploads(self):
        assert not should_opportunistically_seed(3, 1)

    def test_fires_when_idle_with_pieces(self):
        assert should_opportunistically_seed(1, 0)


class TestBootstrap:
    def test_is_newcomer(self):
        assert is_newcomer(0)
        assert not is_newcomer(1)

    def test_bootstrap_piece_in_triple_intersection(self):
        rng = Random(3)
        piece = select_bootstrap_piece(
            donor_pieces={1, 2, 3}, requestor_missing={2, 3, 4},
            payee_missing={3, 4, 5}, rng=rng)
        assert piece == 3

    def test_bootstrap_piece_none_when_infeasible(self):
        rng = Random(3)
        assert select_bootstrap_piece({1}, {2}, {3}, rng) is None

    def test_bootstrap_piece_uniform_over_feasible(self):
        seen = set()
        for seed in range(40):
            seen.add(select_bootstrap_piece(
                {1, 2, 3}, {1, 2, 3}, {1, 2, 3}, Random(seed)))
        assert seen == {1, 2, 3}

    def test_payees_compatible_with_bootstrap(self):
        result = payees_compatible_with_bootstrap(
            donor_pieces={1, 2}, requestor_missing={1, 2, 3},
            candidate_payees=["C", "D"],
            missing_by_peer={"C": {1}, "D": {9}})
        assert result == ["C"]

    def test_payees_compatible_empty_when_donor_useless(self):
        result = payees_compatible_with_bootstrap(
            donor_pieces={5}, requestor_missing={1},
            candidate_payees=["C"], missing_by_peer={"C": {5}})
        assert result == []


class TestWindowUnderflow:
    """Regression tests: a duplicate confirm/write-off must floor at
    zero, report the underflow, and never fake an eligibility flip."""

    def test_underflow_floors_and_reports(self):
        flow = FlowController()
        under = []
        flow.on_underflow = under.append
        flow.on_reciprocation_confirmed("B")
        assert flow.pending("B") == 0
        assert flow.underflows == 1
        assert under == ["B"]
        assert flow.blocked == set()

    def test_duplicate_write_off_does_not_reopen_early(self):
        flow = FlowController(pending_limit=2)
        flow.on_piece_sent("B")
        flow.on_piece_sent("B")           # blocked
        assert flow.blocked == {"B"}
        flow.write_off("B")               # true unblock
        assert flow.blocked == set()
        flow.write_off("B")               # drains the last exchange
        flow.write_off("B")               # duplicate: underflow
        assert flow.blocked == set()
        assert flow.pending("B") == 0
        assert flow.underflows == 1
        # The next upload counts the true backlog from zero.
        flow.on_piece_sent("B")
        assert flow.pending("B") == 1
        assert flow.eligible("B")

    def test_window_moves_only_on_true_flips(self):
        flow = FlowController(pending_limit=2)
        window = []

        def op(method):
            method("B")
            window.append("B" in flow.blocked)

        op(flow.on_piece_sent)               # 1: still eligible
        op(flow.on_piece_sent)               # 2: flips to blocked
        op(flow.on_piece_sent)               # 3: already blocked
        op(flow.on_reciprocation_confirmed)  # 2: still blocked
        op(flow.on_reciprocation_confirmed)  # 1: flips to eligible
        op(flow.on_reciprocation_confirmed)  # 0: still eligible
        assert window == [False, True, True, True, False, False]

    def test_forget_is_remembered_for_stragglers(self):
        flow = FlowController()
        assert not flow.was_forgotten("B")
        flow.on_piece_sent("B")
        flow.forget("B")
        assert flow.was_forgotten("B")
        # A straggling confirm after forget underflows benignly.
        flow.on_reciprocation_confirmed("B")
        assert flow.underflows == 1

    def test_forgotten_ids_are_not_kept_without_a_reader(self):
        """An owner that never asks ``was_forgotten`` (a T-Chain node
        in an unsanitized run) opts out; the window itself and the
        underflow report behave as before."""
        flow = FlowController(pending_limit=1, remember_forgotten=False)
        under = []
        flow.on_underflow = under.append
        flow.on_piece_sent("B")
        assert flow.blocked == {"B"}
        flow.forget("B")
        assert flow.blocked == set() and flow.eligible("B")
        assert flow._forgotten is None and not flow.was_forgotten("B")
        flow.on_reciprocation_confirmed("B")
        assert flow.underflows == 1 and under == ["B"]
