"""Chaos regression harness.

:func:`run_chaos` is the one-call answer to "does the exchange still
converge when the network misbehaves?": it builds a
:class:`~repro.faults.plan.FaultPlan` from a few rates, runs a swarm
under the runtime sanitizer (every fair-exchange violation raises),
and reports whether every *surviving* honest leecher finished despite
the injected loss, delays, stalls and crashes.  CI runs it as a smoke
job (``repro chaos``); the acceptance tests pin seeds and assert the
recovery counters are nonzero and reproducible.

A chaos case is an ordinary :class:`~repro.experiments.parallel.RunSpec`
(:func:`chaos_spec`: T-Chain, sanitized, with a fault plan), so
``repro chaos --seeds ...`` sweeps run through ``run_specs`` and the
fabric like any other sweep.  :class:`ChaosResult` reads its verdict
and report off the run's :class:`~repro.experiments.parallel.RunSummary`,
which is all a worker process sends back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.faults.plan import FaultPlan, PeerCrash


@dataclass
class ChaosResult:
    """Outcome of one chaos run.

    ``summary`` is the run's ``RunSummary``; ``result`` is the live
    ``RunResult`` when the run happened in this process (``run_chaos``)
    and ``None`` when it came back from a sweep.
    """

    summary: object  # repro.experiments.parallel.RunSummary
    result: object = None  # repro.experiments.runner.RunResult

    @property
    def injector(self):
        """The live :class:`~repro.faults.injector.FaultInjector`
        (in-process runs only)."""
        return self.result.swarm.fault_injector

    @property
    def counters(self):
        """The run's :class:`repro.analysis.metrics.RecoveryCounters`."""
        return self.summary.metrics.recovery

    @property
    def survivor_records(self) -> List:
        """Compliant-leecher records excluding crash victims."""
        crashed = set(self.summary.crashed_ids)
        return [r for r in self.summary.metrics.by_kind("leecher")
                if r.peer_id not in crashed]

    @property
    def survivors_finished(self) -> int:
        return sum(1 for r in self.survivor_records if r.completed)

    @property
    def all_survivors_finished(self) -> bool:
        """The headline robustness claim: chaos starves nobody honest."""
        records = self.survivor_records
        return bool(records) and all(r.completed for r in records)

    def summary_rows(self) -> List[tuple]:
        """(label, value) rows for the CLI report."""
        summary = self.summary
        counters = self.counters
        survivors = self.survivor_records
        return [
            ("seed", summary.seed),
            ("survivors finished",
             f"{self.survivors_finished}/{len(survivors)}"),
            ("crashes executed / skipped",
             f"{len(summary.crashed_ids)} / {summary.crashes_skipped}"),
            ("control dropped / delayed",
             f"{counters.control_dropped} / {counters.control_delayed}"),
            ("upload stalls", counters.stalls),
            ("report / key retransmits",
             f"{counters.report_retransmits} / "
             f"{counters.key_retransmits}"),
            ("key timeouts / pleads",
             f"{counters.key_timeouts} / {counters.pleads}"),
            ("reopens / forgives / orphaned chains",
             f"{counters.reopens} / {counters.forgives} / "
             f"{counters.orphaned_chains}"),
            ("sanitizer checks", self.sanitizer_checks),
        ]

    @property
    def sanitizer_checks(self) -> int:
        """Invariant checks the sanitizer ran (0 means it was off)."""
        return self.summary.sanitizer_checks

    @property
    def passed(self) -> bool:
        """Survivors all finished and the sanitizer actually watched.

        A :class:`~repro.devtools.sanitizer.SanitizerError` would have
        aborted the run before this property is reachable, so reaching
        it with nonzero checks already implies zero fair-exchange
        violations.
        """
        return self.all_survivors_finished and self.sanitizer_checks > 0


def crash_schedule(count: int, first_s: float = 20.0,
                   spacing_s: float = 25.0) -> List[PeerCrash]:
    """``count`` seeded-victim crashes at fixed, spread-out times."""
    return [PeerCrash(at_s=first_s + i * spacing_s)
            for i in range(count)]


def chaos_spec(leechers: int = 16,
               pieces: int = 10,
               seed: int = 0,
               control_loss_prob: float = 0.10,
               control_delay_prob: float = 0.10,
               control_delay_s: float = 1.0,
               upload_stall_prob: float = 0.02,
               upload_stall_s: float = 5.0,
               crashes: int = 2,
               plan: Optional[FaultPlan] = None,
               max_time: Optional[float] = None,
               **run_kwargs):
    """The ``RunSpec`` of one sanitized T-Chain chaos case.

    Pass ``plan`` to override the rate knobs entirely.  Extra keyword
    arguments are ``run_swarm`` arguments.
    """
    from repro.experiments.parallel import RunSpec

    if plan is None:
        plan = FaultPlan(
            control_loss_prob=control_loss_prob,
            control_delay_prob=control_delay_prob,
            control_delay_s=control_delay_s,
            upload_stall_prob=upload_stall_prob,
            upload_stall_s=upload_stall_s,
            crashes=tuple(crash_schedule(crashes)))
    return RunSpec.from_kwargs(
        protocol="tchain", leechers=leechers, pieces=pieces, seed=seed,
        sanitize=True, fault_plan=plan,
        max_time=max_time, **run_kwargs)


def run_chaos(**kwargs) -> ChaosResult:
    """Run one :func:`chaos_spec` case in this process (same keyword
    arguments), keeping the live result."""
    from repro.experiments.runner import run_spec

    result = run_spec(chaos_spec(**kwargs))
    return ChaosResult(summary=result.summary(), result=result)
