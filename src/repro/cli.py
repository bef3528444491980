"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    One swarm simulation with full knob control; prints a summary and
    optionally persists JSON/CSV results.
``compare``
    The same scenario across several protocols, as a table and an
    ASCII bar chart.
``figure``
    Regenerate one of the paper's figures/tables by name (fig3 ...
    fig13, table2) at a chosen scale.
``models``
    The Section III analytical results (bootstrap dynamics, collusion
    probability, overheads).
``lint``
    Run the ``simlint`` determinism/protocol static analyzer over
    source paths (``--list-rules`` prints the catalogue; see
    docs/DEVTOOLS.md).
``chaos``
    Chaos smoke test: a sanitized T-Chain swarm under seeded fault
    injection (control-message loss/delay, upload stalls, peer
    crashes); exits nonzero unless every surviving honest leecher
    finished (docs/FAULTS.md).  ``--seeds`` sweeps several scenarios,
    optionally across worker processes.
``sweep``
    Fault-tolerant sharded sweep through the execution fabric
    (docs/SWEEPS.md): manifested, checkpointed, resumable.  A killed
    sweep picks up with ``--resume <dir>``; ``--kill-prob`` injects
    seeded worker SIGKILLs to exercise exactly that; ``--verify``
    re-runs the matrix serially and asserts the merged summaries are
    bit-identical.

``compare``, ``figure``, ``chaos`` and ``sweep`` accept
``--workers N`` (or the ``REPRO_WORKERS`` environment knob) to fan
independent runs out over worker processes — ``0`` means one worker
per CPU — and results are bit-identical to serial.  ``compare``,
``figure``, ``chaos`` and ``sweep`` also accept ``--sweep-dir`` (or
``REPRO_SWEEP_DIR``) to persist checkpointed sweep state.

Examples
--------
::

    python -m repro run --protocol tchain --leechers 60 --pieces 32 \
        --freeriders 0.25 --out results/run1
    python -m repro run --net multi_dc --net-loss 0.02 --sanitize
    python -m repro compare --leechers 40 --pieces 16 --freeriders 0.25
    python -m repro figure fig7 --scale 0.5 --seeds 1 --workers 4
    python -m repro models
    python -m repro lint src/ --disable SL002
    python -m repro chaos --seeds 0 1 2 3 --workers 4
    python -m repro sweep --protocols tchain bittorrent --seeds 20 \
        --sweep-dir results/sweep1 --workers 4 --verify
    python -m repro sweep --resume results/sweep1 --workers 4
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.charts import bar_chart
from repro.analysis.persist import save_peers_csv, save_run_json
from repro.analysis.reporting import format_table
from repro.analysis.stats import km_median, summarize
from repro.attacks.freerider import FreeRiderOptions
from repro.bt.protocols import PROTOCOLS
from repro.experiments import (fig3, fig4, fig5, fig6, fig7, fig8, fig9,
                               fig10, fig11, fig12, fig13, table2)
from repro.experiments.config import ExperimentScale
from repro.experiments.parallel import (RunSpec, execute_spec,
                                       resolve_workers, run_figure,
                                       run_specs)
from repro.experiments.runner import (ARRIVALS, compliant_completion_rate,
                                      run_spec)
from repro.net.topogen import GENERATORS

#: ``repro figure`` names -> figure modules (``grid`` / ``reduce`` /
#: ``render``, run by :func:`~repro.experiments.parallel.run_figure`).
FIGURES = {"fig3": fig3, "fig4": fig4, "fig5": fig5, "fig6": fig6,
           "fig7": fig7, "fig8": fig8, "fig9": fig9, "fig10": fig10,
           "fig11": fig11, "fig12": fig12, "fig13": fig13,
           "table2": table2}

#: One help string for every worker-count flag, matching what
#: resolve_workers actually implements (0 = one worker per CPU).
_WORKERS_HELP = ("worker processes (default: REPRO_WORKERS or serial; "
                 "0 = one per CPU)")

#: Shared help for the fabric's persistent-state directory flags.
_SWEEP_DIR_HELP = ("persist checkpointed sweep state under this "
                   "directory via the execution fabric (default: "
                   "REPRO_SWEEP_DIR, else no persistence)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="T-Chain (ICDCS 2015) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one swarm simulation")
    _swarm_args(run_p)
    run_p.add_argument("--out", metavar="PREFIX",
                       help="write PREFIX.json and PREFIX.csv")
    run_p.add_argument("--net", default=None,
                       choices=GENERATORS,
                       help="attach the link-level network substrate "
                            "with this topology (docs/NETWORK.md)")
    run_p.add_argument("--net-nodes", type=int, default=4,
                       help="leaf count for star")
    run_p.add_argument("--net-latency-ms", type=float, default=0.0,
                       help="per-link one-way latency")
    run_p.add_argument("--net-jitter-ms", type=float, default=0.0,
                       help="per-link uniform latency jitter bound")
    run_p.add_argument("--net-loss", type=float, default=0.0,
                       help="per-link control-message loss "
                            "probability [0, 1)")
    run_p.add_argument("--net-bw-kbps", type=float, default=None,
                       help="per-link bandwidth cap (default: "
                            "unconstrained)")
    run_p.add_argument("--sanitize", action="store_true",
                       help="run under the simulation sanitizer "
                            "(fair-exchange + flow-window checks)")

    cmp_p = sub.add_parser("compare",
                           help="run a scenario across protocols")
    _swarm_args(cmp_p, with_protocol=False)
    cmp_p.add_argument("--protocols", nargs="+",
                       default=["bittorrent", "propshare",
                                "fairtorrent", "tchain"],
                       choices=sorted(PROTOCOLS))
    cmp_p.add_argument("--workers", type=int, default=None,
                       help=_WORKERS_HELP)
    cmp_p.add_argument("--sweep-dir", metavar="DIR", default=None,
                       help=_SWEEP_DIR_HELP)

    fig_p = sub.add_parser("figure",
                           help="regenerate a paper figure/table")
    fig_p.add_argument("name", choices=list(FIGURES))
    fig_p.add_argument("--scale", type=float, default=1.0,
                       help="size multiplier (1.0 = bench default)")
    fig_p.add_argument("--seeds", type=int, default=2)
    fig_p.add_argument("--seed", type=int, default=42,
                       help="root seed")
    fig_p.add_argument("--workers", type=int, default=None,
                       help=_WORKERS_HELP)
    fig_p.add_argument("--sweep-dir", metavar="DIR", default=None,
                       help=_SWEEP_DIR_HELP)

    sub.add_parser("models",
                   help="Section III analytical results")

    lint_p = sub.add_parser(
        "lint", help="simlint determinism/protocol static analysis")
    lint_p.add_argument("paths", nargs="*",
                        help="files/directories (default: [tool.simlint] "
                             "paths, else src)")
    lint_p.add_argument("--enable", nargs="+", metavar="RULE",
                        help="run only these rule ids")
    lint_p.add_argument("--disable", nargs="+", metavar="RULE",
                        default=[], help="rule ids to skip")
    lint_p.add_argument("--no-config", action="store_true",
                        help="ignore [tool.simlint] in pyproject.toml")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    lint_p.add_argument("--strict-suppressions", action="store_true",
                        help="treat unused-suppression warnings "
                             "(SL009) as errors")

    chaos_p = sub.add_parser(
        "chaos", help="sanitized swarm run under seeded fault injection")
    chaos_p.add_argument("--leechers", type=int, default=16)
    chaos_p.add_argument("--pieces", type=int, default=10)
    chaos_p.add_argument("--seed", type=int, default=0)
    chaos_p.add_argument("--loss", type=float, default=0.10,
                         help="control-message loss probability")
    chaos_p.add_argument("--delay", type=float, default=0.10,
                         help="control-message delay probability")
    chaos_p.add_argument("--delay-s", type=float, default=1.0,
                         help="extra latency per delayed message (s)")
    chaos_p.add_argument("--stall", type=float, default=0.02,
                         help="upload stall probability")
    chaos_p.add_argument("--stall-s", type=float, default=5.0,
                         help="stall duration (s)")
    chaos_p.add_argument("--crashes", type=int, default=2,
                         help="seeded unclean peer crashes")
    chaos_p.add_argument("--max-time", type=float, default=None)
    chaos_p.add_argument("--seeds", type=int, nargs="+", default=None,
                         help="sweep several seeds (overrides --seed)")
    chaos_p.add_argument("--workers", type=int, default=None,
                         help=_WORKERS_HELP)
    chaos_p.add_argument("--sweep-dir", metavar="DIR", default=None,
                         help=_SWEEP_DIR_HELP)

    sweep_p = sub.add_parser(
        "sweep", help="fault-tolerant sharded sweep: manifested, "
                      "checkpointed, resumable (docs/SWEEPS.md)")
    sweep_p.add_argument("--resume", metavar="DIR", default=None,
                         help="resume a killed sweep from its "
                              "directory (re-runs only shards without "
                              "a valid checkpoint)")
    sweep_p.add_argument("--sweep-dir", metavar="DIR", default=None,
                         help="sweep state directory (default: "
                              "REPRO_SWEEP_DIR, else a throwaway "
                              "temp directory)")
    sweep_p.add_argument("--protocols", nargs="+", default=["tchain"],
                         choices=sorted(PROTOCOLS))
    sweep_p.add_argument("--seeds", type=int, default=8,
                         help="seeds per protocol")
    sweep_p.add_argument("--seed", type=int, default=0,
                         help="first seed of the range")
    sweep_p.add_argument("--leechers", type=int, default=8)
    sweep_p.add_argument("--pieces", type=int, default=4)
    sweep_p.add_argument("--freeriders", type=float, default=0.0,
                         help="free-rider fraction [0, 1]")
    sweep_p.add_argument("--max-time", type=float, default=None)
    sweep_p.add_argument("--shard-size", type=int, default=None,
                         help="specs per shard (default: 16)")
    sweep_p.add_argument("--workers", type=int, default=None,
                         help=_WORKERS_HELP)
    sweep_p.add_argument("--retry-budget", type=int, default=None,
                         help="failures tolerated per shard before "
                              "quarantine (default: 3)")
    sweep_p.add_argument("--shard-timeout", type=float, default=None,
                         help="per-shard wall-clock timeout in "
                              "seconds (default: none)")
    sweep_p.add_argument("--kill-prob", type=float, default=0.0,
                         help="fault injection: seeded SIGKILL "
                              "probability per spec boundary "
                              "(requires --workers >= 2)")
    sweep_p.add_argument("--kill-seed", type=int, default=0,
                         help="root seed of the kill substreams")
    sweep_p.add_argument("--verify", action="store_true",
                         help="re-run the matrix serially and assert "
                              "the merged summaries are bit-identical")

    return parser


def _swarm_args(parser: argparse.ArgumentParser,
                with_protocol: bool = True) -> None:
    if with_protocol:
        parser.add_argument("--protocol", default="tchain",
                            choices=sorted(PROTOCOLS))
    parser.add_argument("--leechers", type=int, default=40)
    parser.add_argument("--pieces", type=int, default=32)
    parser.add_argument("--piece-kb", type=float, default=256.0)
    parser.add_argument("--freeriders", type=float, default=0.0,
                        help="free-rider fraction [0, 1]")
    parser.add_argument("--collude", action="store_true",
                        help="free-riders collude (T-Chain)")
    parser.add_argument("--arrival", default="flash", choices=ARRIVALS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-time", type=float, default=None)


def _options_from(args) -> FreeRiderOptions:
    return fig8.COLLUSION_OPTIONS if args.collude else FreeRiderOptions()


def _specs_from(args, protocols: List[str]) -> List[RunSpec]:
    """One spec per protocol from the shared swarm flags; the --net
    flags (``repro run`` only) become the spec's ``extra`` override."""
    extra = {}
    if getattr(args, "net", None) is not None:
        net = {"topology": args.net}
        if args.net == "star":
            net["nodes"] = args.net_nodes
            net["latency_ms"] = args.net_latency_ms
        if args.net_jitter_ms:
            net["jitter_ms"] = args.net_jitter_ms
        if args.net_loss:
            net["loss"] = args.net_loss
        if args.net_bw_kbps is not None:
            net["bandwidth_kbps"] = args.net_bw_kbps
        extra["extra"] = {"net": net}
    return [RunSpec.from_kwargs(
        protocol=protocol, leechers=args.leechers, pieces=args.pieces,
        piece_size_kb=args.piece_kb, seed=args.seed,
        freerider_fraction=args.freeriders,
        freerider_options=_options_from(args),
        arrival=args.arrival, max_time=args.max_time,
        sanitize=getattr(args, "sanitize", False), **extra)
        for protocol in protocols]


def cmd_run(args) -> int:
    # In process: Kaplan-Meier and --out read the live result.
    spec, = _specs_from(args, [args.protocol])
    result = run_spec(spec)
    metrics = result.metrics
    compliant = metrics.compliant_leechers()
    rows = [
        ("protocol", result.protocol),
        ("leechers / free-riders",
         f"{result.n_compliant} / {result.n_freeriders}"),
        ("file", f"{result.config.file_size_mb:g} MB "
                 f"({result.config.n_pieces} x "
                 f"{result.config.piece_size_kb:g} KB)"),
        ("mean completion (s)",
         metrics.mean_completion_time("leecher")),
        # Unfinished leechers count, censored at the stop time.
        ("median completion, Kaplan-Meier (s)",
         km_median([r.finish_time for r in compliant],
                   result.swarm.sim.now,
                   [r.join_time for r in compliant])),
        ("completion rate", metrics.completion_rate("leecher")),
        ("optimal bound (s)", round(result.optimal_time(), 1)),
        ("mean uplink utilization",
         metrics.mean_utilization("leecher")),
        ("free-riders finished",
         metrics.completion_rate("freerider")),
        ("simulated seconds", round(result.swarm.sim.now, 1)),
        ("events", result.swarm.sim.events_fired),
        ("stopped because", result.stop_reason),
    ]
    print(format_table(["quantity", "value"], rows,
                       title="swarm run summary"))
    if args.out:
        json_path = save_run_json(result, f"{args.out}.json")
        csv_path = save_peers_csv(result, f"{args.out}.csv")
        print(f"\nwrote {json_path} and {csv_path}")
    return 0


def cmd_compare(args) -> int:
    rows = []
    bars = []
    for result in run_specs(_specs_from(args, args.protocols),
                            workers=args.workers,
                            sweep_dir=args.sweep_dir):
        metrics = result.metrics
        mct = metrics.mean_completion_time("leecher")
        rows.append((result.protocol, mct,
                     metrics.completion_rate("leecher"),
                     metrics.mean_utilization("leecher"),
                     metrics.completion_rate("freerider")))
        bars.append((result.protocol, round(mct or 0.0, 1)))
    print(format_table(
        ["protocol", "compliant completion (s)", "completion rate",
         "utilization", "free-riders finished"],
        rows, title="protocol comparison"))
    print()
    print(bar_chart(bars, title="mean compliant completion time (s)",
                    unit=" s"))
    return 0


def cmd_figure(args) -> int:
    module = FIGURES[args.name]
    scale = ExperimentScale(factor=args.scale, seeds=args.seeds,
                            root_seed=args.seed)
    print(module.render(run_figure(module, scale, workers=args.workers,
                                   sweep_dir=args.sweep_dir)))
    return 0


def cmd_models(args) -> int:
    from repro.models import (
        BitTorrentLikeModel,
        OverheadModel,
        TChainModel,
        collusion_success_probability,
        measure_encryption_rate,
    )
    n, x0 = 500, 400.0
    bt = BitTorrentLikeModel(n=n).trajectory(x0, 20)
    tc = TChainModel(n=n).trajectory(x0, 20)
    print(format_table(
        ["timeslot", "BitTorrent-like x", "T-Chain x+y"],
        [(t, round(bt[t].unbootstrapped, 1),
          round(tc[t].unbootstrapped, 1))
         for t in range(0, 21, 2)],
        title="Sec. III-B bootstrapping dynamics (n=500)"))
    print()
    print(format_table(
        ["colluders m", "P_s"],
        [(m, f"{collusion_success_probability(1000, m, 50):.3g}")
         for m in (2, 10, 50, 100, 250)],
        title="Sec. III-A4 collusion probability (N=1000)"))
    print()
    rate = measure_encryption_rate(piece_kb=64, repetitions=2)
    model = OverheadModel(cipher_rate_kb_per_s=rate)
    print(format_table(
        ["overhead", "value"],
        [("encryption (this machine)",
          f"{model.encryption_overhead:.2%}"),
         ("space", f"{model.space_overhead:.3%}"),
         ("reports+keys", f"{model.report_overhead():.3%}")],
        title="Sec. III-C overheads"))
    return 0


def cmd_lint(args) -> int:
    from repro.devtools import (RULES, SimlintConfig, format_findings,
                                lint_paths, load_config)
    from repro.devtools import output as lint_output
    if args.list_rules:
        rows = [(rule.id, rule.name, rule.description)
                for rule in (RULES[rid] for rid in sorted(RULES))]
        print(format_table(["id", "name", "checks for"], rows,
                           title="simlint rules"))
        return 0
    config = SimlintConfig() if args.no_config else load_config()
    if args.enable:
        config.enable = list(args.enable)
    if args.disable:
        config.disable = list(config.disable) + list(args.disable)
    # A typo'd rule id or path must not turn the CI gate green.
    unknown = [r for r in {*config.enable, *config.disable}
               if r.upper() not in RULES]
    if unknown:
        print(f"error: unknown rule id(s): {', '.join(sorted(unknown))} "
              f"(see `repro lint --list-rules`)", file=sys.stderr)
        return 2
    paths = args.paths or config.paths
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2
    findings = lint_paths(paths, enabled=config.enabled_rules(),
                          exclude=config.exclude)
    print(format_findings(findings))
    if lint_output.in_github_actions():
        for line in lint_output.github_annotations(findings):
            print(line)
    errors = sum(1 for f in findings
                 if lint_output.severity_of(f) == "error")
    if errors:
        return 1
    if findings and args.strict_suppressions:
        return 1
    return 0


def cmd_chaos(args) -> int:
    from repro.faults.harness import ChaosResult, chaos_spec
    seeds = args.seeds if args.seeds else [args.seed]
    specs = [chaos_spec(
        leechers=args.leechers, pieces=args.pieces, seed=seed,
        control_loss_prob=args.loss, control_delay_prob=args.delay,
        control_delay_s=args.delay_s, upload_stall_prob=args.stall,
        upload_stall_s=args.stall_s, crashes=args.crashes,
        max_time=args.max_time) for seed in seeds]
    results = [ChaosResult(summary) for summary in run_specs(
        specs, workers=args.workers, sweep_dir=args.sweep_dir)]
    for chaos in results:
        title = "chaos smoke run"
        if len(results) > 1:
            title += f" (seed {chaos.summary.seed})"
        print(format_table(["quantity", "value"], chaos.summary_rows(),
                           title=title))
        verdict = "PASS" if chaos.passed else "FAIL"
        print(f"\n{verdict}: "
              f"{chaos.survivors_finished}/{len(chaos.survivor_records)} "
              f"surviving honest leechers finished under "
              f"loss={args.loss:g} delay={args.delay:g} "
              f"crashes={len(chaos.summary.crashed_ids)}; "
              f"{chaos.sanitizer_checks} sanitizer checks, "
              f"0 violations")
        if chaos is not results[-1]:
            print()
    return 0 if all(chaos.passed for chaos in results) else 1


def cmd_sweep(args) -> int:
    from repro.experiments.fabric import (DEFAULT_RETRY_BUDGET,
                                          DEFAULT_SHARD_SIZE,
                                          ManifestError, SweepIncomplete,
                                          load_manifest, resume_sweep,
                                          run_specs_fabric)
    retry_budget = (args.retry_budget if args.retry_budget is not None
                    else DEFAULT_RETRY_BUDGET)
    if args.resume:
        if args.kill_prob > 0:
            print("error: --kill-prob is a fresh-sweep fault "
                  "injection; a resume must run clean", file=sys.stderr)
            return 2
        try:
            specs = load_manifest(args.resume).specs
        except ManifestError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            summaries = resume_sweep(
                args.resume, workers=args.workers,
                retry_budget=retry_budget,
                shard_timeout_s=args.shard_timeout)
        except SweepIncomplete as exc:
            print(f"sweep incomplete: {exc}", file=sys.stderr)
            return 1
    else:
        specs = [RunSpec(
            protocol=protocol, seed=args.seed + i,
            leechers=args.leechers, pieces=args.pieces,
            freerider_fraction=args.freeriders,
            max_time=args.max_time)
            for protocol in args.protocols
            for i in range(args.seeds)]
        kill = None
        if args.kill_prob > 0:
            from repro.faults import WorkerKill
            if not args.sweep_dir:
                print("error: --kill-prob needs --sweep-dir (a "
                      "killed sweep in a temp directory leaves "
                      "nothing to resume)", file=sys.stderr)
                return 2
            if resolve_workers(args.workers) < 2:
                print("error: --kill-prob needs --workers >= 2 (a "
                      "serial sweep runs its shards in this process, "
                      "so a kill would end the sweep)", file=sys.stderr)
                return 2
            kill = WorkerKill(prob=args.kill_prob, seed=args.kill_seed)
        try:
            summaries = run_specs_fabric(
                specs, workers=args.workers, sweep_dir=args.sweep_dir,
                shard_size=(args.shard_size if args.shard_size
                            is not None else DEFAULT_SHARD_SIZE),
                retry_budget=retry_budget,
                shard_timeout_s=args.shard_timeout, worker_kill=kill)
        except SweepIncomplete as exc:
            print(f"sweep incomplete: {exc}", file=sys.stderr)
            return 1

    by_protocol = {}
    for summary in summaries:
        by_protocol.setdefault(summary.protocol, []).append(summary)
    rows = []
    for protocol, group in by_protocol.items():
        # A run where no compliant leecher finished has no mean; it is
        # left out of the mean and counted in the last column.
        mct = summarize([s.mean_completion_time("leecher")
                         for s in group])
        rows.append((protocol, len(group),
                     round(mct.mean, 1) if mct else None,
                     compliant_completion_rate(group),
                     mct.n_missing if mct else len(group)))
    print(format_table(
        ["protocol", "runs", "mean completion (s)", "completion rate",
         "runs with no finisher"], rows,
        title=f"sweep: {len(summaries)} runs"))

    if args.verify:
        # Straight through execute_spec: a REPRO_SWEEP_DIR in the
        # environment must not turn the reference into a resume.
        serial = [execute_spec(spec) for spec in specs]
        identical = serial == summaries
        print(f"\nverify: merged summaries "
              f"{'bit-identical to' if identical else 'DIFFER from'} "
              f"a serial in-process run of {len(specs)} spec(s)")
        if not identical:
            return 1
    return 0


COMMANDS = {
    "run": cmd_run,
    "compare": cmd_compare,
    "figure": cmd_figure,
    "models": cmd_models,
    "lint": cmd_lint,
    "chaos": cmd_chaos,
    "sweep": cmd_sweep,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
