"""One repeat of one workload, in a fresh interpreter.

Spawned by ``run.py`` (never imported by it).  A repeat imports
``repro``, builds the workload's inputs from the seed, runs one
reduced-size warm-up and then either

* times exactly one run of the workload's public call(s) with no
  profiler, tracemalloc or observers attached (``--mode timed``), or
* runs the same call(s) under ``cProfile`` and bills the trace to the
  simulator's layers (``--mode traced``).

It prints two JSON lines: ``{"ready": <clock>}`` when set-up is done —
the harness stamps that line on its own clock to get ``setup_s`` — and
the repeat's report.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import os
import pickle
import resource
import shutil
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

import layers
import workloads
from measure import ratio, ref_kernel, wall_clock


class Spans:
    """Harness-level spans, kept in memory until the repeat ends."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, Any]] = []
        self._open: List[Dict[str, Any]] = []

    def record_span(self, name: str, start: float, end: Optional[float]
            ) -> Dict[str, Any]:
        """Record a span under the innermost open one."""
        row = {"id": len(self.rows) + 1,
               "parent": self._open[-1]["id"] if self._open else None,
               "name": name, "start": start, "end": end}
        self.rows.append(row)
        return row

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        row = self.record_span(name, wall_clock(), None)
        self._open.append(row)
        try:
            yield row
        finally:
            self._open.pop()
            row["end"] = wall_clock()

    def innermost(self) -> Optional[Dict[str, Any]]:
        return self._open[-1] if self._open else None

    def total(self, name: str) -> Optional[float]:
        """Summed duration of the closed spans called ``name``."""
        found = [r["end"] - r["start"] for r in self.rows
                 if r["name"] == name and r["end"] is not None]
        return sum(found) if found else None


def _duration(row: Dict[str, Any]) -> float:
    return row["end"] - row["start"]


def cpu_seconds() -> float:
    """User + system CPU seconds of this process and reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_kb() -> int:
    """``ru_maxrss`` of this process plus its largest reaped child."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


# ----------------------------------------------------------------------
# Timed repeat
# ----------------------------------------------------------------------
def timed_repeat(workload: workloads.Workload, specs: Sequence[Any],
                 sweep_dir: Optional[str], spans: Spans) -> Dict[str, Any]:
    """Time one run of the public call(s); nothing else is attached."""
    problems = []
    if tracemalloc.is_tracing():
        problems.append("tracemalloc is tracing during a timed run")
    if sys.getprofile() is not None or sys.gettrace() is not None:
        problems.append("a profile/trace hook is set during a timed run")
    kernel_before = ref_kernel()
    gc.collect()
    cpu_before = cpu_seconds()
    with spans.span("public_call") as call:
        results = workloads.execute(workload, specs, sweep_dir)
    cpu_s = cpu_seconds() - cpu_before
    kernel_after = ref_kernel()
    wall_s = _duration(call)
    summaries = workloads.to_summaries(results, wall_s)
    problems += workloads.check_outputs(workload, summaries, results)
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "kernel_s": [kernel_before, kernel_after],
        "facts": workloads.facts(summaries, workloads.net_counters(results)),
        "problems": problems,
    }


# ----------------------------------------------------------------------
# Traced repeat
# ----------------------------------------------------------------------
@contextmanager
def swarm_spans(spans: Spans) -> Iterator[None]:
    """Wrap ``Swarm.run`` and ``SwarmMetrics.finalize_active`` so each
    public call gets pre-run / Swarm.run / finalize child spans.  The
    hook lives here, not in the simulator; a target that no longer
    exists is skipped and its metric reads ``None``."""
    undo = []

    def wrap(module: str, owner: str, method: str, name: str) -> None:
        try:
            cls = getattr(importlib.import_module(module), owner)
            original = getattr(cls, method)
        except (ImportError, AttributeError):
            return

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = spans.innermost()
            if name == "Swarm.run" and parent is not None:
                spans.record_span("pre-run", parent["start"], wall_clock())
            with spans.span(name):
                return original(*args, **kwargs)

        setattr(cls, method, wrapper)
        undo.append((cls, method, original))

    wrap("repro.bt.swarm", "Swarm", "run", "Swarm.run")
    wrap("repro.analysis.metrics", "SwarmMetrics", "finalize_active",
         "finalize")
    try:
        yield
    finally:
        for cls, method, original in undo:
            setattr(cls, method, original)


def _calls(entry: Optional[Dict[str, float]]) -> Optional[float]:
    return None if entry is None else entry["calls"]


def _sum_known(values: Sequence[Optional[float]]) -> Optional[float]:
    known = [v for v in values if v is not None]
    return sum(known) if known else None


def layer_metrics(frames: Dict[Any, layers.Frame], spans: Spans,
                  facts: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one traced pass (``None`` = not measurable:
    the entry point is gone or the base of a ratio is zero)."""
    bill = layers.attribute(frames)
    entries = layers.entry_stats(frames)
    traced_self = sum(row["self_s"] for row in bill.values())
    pycalls = sum(row["calls"] for row in bill.values())
    events = facts["events"]
    out: Dict[str, Optional[float]] = {"harness.traced_self_s": traced_self}
    for layer, row in bill.items():
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.share"] = ratio(row["self_s"], traced_self)
        out[f"{layer}.calls"] = row["calls"]

    scheduled = _sum_known([_calls(entries[k]) for k in
                            ("schedule", "schedule_at", "call_now")])
    cancelled = _calls(entries["cancel"])
    created = _calls(entries["create_transaction"])
    released = _calls(entries["release_key"])
    attempts = _calls(entries["transfer_start"])
    recovery = facts["recovery"]
    net = facts["net"]
    out.update({
        "sim.events": events,
        "sim.scheduled": scheduled,
        "sim.cancelled": cancelled,
        "sim.cancel_ratio": ratio(cancelled, scheduled),
        "sim.compactions": _calls(entries["compact"]),
        "sim.pycalls_per_event": ratio(pycalls, events),
        "bt.swarm.prerun_s": spans.total("pre-run"),
        "bt.swarm.finalize_s": spans.total("finalize"),
        "bt.swarm.connect_calls": _calls(entries["connect"]),
        "bt.swarm.connect_cum_s": (entries["connect"] or {}).get("cum_s"),
        "bt.interest.add_peer_cum_s":
            (entries["interest_add_peer"] or {}).get("cum_s"),
        "bt.protocols.cooperative_per_event":
            ratio(_calls(entries["cooperative"]), events),
        "bt.protocols.eligible_per_event":
            ratio(_calls(entries["eligible"]), events),
        "bt.protocols.payee_scans": _calls(entries["payee_scan"]),
        "core.transactions": created,
        "core.exchanges_completed": released,
        "core.useful_ratio": ratio(released, created),
        "core.retransmits": (recovery.get("report_retransmits", 0)
                             + recovery.get("key_retransmits", 0)),
        "core.key_timeouts": recovery.get("key_timeouts", 0),
        "core.orphaned_chains": recovery.get("orphaned_chains", 0),
        "core.dead_letters": recovery.get("dead_letters", 0),
        "net.bandwidth.transfers": attempts,
        "net.bandwidth.aborted": _calls(entries["transfer_abort"]),
        "net.bandwidth.useful_ratio":
            ratio(_calls(entries["transfer_complete"]), attempts),
        "net.bandwidth.utilization": facts["utilization"],
        "net.link.control_sent": net.get("control_sent", 0),
        "net.link.control_dropped": net.get("control_dropped", 0),
        "net.link.transfers_priced": net.get("transfers_priced", 0),
        "net.link.drop_ratio": ratio(net.get("control_dropped", 0),
                                     net.get("control_sent", 0)),
        "analysis.mean_completion_s": facts["mean_completion_s"],
        "analysis.sim_time_s": facts["sim_time_s"],
        "analysis.unfinished": facts["unfinished"],
    })
    return out


def traced_repeat(workload: workloads.Workload, specs: Sequence[Any],
                  spans: Spans) -> Dict[str, Any]:
    """Run the in-process public call(s) under cProfile.

    A fabric workload is traced through serial ``execute_spec`` over
    every ``trace_stride``-th spec: worker processes cannot be traced
    from here, and the sample shows where a small run's time goes.
    """
    sample = list(specs[::workload.trace_stride])
    profile = cProfile.Profile()
    results = []
    kernel_before = ref_kernel()
    gc.collect()
    with swarm_spans(spans), spans.span("traced_pass") as traced:
        profile.enable()
        try:
            for spec in sample:
                with spans.span("public_call"):
                    results.append(workloads.run_one(workload, spec))
        finally:
            profile.disable()
    kernel_after = ref_kernel()
    wall_s = _duration(traced)
    summaries = workloads.to_summaries(results, wall_s)
    facts = workloads.facts(summaries, workloads.net_counters(results))
    return {
        "traced_wall_s": wall_s,
        "kernel_s": [kernel_before, kernel_after],
        "facts": facts,
        "layer": layer_metrics(layers.snapshot(profile), spans, facts),
        "problems": workloads.check_outputs(workload, summaries, results),
    }


def _timed(spans: Spans, name: str, fn: Any, *args: Any, **kwargs: Any):
    with spans.span(name) as row:
        value = fn(*args, **kwargs)
    return value, _duration(row)


def _dir_kb(path: str) -> float:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(path)
               for name in names) / 1024.0


def sweep_legs(workload: workloads.Workload, specs: Sequence[Any],
               sweep_dir: str, workdir: str, spans: Spans
               ) -> Dict[str, Any]:
    """The fabric's bill, by timing the public sweep calls untraced:
    fabric, no-op resume, plain ``run_specs`` on the same workers,
    serial ``run_specs``, and manifest build + write."""
    from repro.experiments import run_specs
    from repro.experiments.fabric import (build_manifest, resume_sweep,
                                          write_manifest)
    workers = workloads.sweep_workers()
    gc.collect()
    fabric, fabric_s = _timed(spans, "run_specs_fabric",
                              workloads.execute, workload, specs, sweep_dir)
    resumed, resume_s = _timed(spans, "resume_sweep", resume_sweep,
                               sweep_dir, workers=workers)
    plain, plain_s = _timed(spans, "run_specs", run_specs, specs,
                            workers=workers)
    serial, serial_s = _timed(spans, "run_specs_serial", run_specs, specs,
                              workers=1)
    scratch = tempfile.mkdtemp(prefix="manifest-", dir=workdir)
    try:
        with spans.span("manifest") as row:
            manifest = build_manifest(list(specs))
            write_manifest(manifest, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    stride = workload.trace_stride
    problems = []
    if not fabric == resumed == plain == serial:
        problems.append("fabric, resumed, plain and serial sweep results "
                        "are not equal")
    return {
        "problems": problems,
        # Untraced wall of the specs the traced pass covers.
        "trace_base_s": sum(s.wall_time_s for s in serial[::stride]),
        "layer": {
            "experiments.fabric_overhead": ratio(fabric_s, plain_s),
            "experiments.parallel_speedup": ratio(serial_s, plain_s),
            "experiments.manifest_share": ratio(_duration(row), fabric_s),
            "experiments.resume_noop_share": ratio(resume_s, fabric_s),
            "experiments.summary_pickle_kb":
                len(pickle.dumps(fabric)) / 1024.0,
            "experiments.sweep_dir_kb": _dir_kb(sweep_dir),
            "experiments.shards": len(manifest.shards),
            "experiments.fabric_wall_s": fabric_s,
            "experiments.plain_wall_s": plain_s,
            "experiments.serial_wall_s": serial_s,
            "experiments.manifest_s": _duration(row),
            "experiments.resume_noop_s": resume_s,
        },
    }


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"),
                        required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    spans = Spans()

    with spans.span("setup"):
        with spans.span("import") as imported:
            import repro.experiments  # noqa: F401
            import repro.experiments.fabric  # noqa: F401
        rss_import_kb = peak_rss_kb()
        with spans.span("inputs"):
            specs = workloads.build_specs(workload, args.seed, args.quick)
        with spans.span("warm_up"):
            workloads.warm_up(workload, specs, args.workdir)
        sweep_dir = workloads.fresh_sweep_dir(workload, args.workdir)
    print(json.dumps({"ready": wall_clock()}), flush=True)

    try:
        if args.mode == "timed":
            report = timed_repeat(workload, specs, sweep_dir, spans)
        else:
            report = traced_repeat(workload, specs, spans)
            if sweep_dir is not None:
                legs = sweep_legs(workload, specs, sweep_dir, args.workdir,
                                  spans)
                report["problems"] += legs.pop("problems")
                report["layer"].update(legs.pop("layer"))
                report.update(legs)
    finally:
        if sweep_dir is not None:
            shutil.rmtree(sweep_dir, ignore_errors=True)
    report.update({
        "workload": workload.name,
        "seed": args.seed,
        "mode": args.mode,
        "import_s": _duration(imported),
        "rss_import_kb": rss_import_kb,
        "peak_rss_kb": peak_rss_kb(),
        "spans": spans.rows,
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
