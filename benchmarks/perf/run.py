"""The repo's benchmark: five workloads, four end-to-end metrics and a
per-layer bill, measured in fresh interpreters.

    python benchmarks/perf/run.py [--workload NAME ...] [--seed 7]
        [--repeats 5] [--seconds S] [--trace {0,1}] [--quick] [--out FILE]

One repeat is one fresh interpreter (``repeat.py``) that imports
``repro``, builds the inputs from ``--seed``, warms up and times exactly
one run of the workload's public call(s).  Repeats are interleaved
round-robin across workloads so machine drift hits all of them alike.
After the timed repeats one traced repeat per workload bills a cProfile
run to the simulator's layers.

``--trace 0`` measures only the end-to-end metrics, ``--trace 1`` only
the per-layer ones (with three untraced repeats as their base); without
``--trace`` both are measured.  ``--seconds`` keeps adding rounds of
timed repeats until that many seconds per workload have passed.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count repeats, and ``metrics`` holds every
metric ``BENCHMARK.json`` names for the selected mode (``workloads`` maps
name to metrics when more than one workload ran).  Exit status is 1 when
a repeat or a correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import workloads
from measure import calibrated, ratio, summarize, wall_clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CONTRACT = ROOT / "BENCHMARK.json"
#: Sweep directories and other scratch files live here, inside the
#: checkout, and are removed when the run ends.
WORK_PARENT = ROOT / ".perf_work"

#: A repeat that takes longer is killed and counted as failed.
REPEAT_TIMEOUT_S = 150.0
#: Untraced repeats measured alongside a ``--trace 1`` pass.
TRACE_BASE_REPEATS = 3
QUICK_REPEATS = 2


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    with open(CONTRACT, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Spawning repeats
# ----------------------------------------------------------------------
def spawn_repeat(name: str, seed: int, mode: str, quick: bool,
                 workdir: str) -> Dict[str, Any]:
    """Run one repeat in a fresh interpreter; never raises.

    ``setup_s`` runs from just before the spawn to the repeat's "ready"
    line, both stamped on this process's clock.  A repeat that dies,
    times out or prints no report comes back with ``problems`` set.
    """
    command = [sys.executable, str(HERE / "repeat.py"), "--workload", name,
               "--seed", str(seed), "--mode", mode, "--workdir", workdir]
    if quick:
        command.append("--quick")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    spawned = wall_clock()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=env, cwd=str(ROOT))
    watchdog = threading.Timer(REPEAT_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready_line = proc.stdout.readline()
        ready_seen = wall_clock()
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
    ended = wall_clock()
    report: Dict[str, Any] = {"workload": name, "mode": mode, "problems": []}
    try:
        child_ready = json.loads(ready_line)["ready"]
        report.update(json.loads(rest.strip().splitlines()[-1]))
    except (ValueError, KeyError, IndexError):
        report["problems"].append(
            f"repeat exited with status {proc.returncode} and no report")
        child_ready = None
    if proc.returncode != 0 and not report["problems"]:
        report["problems"].append(
            f"repeat exited with status {proc.returncode}")
    report["setup_s"] = ready_seen - spawned
    # Child spans move onto this clock: both sides stamped "ready".
    shift = ready_seen - child_ready if child_ready is not None else 0.0
    spans = [dict(row, start=row["start"] + shift,
                  end=None if row["end"] is None else row["end"] + shift)
             for row in report.pop("spans", [])]
    report["span"] = {"name": f"{name}/{mode}", "start": spawned,
                      "end": ended, "children": spans}
    _progress(name, report)
    return report


def measure(names: Sequence[str], seed: int, quick: bool,
            timed_rounds: int, seconds: Optional[float], traced: bool,
            workdir: str) -> Dict[str, List[Dict[str, Any]]]:
    """Every repeat's report per workload: timed rounds (round-robin
    over ``names``), then the traced pass."""
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    started = wall_clock()
    rounds = 0
    while rounds < timed_rounds or (
            seconds is not None
            and wall_clock() - started < seconds * len(names)):
        for name in names:
            runs[name].append(
                spawn_repeat(name, seed, "timed", quick, workdir))
        rounds += 1
    if traced:
        for name in names:
            runs[name].append(
                spawn_repeat(name, seed, "traced", quick, workdir))
    return runs


def _progress(name: str, report: Dict[str, Any]) -> None:
    wall = report.get("wall_s", report.get("traced_wall_s"))
    took = "failed" if wall is None else f"{wall:.3f} s"
    print(f"  [{name} {report['mode']}] {took}  "
          f"(setup {report['setup_s']:.3f} s)", file=sys.stderr, flush=True)
    for problem in report["problems"]:
        print(f"  [{name} {report['mode']}] FAILED: {problem}",
              file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# From repeats to metrics
# ----------------------------------------------------------------------
def _median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def assess(name: str, reports: Sequence[Dict[str, Any]], quick: bool
           ) -> Dict[str, Any]:
    """Everything measured on one workload: samples per end-to-end
    metric, per-layer values, the digest and the failed checks."""
    workload = workloads.WORKLOADS[name]
    problems = [p for r in reports for p in r["problems"]]
    timed = [r for r in reports if r["mode"] == "timed"]
    good = [r for r in timed if not r["problems"]]
    digests = sorted({r["facts"]["sim_digest"] for r in good})
    if len(digests) > 1:
        problems.append(f"timed repeats disagree on sim_digest: {digests}")
    # A traced repeat that died has no "layer" to read.
    traced = next((r for r in reports if r["mode"] == "traced"
                   and "layer" in r), None)
    if traced and good and workload.trace_stride == 1 \
            and traced["facts"]["sim_digest"] != digests[0]:
        problems.append("the traced pass simulated something else than "
                        "the timed repeats (sim_digest differs)")

    # A failed repeat counts every leecher it should have finished as
    # unfinished, so finished_frac cannot improve by crashing.
    compliant = good[0]["facts"]["compliant"] if good else 0
    finished = sum(r["facts"]["compliant"] - r["facts"]["unfinished"]
                   for r in good)
    samples = {
        "wall_s": [calibrated(r["wall_s"], r["kernel_s"]) for r in good],
        "setup_s": [calibrated(r["setup_s"], r["kernel_s"]) for r in good],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in good],
        "finished_frac": [ratio(finished, compliant * len(timed)) or 0.0],
    }
    wall = _median(samples["wall_s"])

    layer: Dict[str, Optional[float]] = {}
    if traced:
        layer.update(traced["layer"])
        # Sweep legs and traced pass share a process, hence a kernel.
        base = (calibrated(traced["trace_base_s"], traced["kernel_s"])
                if "trace_base_s" in traced else wall)
        layer["harness.trace_overhead"] = ratio(
            calibrated(traced["traced_wall_s"], traced["kernel_s"]), base)
    if good:
        facts = good[0]["facts"]
        sizes = dict(workload.base, **(workload.quick if quick else {}))
        spent = {p: statistics.mean(
            r["facts"]["protocol_wall_s"].get(p, 0.0)
            / sum(r["facts"]["protocol_wall_s"].values()) for r in good)
            for p in workloads.WORKLOADS["fig_mix"].protocols}
        layer.update({
            "sim.events_per_s": ratio(facts["events"], wall),
            "sim.us_per_event": ratio(wall * 1e6, facts["events"]),
            "harness.ref_kernel_s": _median(
                [k for r in good for k in r["kernel_s"]]),
            "harness.wall_raw_s": _median([r["wall_s"] for r in good]),
            "harness.setup_raw_s": _median([r["setup_s"] for r in good]),
            "harness.wall_iqr_frac": summarize(samples["wall_s"])["iqr_frac"],
            "harness.import_s": _median([r["import_s"] for r in good]),
            "harness.rss_kb_per_peer": ratio(
                _median([r["peak_rss_kb"] - r["rss_import_kb"]
                         for r in good]), sizes["leechers"]),
            "experiments.cpu_per_wall": _median(
                [r["cpu_s"] / r["wall_s"] for r in good]),
            "experiments.workers": (workloads.sweep_workers()
                                    if workload.kind == "fabric" else 1),
        })
        layer.update({f"bt.protocols.{p}.wall_share": share
                      for p, share in spent.items()})
    return {
        "why": workload.why,
        "sim_digest": digests[0] if len(digests) == 1 else None,
        "attempted": len(reports),
        "failed": sum(1 for r in reports if r["problems"]),
        "problems": problems,
        "samples": samples,
        "detail": layer,
        "repeats": [{key: r.get(key) for key in
                     ("mode", "wall_s", "setup_s", "cpu_s", "kernel_s",
                      "import_s", "peak_rss_kb", "traced_wall_s",
                      "problems")} for r in reports],
    }


def metric_rows(samples: Dict[str, list], detail: Dict[str, Any],
                contract: Dict[str, Any], modes: Sequence[str]
                ) -> Dict[str, Dict[str, Any]]:
    """``{section: {metric: row}}`` for the sections in ``modes``, one
    row per metric ``BENCHMARK.json`` names.  ``value`` is ``None`` for
    a metric that could not be measured on this workload."""
    sections: Dict[str, Dict[str, Any]] = {}
    if "end_to_end" in modes:
        rows = sections["end_to_end"] = {}
        for spec in contract["end_to_end"]:
            runs = samples.get(spec["name"], [])
            stats = summarize(runs) if runs else None
            rows[spec["name"]] = dict(
                spec, value=stats["median"] if stats else None,
                samples=runs, stats=stats)
    if "per_layer" in modes:
        sections["per_layer"] = {
            spec["name"]: dict(spec, value=detail.get(spec["name"]))
            for spec in contract["per_layer"]}
    return sections


# ----------------------------------------------------------------------
# Environment and printing
# ----------------------------------------------------------------------
def _load1() -> Optional[float]:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=str(ROOT), capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(load_before: Optional[float],
                kernels: Sequence[float]) -> Dict[str, Any]:
    """Where and how the numbers were taken, with noise warnings."""
    nproc = os.cpu_count() or 1
    load_after = _load1()
    kernel = summarize(kernels) if kernels else None
    warnings = []
    loads = [x for x in (load_before, load_after) if x is not None]
    if loads and max(loads) > nproc:
        warnings.append(f"load average {max(loads):.2f} exceeds "
                        f"nproc {nproc}: timings are contended")
    if kernel and kernel["iqr_frac"] > 0.10:
        warnings.append(f"reference kernel spread "
                        f"{kernel['iqr_frac']:.1%} exceeds 10%: the "
                        f"machine's speed moved during the run")
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": nproc,
        "sweep_workers": workloads.sweep_workers(),
        "load1_before": load_before,
        "load1_after": load_after,
        "ref_kernel_s": kernel,
        "warnings": warnings,
    }


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def print_report(env: Dict[str, Any], results: Dict[str, Any]) -> None:
    print("== environment ==")
    kernel = env["ref_kernel_s"]
    print(f"  commit {env['commit']}  python {env['python']}  "
          f"nproc {env['nproc']}  sweep workers {env['sweep_workers']}")
    print(f"  load1 before {_fmt(env['load1_before'])}  "
          f"after {_fmt(env['load1_after'])}")
    if kernel:
        print(f"  harness.ref_kernel_s median {kernel['median']:.4f} s  "
              f"spread {kernel['iqr_frac']:.1%}  n={kernel['n']}")
    for warning in env["warnings"]:
        print(f"  WARNING: {warning}")
    for name, result in results.items():
        print(f"== {name} ==  attempted {result['attempted']}  "
              f"failed {result['failed']}")
        print(f"  sim_digest {result['sim_digest']}")
        for problem in result["problems"]:
            print(f"  FAILED: {problem}")
        for row in result.get("end_to_end", {}).values():
            stats = row["stats"]
            spread = "" if not stats else (
                f"  [q1 {_fmt(stats['q1'])}  q3 {_fmt(stats['q3'])}  "
                f"min {_fmt(stats['min'])}  max {_fmt(stats['max'])}  "
                f"n={stats['n']}]")
            print(f"  {row['name']:<34} {_fmt(row['value']):>12} "
                  f"{row['unit']:<9} {row['better']} is better, "
                  f"bound {row['bound']:.0%}{spread}")
        for row in result.get("per_layer", {}).values():
            print(f"  {row['name']:<34} {_fmt(row['value']):>12} "
                  f"{row['unit']}")
        named = set(result.get("per_layer", {}))
        for key, value in sorted(result["detail"].items()):
            if key not in named:
                print(f"  ({key:<32} {_fmt(value):>12})")


def result_line(results: Dict[str, Any]) -> Dict[str, Any]:
    """The last line of output (see the module docstring).  A metric
    that could not be measured here reads 0: the line carries numbers."""
    per_workload = {
        name: {row["name"]: {"value": row["value"] or 0, "unit": row["unit"]}
               for section in ("end_to_end", "per_layer")
               for row in result.get(section, {}).values()}
        for name, result in results.items()}
    line: Dict[str, Any] = {
        "correct": not any(r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }
    if len(per_workload) == 1:
        line["metrics"] = next(iter(per_workload.values()))
    else:
        line["workloads"] = per_workload
    return line


def write_outputs(out: Path, env: Dict[str, Any], args: argparse.Namespace,
                  results: Dict[str, Any],
                  runs: Dict[str, List[Dict[str, Any]]]) -> None:
    """The report (``compare.py`` reads it) and, beside it, the spans
    (workload -> repeat -> the repeat's own spans) as
    ``<report name>.spans.jsonl``."""
    out.parent.mkdir(parents=True, exist_ok=True)
    report = {"environment": env, "seed": args.seed, "quick": args.quick,
              "workloads": results}
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    rows = []
    for name, reports in runs.items():
        rows.append({"id": name, "parent": None, "name": name})
        for number, repeat in enumerate(reports):
            span = repeat["span"]
            top = f"{name}/{number}"
            rows.append({"id": top, "parent": name, "name": span["name"],
                         "start": span["start"], "end": span["end"]})
            rows += [dict(row, id=f"{top}/{row['id']}",
                          parent=(f"{top}/{row['parent']}" if row["parent"]
                                  else top))
                     for row in span["children"]]
    out.with_suffix(".spans.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", dest="workloads",
                        choices=list(workloads.WORKLOADS), metavar="NAME",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repeats per workload (default 5)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep adding timed rounds for this long "
                             "per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: per-layer only")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, two repeats (self-test)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report here and "
                             "<name>.spans.jsonl beside it")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator source at {SRC}; the benchmark runs "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    contract = load_contract()
    names = args.workloads or list(workloads.WORKLOADS)
    modes = {None: ("end_to_end", "per_layer"), 0: ("end_to_end",),
             1: ("per_layer",)}[args.trace]
    if args.repeats is not None:
        rounds = args.repeats
    elif args.quick:
        rounds = QUICK_REPEATS
    else:
        rounds = TRACE_BASE_REPEATS if args.trace == 1 else 5
    # A --trace 1 pass has a fixed amount of work; --seconds does not
    # stretch its untraced base.
    seconds = None if args.trace == 1 else args.seconds

    load_before = _load1()
    WORK_PARENT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=str(WORK_PARENT))
    try:
        runs = measure(names, args.seed, args.quick, rounds, seconds,
                       "per_layer" in modes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK_PARENT.iterdir()):
            WORK_PARENT.rmdir()

    results: Dict[str, Any] = {}
    for name in names:
        assessed = assess(name, runs[name], args.quick)
        results[name] = dict(assessed, **metric_rows(
            assessed.pop("samples"), assessed["detail"], contract, modes))
    kernels = [k for result in results.values() for r in result["repeats"]
               for k in r["kernel_s"] or []]
    env = environment(load_before, kernels)
    print_report(env, results)
    if args.out is not None:
        write_outputs(args.out, env, args, results, runs)
    line = result_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
