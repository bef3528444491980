"""Compare two reports written by ``run.py --out``.

    python benchmarks/perf/compare.py A.json B.json

For every workload and end-to-end metric it prints both medians, the
ratio B/A (base: A), the bound fixed in ``BENCHMARK.json`` and one of

* ``ok``         B is within the bound of A;
* ``regressed``  B is worse than A by more than the bound;
* ``improved``   B is better than A by more than the bound;
* ``unresolved`` the run-to-run spread of A or B is wider than the
  bound, and the two sets of runs overlap — the comparison cannot tell.

Counts that must repeat exactly (``sim_digest`` and every per-layer
metric whose unit is ``count``) are compared when both reports used the
same seed and sizes.  Exit status is 1 on any ``regressed``, on more
failed repeats in B than in A, or on a differing exact count.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple


def _spread(row: Dict[str, Any]) -> float:
    stats = row.get("stats")
    return stats["iqr_frac"] if stats else 0.0


def verdict(row_a: Dict[str, Any], row_b: Dict[str, Any]
            ) -> Tuple[str, Optional[float]]:
    """``(word, B/A)`` for one end-to-end metric of one workload."""
    a, b = row_a["value"], row_b["value"]
    if a is None or b is None or a == 0:
        return "unresolved", None
    # Orient everything so that larger is worse.
    sign = 1.0 if row_a["better"] == "lower" else -1.0
    bound = row_a["bound"]
    worse_by = sign * (b - a) / a
    if max(_spread(row_a), _spread(row_b)) > bound:
        # Too noisy for the medians to speak, unless the two sets of
        # runs do not overlap at all.
        runs_a = [sign * x for x in row_a["samples"]]
        runs_b = [sign * x for x in row_b["samples"]]
        if max(runs_b) < min(runs_a):
            return "improved", b / a
        if min(runs_b) > max(runs_a):
            return "regressed", b / a
        return "unresolved", b / a
    if worse_by > bound:
        return "regressed", b / a
    if worse_by < -bound:
        return "improved", b / a
    return "ok", b / a


def exact_differences(name: str, a: Dict[str, Any], b: Dict[str, Any]
                      ) -> List[str]:
    """Exact-repeat values of one workload that differ between reports."""
    found = []
    if a["sim_digest"] != b["sim_digest"]:
        found.append(f"{name}: sim_digest {a['sim_digest']} != "
                     f"{b['sim_digest']}")
    rows_b = b.get("per_layer", {})
    for metric, row in a.get("per_layer", {}).items():
        other = rows_b.get(metric)
        if row["unit"] == "count" and other is not None \
                and row["value"] != other["value"]:
            found.append(f"{name}: {metric} {row['value']} != "
                         f"{other['value']}")
    return found


def compare(report_a: Dict[str, Any], report_b: Dict[str, Any]) -> int:
    """Print the comparison; return the exit status."""
    status = 0
    same_inputs = (report_a["seed"], report_a["quick"]) \
        == (report_b["seed"], report_b["quick"])
    print(f"{'workload':<12} {'metric':<14} {'A':>11} {'B':>11} "
          f"{'B/A':>7} {'bound':>6}  verdict")
    for name, a in report_a["workloads"].items():
        b = report_b["workloads"].get(name)
        if b is None:
            print(f"{name:<12} missing from B")
            continue
        for metric, row_a in a.get("end_to_end", {}).items():
            row_b = b["end_to_end"][metric]
            word, quotient = verdict(row_a, row_b)
            shown = "   n/a" if quotient is None else f"{quotient:7.3f}"
            print(f"{name:<12} {metric:<14} {row_a['value']:>11.5g} "
                  f"{row_b['value']:>11.5g} {shown} "
                  f"{row_a['bound']:>6.0%}  {word}")
            if word == "regressed":
                status = 1
        if b["failed"] > a["failed"]:
            print(f"{name:<12} failed repeats rose from {a['failed']} "
                  f"to {b['failed']}")
            status = 1
        if same_inputs:
            for line in exact_differences(name, a, b):
                print(f"exact count differs — {line}")
                status = 1
    if not same_inputs:
        print("seeds or sizes differ: exact counts not compared")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in args:
        with open(path, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    return compare(*reports)


if __name__ == "__main__":
    sys.exit(main())
