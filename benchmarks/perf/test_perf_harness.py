"""Self-test of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Runs the harness at ``--quick`` sizes, so it checks the plumbing — names,
units, attribution, exact counts, the comparison rule — not the numbers.
"""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_harness(*args):
    """``run.py`` with ``args``; returns (exit status, last stdout line)."""
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=str(ROOT),
                          timeout=300)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One full ``--quick`` run of all five workloads, with its report."""
    out = tmp_path_factory.mktemp("perf") / "report.json"
    status, line = run_harness("--quick", "--out", str(out))
    assert status == 0, line
    report = json.loads(out.read_text(encoding="utf-8"))
    spans = [json.loads(row) for row in
             out.with_suffix(".spans.jsonl").read_text().splitlines()]
    return {"line": line, "report": report, "spans": spans}


def test_contract_shape(contract):
    names = [m["name"] for section in ("workloads", "end_to_end", "per_layer")
             for m in contract[section]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert len(contract["workloads"]) == 5
    assert len(contract["end_to_end"]) <= 16
    assert len(contract["per_layer"]) <= 128
    assert "setup_s" in {m["name"] for m in contract["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert contract["paths"] == ["benchmarks/perf"]


def test_every_metric_is_emitted_with_its_unit(contract, quick):
    assert quick["line"]["correct"] and quick["line"]["failed"] == 0
    expected = {m["name"]: m["unit"]
                for m in contract["end_to_end"] + contract["per_layer"]}
    assert set(quick["line"]["workloads"]) \
        == {w["name"] for w in contract["workloads"]}
    for metrics in quick["line"]["workloads"].values():
        assert {k: v["unit"] for k, v in metrics.items()} == expected
        assert all(isinstance(v["value"], (int, float))
                   for v in metrics.values())


def test_trace_flag_selects_the_metric_set(contract):
    for flag, section in (("0", "end_to_end"), ("1", "per_layer")):
        status, line = run_harness("--quick", "--workload", "churn_trace",
                                   "--seed", "3", "--seconds", "1",
                                   "--trace", flag)
        assert status == 0
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {m["name"] for m in contract[section]}


def test_layer_shares_sum_to_one(quick):
    for name, result in quick["report"]["workloads"].items():
        shares = [row["value"] for metric, row in result["per_layer"].items()
                  if metric.endswith(".share")
                  and metric.split(".share")[0] in layers.LAYERS]
        assert len(shares) == len(layers.LAYERS)
        assert sum(shares) == pytest.approx(1.0, abs=0.01), name


def test_predicted_layer_differences(quick):
    results = quick["report"]["workloads"]
    for name, result in results.items():
        net_calls = result["per_layer"]["net.link.calls"]["value"]
        assert (net_calls > 0) == (name == "wan_lossy")
    sweep = results["sweep_200"]
    assert sweep["per_layer"]["experiments.fabric_overhead"]["value"] > 0
    assert sweep["detail"]["experiments.plain_wall_s"] > 0


def test_traced_counts_repeat_exactly(quick):
    """A second traced run of the same seed gives the same call counts."""
    status, line = run_harness("--quick", "--workload", "fig_mix",
                               "--workload", "wan_lossy", "--trace", "1")
    assert status == 0
    for name, again in line["workloads"].items():
        first = quick["line"]["workloads"][name]
        for metric, row in again.items():
            if row["unit"] == "count":
                assert row["value"] == first[metric]["value"], metric


def test_spans_form_a_tree(quick):
    ids = {row["id"] for row in quick["spans"]}
    assert len(ids) == len(quick["spans"])
    assert all(row["parent"] is None or row["parent"] in ids
               for row in quick["spans"])
    names = {row["name"] for row in quick["spans"]}
    assert {"setup", "public_call", "pre-run", "Swarm.run",
            "finalize"} <= names


def test_missing_entry_point_yields_none():
    assert layers.resolve("repro.bt.interest", "InterestIndex.gone") is None
    assert layers.resolve("repro.no_such_module", "Thing.method") is None
    found = layers.entry_stats({}, {"gone": ("repro.bt.interest",
                                             "Deleted.add_peer"),
                                    "idle": ("repro.bt.swarm",
                                             "Swarm.connect")})
    assert found["gone"] is None
    assert found["idle"] == {"calls": 0, "cum_s": 0.0}


def _scaled(report, factor):
    """``report`` with every ``wall_s`` sample multiplied by ``factor``."""
    changed = copy.deepcopy(report)
    for result in changed["workloads"].values():
        row = result["end_to_end"]["wall_s"]
        row["samples"] = [x * factor for x in row["samples"]]
        row["value"] *= factor
        for key in ("median", "q1", "q3", "min", "max"):
            row["stats"][key] *= factor
    return changed


def test_compare_flags_a_regression_beyond_the_bound(quick, capsys):
    base = copy.deepcopy(quick["report"])
    for result in base["workloads"].values():
        row = result["end_to_end"]["wall_s"]
        # Steady synthetic runs and a 10% bound: the verdict then
        # depends on the shift alone.
        row["bound"] = 0.10
        row["samples"] = [row["value"]] * 5
        row["stats"]["iqr_frac"] = 0.0
    assert compare.compare(base, _scaled(base, 1.03)) == 0
    assert compare.compare(base, _scaled(base, 1.20)) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.verdict(
        base["workloads"]["fig_mix"]["end_to_end"]["wall_s"],
        _scaled(base, 0.80)["workloads"]["fig_mix"]["end_to_end"]["wall_s"]
    )[0] == "improved"


def test_compare_reports_noise_as_unresolved(quick):
    noisy = copy.deepcopy(quick["report"])
    row = noisy["workloads"]["fig_mix"]["end_to_end"]["wall_s"]
    row["stats"]["iqr_frac"] = 2 * row["bound"]
    assert compare.verdict(row, row)[0] == "unresolved"


def test_compare_flags_a_differing_exact_count(quick):
    changed = copy.deepcopy(quick["report"])
    changed["workloads"]["crowd_1k"]["per_layer"]["sim.events"]["value"] += 1
    assert compare.compare(quick["report"], changed) == 1
