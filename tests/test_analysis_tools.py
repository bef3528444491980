"""Tests for chain analysis, ASCII charts, persistence and the CLI."""

import json
import pathlib

import pytest

from repro.analysis.chains import (
    ChainStats,
    creation_rate,
    initiator_breakdown,
    length_histogram,
    summarize_chains,
    termination_rate,
)
from repro.analysis.charts import bar_chart, line_plot
from repro.analysis.persist import (
    load_peers_csv,
    load_run_json,
    run_summary,
    save_peers_csv,
    save_run_json,
)
from repro.cli import build_parser, main
from repro.core.chain import ChainRegistry
from repro.core.transaction import Transaction
from repro.experiments import run_swarm


def tx(tx_id):
    return Transaction(transaction_id=tx_id, chain_id=0,
                       index_in_chain=0, donor_id="A",
                       requestor_id="B", payee_id="C", piece_index=0)


def populated_registry():
    reg = ChainRegistry()
    c1 = reg.create("S", True, 0.0)
    c1.append(tx(0))
    c1.append(tx(1))
    c1.append(tx(2))
    reg.terminate(c1.chain_id, 30.0)
    c2 = reg.create("L1", False, 5.0)
    c2.append(tx(3))
    reg.terminate(c2.chain_id, 10.0)
    reg.create("L2", False, 8.0)  # still active, empty
    return reg


class TestChainAnalysis:
    def test_summary_counts(self):
        stats = summarize_chains(populated_registry())
        assert isinstance(stats, ChainStats)
        assert stats.total == 3
        assert stats.by_seeder == 1
        assert stats.by_leechers == 2
        assert stats.still_active == 1
        assert stats.max_length == 3
        assert stats.opportunistic_fraction == pytest.approx(2 / 3)

    def test_summary_lifetimes(self):
        stats = summarize_chains(populated_registry())
        assert stats.mean_lifetime_s == pytest.approx((30 + 5) / 2)

    def test_empty_registry(self):
        stats = summarize_chains(ChainRegistry())
        assert stats.total == 0
        assert stats.mean_lifetime_s is None
        assert stats.opportunistic_fraction == 0.0

    def test_length_histogram(self):
        hist = dict(length_histogram(populated_registry(),
                                     bins=(1, 2, 5)))
        assert hist["[0,1)"] == 1   # empty chain
        assert hist["[1,2)"] == 1   # length 1
        assert hist["[2,5)"] == 1   # length 3
        assert hist["[5,inf)"] == 0

    def test_rates(self):
        samples = [(0.0, 0, 0), (10.0, 2, 2), (20.0, 1, 3)]
        created = dict(creation_rate(samples))
        assert created[10.0] == pytest.approx(0.2)
        assert created[20.0] == pytest.approx(0.1)
        terminated = dict(termination_rate(samples))
        assert terminated[10.0] == pytest.approx(0.0)
        assert terminated[20.0] == pytest.approx(0.2)

    def test_initiator_breakdown(self):
        groups = initiator_breakdown(populated_registry())
        assert set(groups) == {"S", "L1", "L2"}
        assert len(groups["S"]) == 1


class TestCharts:
    def test_bar_chart_scales_to_peak(self):
        text = bar_chart([("a", 10.0), ("b", 5.0)], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_bar_chart_empty_and_zero(self):
        assert bar_chart([], title="t") == "t"
        text = bar_chart([("a", 0.0)], width=10)
        assert "#" not in text

    def test_line_plot_contains_markers_and_legend(self):
        text = line_plot(
            [("one", [(0, 0), (1, 1)]), ("two", [(0, 1), (1, 0)])],
            width=20, height=6, title="plot")
        assert "plot" in text
        assert "*=one" in text and "o=two" in text
        assert "*" in text and "o" in text

    def test_line_plot_empty(self):
        assert line_plot([], title="t") == "t"

    def test_line_plot_constant_series(self):
        text = line_plot([("flat", [(0, 5.0), (1, 5.0)])])
        assert "*" in text


@pytest.fixture(scope="module")
def small_result():
    return run_swarm(protocol="tchain", leechers=8, pieces=6, seed=3)


class TestPersistence:
    def test_summary_structure(self, small_result):
        summary = run_summary(small_result)
        assert summary["protocol"] == "tchain"
        assert summary["results"]["completion_rate"] == 1.0
        assert summary["tchain"]["chains_total"] > 0
        json.dumps(summary)  # JSON-safe

    def test_json_roundtrip(self, small_result, tmp_path):
        path = save_run_json(small_result, tmp_path / "run.json")
        data = load_run_json(path)
        assert data["protocol"] == "tchain"
        assert data["config"]["n_pieces"] == 6

    def test_json_schema_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99}')
        with pytest.raises(ValueError):
            load_run_json(path)

    def test_csv_roundtrip(self, small_result, tmp_path):
        path = save_peers_csv(small_result, tmp_path / "peers.csv")
        rows = load_peers_csv(path)
        assert len(rows) == len(small_result.metrics.records)
        assert {"peer_id", "kind", "utilization"} <= set(rows[0])

    def test_baseline_summary_has_no_tchain_block(self, tmp_path):
        result = run_swarm(protocol="bittorrent", leechers=5,
                           pieces=4, seed=2)
        assert "tchain" not in run_summary(result)


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--protocol", "tchain"])
        assert args.command == "run"
        args = parser.parse_args(["figure", "fig3", "--scale", "0.5"])
        assert args.name == "fig3" and args.scale == 0.5

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "gnutella"])

    def test_run_command(self, tmp_path, capsys):
        out_prefix = tmp_path / "out"
        code = main(["run", "--protocol", "bittorrent",
                     "--leechers", "6", "--pieces", "4",
                     "--out", str(out_prefix)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "swarm run summary" in captured
        assert "median completion, Kaplan-Meier (s)" in captured
        assert pathlib.Path(f"{out_prefix}.json").exists()
        assert pathlib.Path(f"{out_prefix}.csv").exists()

    def test_compare_command(self, capsys):
        code = main(["compare", "--leechers", "6", "--pieces", "4",
                     "--protocols", "bittorrent", "tchain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "protocol comparison" in out
        assert "tchain" in out
        # the rate sits next to the mean it qualifies
        assert "compliant completion (s)  completion rate" in out

    def test_models_command(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "bootstrapping dynamics" in out
        assert "collusion probability" in out
