"""Smoke and structure tests for the experiment harness itself."""

import math
import os
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.cli import FIGURES
from repro.experiments import (
    optimal_completion_time,
    run_figure,
    run_swarm,
)
from repro.experiments.config import ExperimentScale
from repro.analysis.metrics import PeerRecord, SwarmMetrics
from repro.experiments import parallel
from repro.experiments.parallel import RunSpec, execute_spec
from repro.experiments.runner import (
    PIECE_SIZE_KB,
    SERIES,
    build_config,
    compliant_completion_rate,
    seeds_for,
)
from repro.bt.protocols import PROTOCOLS


TINY = ExperimentScale(factor=0.15, seeds=1, root_seed=9)


@pytest.fixture(scope="module")
def tiny_rows():
    """Every ``repro figure`` module's rows at TINY, run serially."""
    return {name: run_figure(module, TINY, workers=1)
            for name, module in FIGURES.items()}


class TestScale:
    def test_swarm_and_pieces_scaled(self):
        scale = ExperimentScale(factor=0.5)
        assert scale.swarm(100) == 50
        assert scale.pieces(24) == 12

    def test_minimums(self):
        scale = ExperimentScale(factor=0.001)
        assert scale.swarm(100) == 4
        assert scale.pieces(24) == 1

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        monkeypatch.setenv("REPRO_SEEDS", "7")
        monkeypatch.setenv("REPRO_SEED", "99")
        scale = ExperimentScale.from_env()
        assert scale.factor == 2.5
        assert scale.seeds == 7
        assert scale.root_seed == 99

    def test_env_defaults(self, monkeypatch):
        for var in ("REPRO_SCALE", "REPRO_SEEDS", "REPRO_SEED"):
            monkeypatch.delenv(var, raising=False)
        scale = ExperimentScale.from_env()
        assert scale.factor == 1.0


class TestRunnerHelpers:
    def test_every_protocol_has_piece_size(self):
        assert set(PIECE_SIZE_KB) == set(PROTOCOLS)

    def test_build_config_from_file_size(self):
        config = build_config("tchain", file_mb=2.0)
        assert config.piece_size_kb == 64.0
        assert config.n_pieces == 32

    def test_build_config_from_pieces(self):
        config = build_config("bittorrent", pieces=10)
        assert config.n_pieces == 10
        assert config.piece_size_kb == 256.0

    def test_build_config_rejects_unknown(self):
        with pytest.raises(ValueError):
            build_config("napster")

    def test_optimal_time_formula(self):
        # 10 leechers at 800 Kbps, seeder 6000: aggregate binds.
        t = optimal_completion_time(1024.0, 6000.0, [800.0] * 10)
        aggregate = (6000 + 8000) / 10
        assert t == pytest.approx(1024 * 8 / aggregate)
        # tiny swarm: the seeder binds
        t2 = optimal_completion_time(1024.0, 500.0, [800.0] * 50)
        assert t2 == pytest.approx(1024 * 8 / 500.0)
        assert optimal_completion_time(1024.0, 6000.0, []) == 0.0

    def test_seeds_for_stable_and_distinct(self):
        a = seeds_for("expA", 42, 3)
        b = seeds_for("expA", 42, 3)
        c = seeds_for("expB", 42, 3)
        assert a == b
        assert set(a).isdisjoint(c)

    def test_compliant_completion_rate_pools_runs(self):
        """Finished compliant leechers over all compliant leechers,
        pooled across runs; free-riders and seeders do not count."""
        def run_of(*peers):
            metrics = SwarmMetrics()
            for kind, finish in peers:
                metrics.records.append(PeerRecord(
                    peer_id=f"{kind}{len(metrics.records)}", kind=kind,
                    capacity_kbps=800.0, join_time=0.0,
                    finish_time=finish, leave_time=None,
                    kb_uploaded=0.0, kb_downloaded=0.0,
                    pieces_uploaded=0, pieces_downloaded=0,
                    pieces_completed=0, utilization=0.0))
            return SimpleNamespace(metrics=metrics)

        runs = [run_of(("leecher", 10.0), ("leecher", None),
                       ("freerider", 5.0), ("seeder", 0.0)),
                run_of(("leecher", None), ("leecher", 20.0),
                       ("leecher", 30.0))]
        assert compliant_completion_rate(runs) == pytest.approx(3 / 5)
        # no compliant leecher simulated: no rate
        assert math.isnan(
            compliant_completion_rate([run_of(("freerider", None))]))

    def test_fig7_and_fig9_render_the_completion_rate(self):
        from repro.experiments import fig7, fig9
        text7 = fig7.render([fig7.Fig7Row(
            protocol="tchain", swarm_size=20, compliant_completion_s=90.0,
            compliant_ci95=1.0, freerider_completion_s=None,
            freerider_completion_rate=0.0,
            compliant_completion_rate=0.75)])
        text9 = fig9.render([fig9.Fig9Row(
            protocol="tchain", freerider_fraction=0.5,
            compliant_completion_s=150.0, completion_ci95=2.0,
            compliant_completion_rate=0.6)])
        assert "ci95  completion rate" in text7 and "0.75" in text7
        assert "ci95  completion rate" in text9 and "0.6" in text9


class TestFigureModulesSmoke:
    """Each per-figure module runs end to end at tiny scale and
    renders non-empty text."""

    def test_fig3(self, tiny_rows):
        from repro.experiments import fig3
        rows = tiny_rows["fig3"]
        assert len(rows) == len(fig3.PROTOCOLS) * len(
            fig3.BASE_SWARM_SIZES)
        assert "Fig. 3(a)" in fig3.render(rows)

    def test_fig4(self, tiny_rows):
        from repro.experiments import fig4
        file_rows, swarm_rows = tiny_rows["fig4"]
        assert 0.0 <= fig4.linearity_r2(file_rows) <= 1.0
        assert "Fig. 4(b)" in fig4.render((file_rows, swarm_rows))

    def test_fig5(self, tiny_rows):
        from repro.experiments import fig5
        timelines = tiny_rows["fig5"]
        assert set(timelines) == {"slow", "fast"}
        assert "Fig. 5" in fig5.render(timelines)

    def test_fig6(self, tiny_rows):
        from repro.experiments import fig6
        samples, rows, n_pieces = tiny_rows["fig6"]
        assert n_pieces == TINY.pieces(fig6.BASE_PIECES_A)
        assert "Fig. 6(b)" in fig6.render((samples, rows, n_pieces))

    def test_fig10_and_11(self, tiny_rows):
        flash, trace = tiny_rows["fig10"]
        assert flash.samples and trace.samples
        cumulative, _ = tiny_rows["fig11"]
        seeder, leechers = cumulative.final_counts()
        assert seeder >= 0 and leechers >= 0

    def test_fig12_structure(self, tiny_rows):
        from repro.experiments import fig12
        curves = tiny_rows["fig12"]
        assert set(curves) == {0.0, 0.25}
        for fraction, per_protocol in curves.items():
            assert {c.protocol for c in per_protocol} == set(
                fig12.PROTOCOLS)

    def test_fig13_lookup(self, tiny_rows):
        from repro.experiments import fig13
        rows = tiny_rows["fig13"]
        value = fig13.value(rows, "tchain", fig13.PIECE_COUNTS[0], 0.0)
        assert value >= 0.0
        with pytest.raises(KeyError):
            fig13.value(rows, "tchain", 999, 0.0)

    def test_every_figure_fans_out_bit_identical(self, tiny_rows):
        """Every figure is one spec grid: the same rows serially and
        over two workers (compared as ``repr``, where NaN equals
        itself)."""
        for name, module in FIGURES.items():
            assert repr(run_figure(module, TINY, workers=2)) \
                == repr(tiny_rows[name]), name

    def test_run_figure_makes_one_run_specs_call(self, monkeypatch):
        from repro.experiments import fig6
        calls = []
        run_specs = parallel.run_specs

        def counting(specs, **kwargs):
            calls.append(len(specs))
            return run_specs(specs, **kwargs)

        monkeypatch.setattr(parallel, "run_specs", counting)
        run_figure(fig6, TINY)
        assert calls == [len(fig6.grid(TINY))]


class TestSeries:
    #: (spec, how it stops): a trace run that drains, and a run whose
    #: starved free-riders leave it quiescent.
    SPECS = [(RunSpec(protocol="tchain", leechers=12, pieces=8, seed=5,
                      arrival="trace", trace_horizon_s=100.0), "drained"),
             (RunSpec(protocol="tchain", leechers=12, pieces=8, seed=4,
                      freerider_fraction=0.25), "quiescent")]

    @pytest.mark.parametrize("name", sorted(SERIES))
    def test_recording_a_series_leaves_the_run_alone(self, name):
        """A requested series only watches: the same spec with and
        without it ends the same way, at the same time, for every
        peer."""
        for spec, stop in self.SPECS:
            plain = execute_spec(spec)
            recorded = execute_spec(replace(spec, series=(name,)))
            assert plain.stop_reason == stop
            assert recorded.metrics.records == plain.metrics.records
            assert recorded.stop_reason == plain.stop_reason
            assert recorded.sim_time_s == plain.sim_time_s
            (got, value), = recorded.series
            assert got == name and value

    def test_unknown_series_rejected_before_a_swarm_is_built(
            self, monkeypatch):
        from repro.experiments import runner

        def no_swarm(*args, **kwargs):
            raise AssertionError("a swarm was built")

        monkeypatch.setattr(runner, "Swarm", no_swarm)
        with pytest.raises(ValueError, match="unknown series"):
            runner.run_swarm(series=("chains", "no-such-series"))


class TestQuietWindow:
    def test_quiet_window_stops_starved_swarms(self):
        """A T-Chain swarm with only free-riders left must not run to
        max_time."""
        result = run_swarm(protocol="tchain", leechers=12, pieces=8,
                           seed=4, freerider_fraction=0.25,
                           max_time=50000.0)
        assert result.config.quiet_window_s == 300.0
        assert result.swarm.sim.now < 50000.0
        assert result.stop_reason == "quiescent"

    def test_quiet_window_disabled_runs_to_cap(self):
        result = run_swarm(protocol="tchain", leechers=12, pieces=16,
                           seed=4, freerider_fraction=0.25,
                           max_time=2000.0, quiet_window_s=0.0,
                           chain_stall_timeout_s=60.0)
        # free-riders never finish a 16-piece file, and with the quiet
        # stop disabled their periodic announces keep the simulation
        # alive until the cap
        assert result.swarm.active_leechers > 0
        assert result.swarm.sim.now == pytest.approx(2000.0)
