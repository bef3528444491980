"""CLI figure/compare paths at tiny scale (fast figures only)."""

import os

import pytest

from repro.cli import main


class TestFigureCommand:
    def test_fig5_tiny(self, capsys):
        code = main(["figure", "fig5", "--scale", "0.2",
                     "--seeds", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        assert "encrypted pieces received" in out

    def test_fig10_tiny(self, capsys):
        code = main(["figure", "fig10", "--scale", "0.2",
                     "--seeds", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 10(a)" in out and "Fig. 10(b)" in out

    def test_figure_knobs_do_not_leak(self, capsys):
        """``--workers`` / ``--sweep-dir`` hold for the one command:
        an in-process caller's environment is unchanged afterwards."""
        before = dict(os.environ)
        code = main(["figure", "fig5", "--scale", "0.2", "--seeds", "1",
                     "--workers", "2"])
        assert code == 0
        assert dict(os.environ) == before

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_chaos_races_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--races", "--leechers", "4", "--pieces", "2"])
        assert exc.value.code == 2
        assert "--races" in capsys.readouterr().err

    def test_collude_flag_wires_options(self, capsys):
        code = main(["run", "--protocol", "tchain", "--leechers", "10",
                     "--pieces", "6", "--freeriders", "0.2",
                     "--collude"])
        assert code == 0
        assert "swarm run summary" in capsys.readouterr().out
