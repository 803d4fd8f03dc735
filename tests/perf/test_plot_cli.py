"""ASCII plotting and the CLI experiment runner."""

import pytest

from repro.cli import build_parser, main
from repro.perf import plot
from repro.perf.plot import ascii_plot


class TestAsciiPlot:
    def test_basic_shape(self, monkeypatch):
        monkeypatch.setattr(plot, "HEIGHT", 8)
        text = ascii_plot(
            [1_000, 10_000, 100_000],
            {"a": [1.0, 2.0, 4.0], "b": [4.0, 2.0, 1.0]},
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "* a" in lines[1] and "o b" in lines[1]
        body = [line for line in lines if "|" in line]
        assert len(body) == 8
        assert any("*" in line for line in body)
        assert any("o" in line for line in body)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot([1, 2], {})

    def test_axis_labels_present(self):
        text = ascii_plot([10, 1000], {"s": [1, 100]}, y_label="rate")
        assert "payload (bytes)" in text
        assert "(y: rate)" in text


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        for command in ("table1", "fig8", "fig9", "fig10", "calibrate", "demo", "attacks"):
            args = parser.parse_args([command] if command not in ("table1", "calibrate") else [command, "-p", "TOY"])
            assert callable(args.func)

    def test_fig8_runs(self, capsys):
        assert main(["fig8"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 8" in output
        assert "100 MB" in output

    def test_fig9_runs(self, capsys):
        assert main(["fig9"]) == 0
        assert "Fig. 9 — throughput, f = 5%" in capsys.readouterr().out

    def test_fig10_runs(self, capsys):
        assert main(["fig10"]) == 0
        assert "f = 50%" in capsys.readouterr().out

    def test_table1_runs(self, capsys):
        assert main(["table1", "-p", "TOY"]) == 0
        output = capsys.readouterr().out
        assert "Table 1 — performance-model parameters" in output
        assert "§6.2 crypto micro-measurements" in output

    def test_calibrate_runs_small(self, capsys):
        assert main(["calibrate", "-p", "TOY", "--vector-bits", "4"]) == 0
        output = capsys.readouterr().out
        assert "pbe_match_s" in output
        assert "P_E" in output

    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "delivered" in output
        assert "anon" in output

    def test_attacks_run(self, capsys):
        assert main(["attacks"]) == 0
        output = capsys.readouterr().out
        assert "token-probing" in output
        assert "token-accumulation" in output
