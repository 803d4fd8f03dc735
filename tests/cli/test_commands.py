"""Smoke runs of the leaf commands no other test or CI step runs, at the
smallest sizes that still print their stable lines."""

from __future__ import annotations

import pytest

from repro.cli import demo, main
from repro.obs import Observability
from repro.obs.prof import workload

from ..obs.openmetrics import parse_openmetrics


def test_prof_ledger_rejects_unknown_params_before_any_work(monkeypatch, capsys):
    def workload_ran(*args, **kwargs):
        pytest.fail("the demo workload ran before -p was checked")

    monkeypatch.setattr(workload, "run_demo_workload", workload_ran)
    with pytest.raises(SystemExit) as excinfo:
        main(["prof", "ledger", "-p", "BOGUS"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'BOGUS'" in capsys.readouterr().err


def test_prof_ledger_runs(capsys):
    assert main(["prof", "ledger", "--publications", "2"]) == 0
    out = capsys.readouterr().out
    assert "demo workload: 2 publications (seed 0)" in out
    assert "totals: modeled" in out


def test_prof_report_reads_a_recording(tmp_path, capsys):
    recording = tmp_path / "demo.prof.json"
    main(["prof", "record", "--publications", "2", "--out", str(recording)])
    capsys.readouterr()
    assert main(["prof", "report", str(recording)]) == 0
    assert "hot frames — mode det" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["det", "wall"])
def test_a_recording_reads_back_losslessly(tmp_path, capsys, mode):
    recording = tmp_path / "x.prof.json"
    argv = ["prof", "record", "--mode", mode, "--publications", "2", "--out", str(recording)]
    assert main(argv + ["--limit", "7"]) == 0
    recorded = capsys.readouterr().out.split("\n", 1)[1]  # after the "recorded ... ->" line
    assert main(["prof", "report", str(recording), "--limit", "7"]) == 0
    assert capsys.readouterr().out == recorded


@pytest.mark.parametrize("command", [["report"], ["diff", "{path}"]])
@pytest.mark.parametrize(
    "name, content, message",
    [
        ("missing.prof.json", None, "missing.prof.json: No such file or directory"),
        ("x.folded", "a;b 3\n", "x.folded: folded text is an export and cannot be read back"),
        ("x.prof.json", '{"samples": 5}', "x.prof.json: a profile is an object with exactly"),
    ],
)
def test_a_bad_recording_exits_with_one_line_naming_it(tmp_path, command, name, content, message):
    path = tmp_path / name
    if content is not None:
        path.write_text(content)
    argv = ["prof", command[0], str(path)] + [arg.format(path=path) for arg in command[1:]]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert message in str(excinfo.value.code)
    assert "\n" not in str(excinfo.value.code)


def test_demo_metrics_out_is_openmetrics(tmp_path, monkeypatch):
    class Kept(Observability):
        """The demo's bundle, kept so the test can read its registry."""

        def __init__(self):
            super().__init__()
            kept.append(self)

    kept: list[Observability] = []
    monkeypatch.setattr(demo, "Observability", Kept)
    out = tmp_path / "demo.prom"
    assert main(["demo", "--metrics-out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[-1] == "# EOF"
    (registry,) = [obs.metrics for obs in kept]
    assert registry.counter_total("net.bytes") > 0
    assert parse_openmetrics(text).total("p3s_net_bytes_total") == registry.counter_total("net.bytes")


@pytest.mark.live
class TestRefreshingViews:
    """The in-process, self-driving deployment behind each telemetry view."""

    def test_live_top_one_sweep(self, capsys):
        assert main(["live", "top", "--iterations", "1", "--no-clear"]) == 0
        out = capsys.readouterr().out
        assert "repro live top — sweep 1/1" in out
        assert "SLO alerts: " in out

    def test_slo_watch_one_sweep(self, capsys):
        assert main(["slo", "watch", "--iterations", "1", "--no-clear"]) == 0
        assert "repro slo watch — sweep 1/1" in capsys.readouterr().out

    def test_prof_top_merges_the_in_process_profile(self, capsys):
        assert main(["prof", "top", "--warmup", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "profiles from: inproc-wall" in out
        assert "hot frames — mode wall" in out
