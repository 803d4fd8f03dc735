"""Smoke runs of the leaf commands no other test or CI step runs, at the
smallest sizes that still print their stable lines."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.obs.prof import workload


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
