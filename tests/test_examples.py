"""The shipped examples must run clean end to end (they assert internally)."""

import re
import runpy
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO / "examples"


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "ma_deal_feed.py",
        "coalition_intel.py",
        "private_chat.py",
        "hardened_deployment.py",
    ],
)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    output = capsys.readouterr().out
    assert output.strip(), f"{script} produced no output"


def test_quickstart_output_content(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
    output = capsys.readouterr().out
    assert "alice received" in output
    assert "bob received nothing" in output
    assert "anon" in output


def test_readme_quickstart_runs(capsys):
    """The README's Quickstart block (its first ``python`` fence) runs as
    written, so the package-level names it imports stay importable."""
    readme = (REPO / "README.md").read_text()
    snippet = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(snippet, "README.md", "exec"), {"__name__": "__main__"})
    output = capsys.readouterr().out
    assert "ACME Q3 earnings leak imminent" in output
    assert "['anon']" in output
