"""Integration tests over the example scripts.

Every example must at least compile; the fast ones are executed end to
end in a subprocess (fresh interpreter, like a user would run them) and
their output is sanity-checked.  The heavyweight ones are executed with
a tight timeout guard only when explicitly requested (they are exercised
manually and by EXPERIMENTS.md generation).
"""

import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {p.name for p in ALL_EXAMPLES}
    assert {"quickstart.py", "taxi_exploration.py",
            "neighborhood_ranking.py", "accuracy_tuning.py",
            "interactive_session.py", "rhythm_analysis.py"} <= names


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_examples_compile(path):
    py_compile.compile(str(path), doraise=True)


def _run(name, timeout=420):
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True, text=True, timeout=timeout)


class TestRunExamples:
    def test_quickstart(self):
        proc = _run("quickstart.py")
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "bounded" in proc.stdout
        assert "exact values inside the bounds:       True" in proc.stdout

    def test_neighborhood_ranking(self):
        proc = _run("neighborhood_ranking.py")
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "top 8 neighborhoods" in proc.stdout
        assert "head-to-head" in proc.stdout
