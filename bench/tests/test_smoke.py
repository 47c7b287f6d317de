"""Smoke: the same workload definitions at ``--scale smoke``.

Run with ``pytest bench/tests`` (not part of the tier-1 ``tests/``
path).  Asserts that every metric BENCHMARK.json declares is emitted
with its unit on every workload, in both passes, and that the oracle
passes — one definition for smoke and full.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run(tmp_path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_declared_metrics_emitted_and_oracle_green(tmp_path, workload, trace):
    line = run(tmp_path, workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] >= 1

    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, metric["name"]

    stem = f"{workload}.traced" if trace else workload
    record = json.loads((tmp_path / f"{stem}.json").read_text())
    assert record["stamp"]["comparable"] is False
    assert record["stamp"]["nproc"] >= 1
    assert record["ops"]["oracle_cases"] >= 1
    assert (tmp_path / f"{stem}.samples.jsonl").exists()
    if trace:
        assert (tmp_path / f"{workload}.spans.jsonl").stat().st_size > 0
        # A layer this workload or machine cannot measure says why.
        for name, metric in record["metrics"].items():
            assert metric["value"] is not None or metric["reason"], name
    assert not (tmp_path / "tmp" / f"{workload}").exists()


def write_set(directory: Path, scale_by: float, comparable: bool = True,
              jitter: float = 0.0) -> None:
    """A synthetic result set: four runs per workload, every metric
    ``100 * scale_by`` (+/- ``jitter`` alternating)."""
    for i in range(4):
        run_dir = directory / f"seed{i}"
        run_dir.mkdir(parents=True)
        value = 100.0 * scale_by * (1 + jitter * (-1) ** i)
        for workload in WORKLOADS:
            record = {"stamp": {"comparable": comparable, "scale": "full"},
                      "metrics": {m["name"]: {"value": value,
                                              "unit": m["unit"]}
                                  for m in DECLARED["end_to_end"]}}
            (run_dir / f"{workload}.json").write_text(json.dumps(record))


def agree(a: Path, b: Path):
    return subprocess.run(
        [sys.executable, "-m", "bench", "agree", str(a), str(b)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=False)


def test_agree_verdicts(tmp_path):
    write_set(tmp_path / "base", 1.0)
    write_set(tmp_path / "same", 1.01)
    write_set(tmp_path / "slow", 1.5)
    write_set(tmp_path / "noisy", 1.0, jitter=0.4)
    write_set(tmp_path / "smoke", 1.0, comparable=False)

    same = agree(tmp_path / "base", tmp_path / "same")
    assert same.returncode == 0, same.stdout
    assert "OUTSIDE" not in same.stdout and "within" in same.stdout

    # 1.5x is worse on lower-is-better metrics, better on higher ones.
    slow = agree(tmp_path / "base", tmp_path / "slow")
    assert slow.returncode == 1
    assert "gesture_p50_ms" in slow.stdout and "OUTSIDE" in slow.stdout
    line = next(ln for ln in slow.stdout.splitlines()
                if "gestures_per_s" in ln)
    assert "within" in line

    # Spread wider than the bound: neither changed nor unchanged.
    noisy = agree(tmp_path / "base", tmp_path / "noisy")
    assert noisy.returncode == 0
    assert "unresolved" in noisy.stdout

    # Smoke results are never compared.
    smoke = agree(tmp_path / "base", tmp_path / "smoke")
    assert smoke.returncode == 1
    assert "non-comparable" in smoke.stdout


def test_no_process_outlives_a_run():
    """A child, the grandchild it orphans when it is stopped, and the
    shared-memory resource tracker (which by itself outlives its
    parent) have all ended before the bench process exits."""
    sleeper = "import time; time.sleep(120)"
    child = ("import subprocess, sys, time; "
             f"subprocess.Popen([sys.executable, '-c', {sleeper!r}]); "
             "time.sleep(120)")
    script = (
        "import os, subprocess, sys, time\n"
        "from multiprocessing import shared_memory\n"
        "from bench import procs\n"
        "procs.adopt_orphans()\n"
        "block = shared_memory.SharedMemory(create=True, size=64)\n"
        "block.close(); block.unlink()\n"
        f"subprocess.Popen([sys.executable, '-c', {child!r}])\n"
        "time.sleep(1.0)  # the child has started its own child\n"
        "print(os.getpid(), len(procs.children()))\n"
        "procs.stop_children()\n"
        "print(len(procs.children()))\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=60,
                          check=False, start_new_session=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    session, before, after = map(int, proc.stdout.split())
    assert before == 2 and after == 0  # tracker + child; then nothing
    # Nothing of that session is left, the orphaned grandchild included.
    sids = subprocess.run(["ps", "-eo", "sid="], capture_output=True,
                          text=True, check=True).stdout.split()
    assert str(session) not in sids
