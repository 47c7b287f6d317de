"""``python -m bench run | agree`` — the one command.

``run`` measures one workload (or, without ``--workload``, each of the
four in a process of its own, so peak RSS is per workload), prints
every declared metric by name with its unit, checks outputs against
the oracle, writes ``<out>/<workload>[.traced].json`` plus raw samples
and spans, and ends with the one-line JSON result the benchmark
contract asks for.  It exits non-zero on any correctness failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import ROOT, procs
from .agree import agree
from .declared import DECLARED, OUT

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Laps of the traced pass (even untraced, odd traced).
TRACE_LAPS = 6


def stamp(workload, scale: str, seed: int) -> dict:
    """Where and on what a result was measured."""
    import numpy

    from repro import kernels

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "kernel_tier": kernels.info(),
        "git_commit": commit,
        "seed": seed,
        "scale": scale,
        # Smoke results exist to test the harness, never to compare.
        "comparable": scale == "full",
        "clients": workload.clients,
        "think_s": workload.think_s,
        "loop": "closed",
        "points": len(workload.inputs.table),
        "inputs_s": workload.inputs.seconds,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, scale: str,
            out: Path) -> int:
    """Measure one workload in this process; returns the exit code."""
    from . import measure, oracle
    from .probes import Probes
    from .spans import SpanRecorder
    from .workloads import WORKLOADS

    out.mkdir(parents=True, exist_ok=True)
    workdir = out / "tmp" / f"{name}-{os.getpid()}"
    workload = WORKLOADS[name](seed, scale, workdir)
    workload.inputs = workload.make_inputs()
    spans = SpanRecorder()
    spans.enabled = trace
    recorder = measure.Recorder(workload, spans)
    layer: dict[str, float | None] = {}
    reasons: dict[str, str] = {}
    setups: list[float] = []
    reps = 1 if trace or workload.smoke else SETUP_REPS
    live = False
    try:
        for rep in range(reps):
            t0 = time.perf_counter()
            workload.setup()
            live = True
            setups.append(time.perf_counter() - t0)
            if rep < reps - 1:
                workload.teardown()
                live = False
        before = workload.snapshot()
        if trace:
            recorder.run(trace_laps=TRACE_LAPS)
        else:
            recorder.run(seconds=seconds)
        rss_mb = measure.peak_rss_mb(workload.rss_pid())
        if trace:
            after = workload.snapshot()
            layer.update(measure.traced_metrics(
                workload, recorder.samples, spans, before, after))
            probes = Probes(workload, spans, reps=2 if workload.smoke else 5)
            probes.run()
            workload.probes(probes)
            layer.update(probes.values)
            reasons.update(probes.reasons)
        failures = oracle.check(recorder.answers, workload.oracle_table())
    finally:
        if live:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    samples = recorder.samples
    errors = [s for s in samples if s.error is not None]
    attempted = len(samples)
    failed = len(errors) + len(failures)
    for message in failures:
        print(f"oracle: {message}", file=sys.stderr)

    if trace:
        metrics = {}
        for metric in DECLARED["per_layer"]:
            value = layer.get(metric["name"])
            if value is None and metric["name"] not in reasons:
                reasons[metric["name"]] = (
                    f"{name} does not exercise this layer")
            metrics[metric["name"]] = value
    else:
        metrics = measure.end_to_end(recorder, statistics.median(setups),
                                     rss_mb)

    units = {m["name"]: m["unit"]
             for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    record = {
        "workload": name,
        "why": workload.why,
        "traced": trace,
        "stamp": stamp(workload, scale, seed),
        "ops": {"attempted": attempted, "failed": failed,
                "timed": attempted - len(errors), "laps": recorder.laps,
                "wall_s": recorder.wall_s,
                "oracle_cases": min(len(recorder.answers),
                                    oracle.MAX_CASES),
                "oracle_failures": failures,
                "errors": [s.error for s in errors[:10]]},
        "setup_runs_s": setups,
        "metrics": {k: {"value": v, "unit": units[k],
                        **({"reason": reasons[k]} if v is None else {})}
                    for k, v in metrics.items()},
    }
    stem = f"{name}.traced" if trace else name
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    with open(out / f"{stem}.samples.jsonl", "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(sample.row(), default=repr) + "\n")
    if trace:
        spans.write(out / f"{name}.spans.jsonl")

    print(f"== {name}  seed={seed} scale={scale} "
          f"{'traced' if trace else 'untraced'}  "
          f"samples={attempted} laps={recorder.laps} "
          f"clients={workload.clients} think={workload.think_s * 1e3:g}ms "
          f"failed={failed} oracle={'ok' if not failures else 'FAILED'} "
          f"({record['ops']['oracle_cases']} cases)")
    for key, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        note = f"   # {reasons[key]}" if value is None else ""
        print(f"  {key:<36} {shown:>14} {units[key]}{note}")

    # The contract's result line: every declared metric as a number.  A
    # layer that was not exercised did no work and spent no time.
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": 0.0 if v is None else float(v),
                        "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


def run_many(args) -> int:
    """Every requested workload x seed, each in its own process."""
    names = ([args.workload] if args.workload
             else [w["name"] for w in DECLARED["workloads"]])
    code = 0
    for seed in args.seeds:
        out = args.out / f"seed{seed}" if len(args.seeds) > 1 else args.out
        for name in names:
            cmd = [sys.executable, "-m", "bench", "run", "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", args.scale,
                   "--out", str(out)]
            code = max(code, subprocess.run(cmd, cwd=ROOT,
                                            check=False).returncode)
    return code


def parse_seeds(text: str) -> list[int]:
    """``7`` | ``1,2,3`` | ``1-10``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if dash else [int(lo)])
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure one workload or all four")
    run.add_argument("--workload", default=None,
                     choices=[w["name"] for w in DECLARED["workloads"]])
    run.add_argument("--seed", "--seeds", dest="seeds", type=parse_seeds,
                     default=[7], help="one seed, a list 1,2,3 or a "
                                       "range 1-10 (default 7)")
    run.add_argument("--seconds", type=float, default=None,
                     help="length of the timed phase (default: "
                          "run_seconds of BENCHMARK.json; 1 at smoke)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1 = the traced pass: per-layer metrics")
    run.add_argument("--traced", dest="trace", action="store_const",
                     const=1, help="same as --trace 1")
    run.add_argument("--scale", choices=("full", "smoke"), default="full")
    run.add_argument("--out", type=Path, default=OUT,
                     help="directory for result files (default bench/out)")

    cmp_ = sub.add_parser("agree", help="compare two result sets against "
                                        "the declared bounds")
    cmp_.add_argument("a", type=Path, help="base result set (directory)")
    cmp_.add_argument("b", type=Path, help="result set compared to it")

    args = parser.parse_args(argv)
    if args.command == "agree":
        return agree(args.a, args.b)
    if args.seconds is None:
        args.seconds = (1.0 if args.scale == "smoke"
                        else float(DECLARED["run_seconds"]))
    # Whatever the run starts — the server, the program's fork pools and
    # the helper processes Python launches for them — has ended and been
    # waited for before this process exits, on every path out.
    procs.adopt_orphans()
    try:
        if args.workload and len(args.seeds) == 1:
            return run_one(args.workload, args.seeds[0], args.seconds,
                           bool(args.trace), args.scale, args.out)
        return run_many(args)
    finally:
        procs.stop_children()
