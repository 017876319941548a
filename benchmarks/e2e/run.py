"""Command line of the benchmark.

``python -m benchmarks.e2e``                      all five workloads, untraced
``python -m benchmarks.e2e --trace``              the per-layer (traced) pass
``python -m benchmarks.e2e --workload W --seed N --seconds S --trace 0|1``
                                                  one contract run (CI driver)
``python -m benchmarks.e2e --repeat N``           N full sets + repeatability table
``python -m benchmarks.e2e --smoke``              tiny sizes, checks only

Every workload runs in its own child process (sequentially, never in
parallel) with ``PYTHONHASHSEED=0``, so memory is per workload and dict
order is the same in every run.  The child's last stdout line is the
contract's JSON object; its exit code is non-zero if a correctness
check or any op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from typing import Any

from . import ROOT, STARTED_AT
from .calib import REF_KERNEL_S
from .metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"
DEFAULT_SEED = 11
#: blocks of the stand-alone pass; the CI contract passes fewer (RUN_SECONDS)
DEFAULT_BLOCKS = 20
MIN_BLOCKS, MAX_BLOCKS, TRACE_BLOCKS, SMOKE_BLOCKS = 2, 20, 10, 2

UNITS = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}

#: raw (uncalibrated) twin of each calibrated end-to-end timing
RAW_TWIN = {
    "setup_s": "harness.raw_setup_s",
    "throughput_ops_s": "harness.raw_throughput_ops_s",
    "latency_p50_ms": "harness.raw_latency_p50_ms",
    "cpu_ms_per_op": "harness.raw_cpu_ms_per_op",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(DEFAULT_BLOCKS),
        help="timed blocks to run; a block is ~1 s of fixed work at "
        f"reference speed (clamped to {MIN_BLOCKS}..{MAX_BLOCKS}; the "
        f"committed contract uses {RUN_SECONDS})",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="1: traced pass, prints the per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def block_count(seconds: float, *, trace: bool, smoke: bool) -> int:
    if smoke:
        return SMOKE_BLOCKS
    blocks = max(MIN_BLOCKS, min(MAX_BLOCKS, int(seconds)))
    if trace:
        # traced and untraced blocks alternate; 10 blocks give the
        # slowest workload the 100 ops a p90 tail needs
        blocks = min(blocks, TRACE_BLOCKS)
        blocks -= blocks % 2
    return blocks


# ---------------------------------------------------------------------------
# the child: one workload, measured in this process
# ---------------------------------------------------------------------------


def make_workload(name: str, seed: int, *, smoke: bool, trace: bool) -> Any:
    # imported here so the parent process never loads the library
    from .w_agg_miss import AggMissSharded
    from .w_chat import ChatSession
    from .w_ingest import IngestDurable
    from .w_sql_hit import SqlHitHttp, SqlHitInproc

    classes = {
        cls.name: cls
        for cls in (SqlHitInproc, SqlHitHttp, AggMissSharded, ChatSession,
                    IngestDurable)
    }
    return classes[name](seed, smoke=smoke, trace=trace)


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, timeout=10,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g}"


def run_child(args: argparse.Namespace) -> int:
    from .harness import PhaseClock, run_workload

    clock = PhaseClock(STARTED_AT)
    clock.mark("interpreter start")
    trace = bool(args.trace)
    blocks = block_count(args.seconds, trace=trace, smoke=args.smoke)
    workload = make_workload(args.workload, args.seed, smoke=args.smoke, trace=trace)
    clock.mark("library imports")
    try:
        result, tracer, speeds = run_workload(workload, blocks, clock)
    finally:
        workload.close()

    OUT_DIR.mkdir(exist_ok=True)
    suffix = "_trace" if trace else ""
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace_{result.workload}.jsonl", speeds)
    record = {
        "workload": result.workload, "seed": args.seed, "smoke": args.smoke,
        "trace": trace, "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed, "end_to_end": result.end_to_end,
        "per_layer": result.per_layer, "info": result.info, "claim": None,
        "slices": result.slices, "setup_phases": result.setup_phases,
    }
    (OUT_DIR / f"result_{result.workload}{suffix}.json").write_text(
        json.dumps(record) + "\n"
    )

    info = ", ".join(f"{k}={v}" for k, v in result.info.items())
    print(
        f"== {result.workload}  sha={git_sha()} python={platform.python_version()} "
        f"nproc={os.cpu_count()} seed={args.seed} trace={int(trace)} "
        f"REF_KERNEL_S={REF_KERNEL_S} closed-loop"
    )
    if args.smoke:
        print("   SMOKE RUN: sizes are reduced, numbers are NOT comparable")
    print(f"   {info}")
    print(
        f"   ops attempted={result.attempted} failed={result.failed} "
        f"correct={result.correct}"
    )
    for name, value in result.end_to_end.items():
        print(f"   {name:<42}{_fmt(value):>14} {UNITS[name]}")
    for metric in PER_LAYER:
        if metric.name in result.per_layer:
            value = result.per_layer[metric.name]
            print(f"   {metric.name:<42}{_fmt(value):>14} {metric.unit}")

    print(json.dumps(contract_line(result, trace=trace)))
    return 0 if result.correct else 1


def contract_line(result: Any, *, trace: bool) -> dict[str, Any]:
    """The JSON object the CI driver reads from the last stdout line."""
    if trace:
        # the contract wants every per-layer name on every workload; a
        # metric this workload does not measure (or whose stats key
        # vanished) reads 0 here and null in the result file
        values = {m.name: result.per_layer.get(m.name) for m in PER_LAYER}
    else:
        values = dict(result.end_to_end)
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": 0.0 if value is None else value, "unit": UNITS[name]}
            for name, value in values.items()
        },
    }


# ---------------------------------------------------------------------------
# the parent: children one at a time
# ---------------------------------------------------------------------------


def spawn(workload: str, args: argparse.Namespace, *, quiet: bool) -> int:
    """Run one workload in a child process and wait for it."""
    command = [
        sys.executable, "-m", "benchmarks.e2e", "--child", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    child = subprocess.Popen(
        command, cwd=ROOT, env=env,
        stdout=subprocess.DEVNULL if quiet else None,
    )
    try:
        return child.wait()
    finally:
        if child.poll() is None:  # interrupted: never leave a child behind
            child.kill()
            child.wait()


def load_result(workload: str, trace: bool) -> dict[str, Any]:
    suffix = "_trace" if trace else ""
    return json.loads((OUT_DIR / f"result_{workload}{suffix}.json").read_text())


# quartiles exactly as the CI driver takes them (statistics.quantiles, n=4)
def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = quantiles(values, n=4)
    return q1, q3


def _spread(values: list[float]) -> float:
    q1, q3 = _quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def run_repeat(workloads: list[str], args: argparse.Namespace) -> int:
    """N full sets; medians, quartiles, spread and pass/fail per metric."""
    runs: dict[str, list[dict[str, Any]]] = {w: [] for w in workloads}
    status = 0
    for index in range(args.repeat):
        for workload in workloads:
            code = spawn(workload, args, quiet=True)
            status = status or code
            if code == 0:
                runs[workload].append(load_result(workload, bool(args.trace)))
            print(f"set {index + 1}/{args.repeat} {workload}: exit {code}", flush=True)

    previous_path = OUT_DIR / "repeat_last.json"
    previous = (
        json.loads(previous_path.read_text()) if previous_path.exists() else {}
    )
    if previous.get("key") != [args.seed, args.seconds, args.smoke]:
        previous = {}
    medians: dict[str, dict[str, float]] = {}
    print(
        f"\n{'workload/metric':<36}{'median':>12}{'q1':>12}{'q3':>12}"
        f"{'spread':>9}{'raw':>9}{'bound':>7}  ok  vs-prev"
    )
    for workload in workloads:
        medians[workload] = {}
        for metric in END_TO_END:
            values = [r["end_to_end"][metric.name] for r in runs[workload]]
            if not values:
                continue
            q1, q3 = _quartiles(values)
            spread = _spread(values)
            mid = medians[workload][metric.name] = median(values)
            twin = RAW_TWIN.get(metric.name)
            raw = (
                f"{_spread([r['per_layer'][twin] for r in runs[workload]]):>8.1%}"
                if twin else f"{'':>8}"
            )
            ok = spread <= metric.bound
            line = (
                f"{workload + '/' + metric.name:<36}{mid:>12.5g}{q1:>12.5g}"
                f"{q3:>12.5g}{spread:>8.1%} {raw}{metric.bound:>7.0%}  "
                f"{'ok ' if ok else 'NO '}"
            )
            before = previous.get("medians", {}).get(workload, {}).get(metric.name)
            if before:
                worse = (mid - before) / before
                if metric.better == "higher":
                    worse = -worse
                agree = worse <= metric.bound
                line += f" {worse:+.1%} {'ok' if agree else 'NO'}"
                ok = ok and agree
            print(line)
            status = status or (0 if ok else 2)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "repeat_runs.json").write_text(json.dumps(runs) + "\n")
    previous_path.write_text(json.dumps({
        "key": [args.seed, args.seconds, args.smoke], "medians": medians,
    }) + "\n")
    print(
        "\nspread = (q3 - q1) / median of the reference-speed metric; raw = the "
        "same on the uncalibrated reading;\nvs-prev = how much worse this "
        "group's median is than the previous --repeat group's (same seed/size)."
    )
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.child:
        if not args.workload:
            raise SystemExit("--child needs --workload")
        return run_child(args)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.repeat:
        return run_repeat(workloads, args)
    status = 0
    for workload in workloads:
        status = spawn(workload, args, quiet=False) or status
    return status
