#!/usr/bin/env python3
"""modev benchmark: runs the rounds of one workload and reports its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a modev checkout (the directory holding src/modev).
Each round of the workload runs in a fresh Python process (workload.py),
with BLAS pinned to one thread; rounds repeat until S seconds have passed,
so a run lasts S seconds plus part of one round. The last line of standard
output is one JSON object: with --trace 0 the end-to-end metrics, each the
median over the rounds; with --trace 1 the per-layer metrics of one traced
round, next to one untraced round that gives the tracing overhead. Uses the standard library only; the workload processes
import numpy and scipy through modev.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mc-suffstat", "mc-fullsample", "audit-numerics")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
RUN_LIMIT_S = 170  # a run, all rounds included, ends within this
RUNS_DIR = ".perfbench_runs"  # round outputs, traces and logs, under the checkout


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "1/rep" if name.endswith("precision_per_rep") else "count"


def run_round(workload: str, seed: int, out: Path, trace: bool, timeout: float) -> dict:
    """One workload round in a fresh process; its JSON result."""
    root = Path.cwd()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out / "artifacts")]
    if trace:
        cmd.append("--trace")
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "stderr.log"
    with open(log_path, "wb") as log:
        env["PERFBENCH_T0"] = repr(time.time())
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, env=env,
                                start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"run exceeded {RUN_LIMIT_S} s; log in {log_path}")
        finally:
            # pool workers belong to the round's session: end any left behind
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = log_path.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"round exited with {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (Path.cwd() / "src" / "modev" / "__init__.py").is_file():
        print("perfbench: no src/modev here; run from the root of a modev checkout",
              file=sys.stderr)
        return 2
    runs = Path.cwd() / RUNS_DIR / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(runs, ignore_errors=True)

    rounds = []
    start = time.monotonic()

    def left() -> float:
        return start + RUN_LIMIT_S - time.monotonic()

    try:
        if args.trace:
            plain = run_round(args.workload, args.seed, runs / "plain", False, left())
            traced = run_round(args.workload, args.seed, runs / "traced", True, left())
            rounds = [plain, traced]
            metrics = dict(traced["layers"])
            metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        else:
            while not rounds or time.monotonic() - start < args.seconds:
                rounds.append(run_round(args.workload, args.seed, runs / f"round{len(rounds)}",
                                        False, left()))
            metrics = {k: statistics.median(r[k] for r in rounds) for k in END_TO_END}
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    for k, r in enumerate(rounds):
        print(f"round {k}: " + ", ".join(f"{m} {r[m]:.6g}" for m in END_TO_END if m in r))
    problems = [p for r in rounds for p in r["problems"]]
    for p in dict.fromkeys(problems):
        print(f"failed: {p}")
    units = END_TO_END if not args.trace else {k: _unit(k) for k in metrics}
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"rounds {len(rounds)}, operations attempted {sum(r['attempted'] for r in rounds)},"
          f" failed {sum(r['failed'] for r in rounds)}")
    result = {
        "correct": all(r["unexpected"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
