"""One round of a workload, in a fresh Python process.

    python3 perfbench/workload.py --workload NAME --seed N --out DIR [--trace]

run.py starts this script with PYTHONPATH pointing at the checkout's src/
and PERFBENCH_T0 holding its time.time() just before the start, so the set-up
time covers interpreter start, imports and config resolution. The round runs
every operation of the workload once, times them, then checks every output.
It prints one JSON object as its last line.

With --trace the round runs traced: first every operation at one worker, so
that all counts are made in this process, then, if the workload uses more
workers, the same operations at their own worker count, which gives the
traced wall time and the run_chunks time at that count.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

from modev import cli, config

import specs
import tracing


def _usage():
    me, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0  # Linux reports KiB


def prepare(ops, out: Path) -> list:
    """Write and resolve every config; returns (op, op directory) pairs."""
    prepared = []
    for k, op in enumerate(ops):
        op_dir = out / f"{k:02d}-{op.name}"
        op_dir.mkdir(parents=True)
        if op.command is not None:
            path = op_dir / "config.json"
            path.write_text(json.dumps(op.config), encoding="utf-8")
            config.load_config(str(path), op.command)
        prepared.append((op, op_dir))
    return prepared


def run_ops(prepared) -> list:
    """Run each operation once; returns (result, error) per operation."""
    outcomes = []
    for op, op_dir in prepared:
        try:
            if op.command is None:
                outcomes.append((op.call(op_dir), None))
                continue
            argv = [op.command, "--config", str(op_dir / "config.json"),
                    "--workers", str(op.workers), "--out", str(op_dir)]
            rc = cli.main(argv)
            outcomes.append(((op_dir, op.config), None if rc == 0 else f"exit code {rc}"))
        except Exception as e:  # one failing operation must not stop the round
            outcomes.append((None, f"{type(e).__name__}: {e}"))
    return outcomes


def check_ops(prepared, outcomes) -> tuple:
    """(failed, unexpected failures, problem lines) over one pass."""
    failed, unexpected, problems = 0, 0, []
    for (op, _), (result, error) in zip(prepared, outcomes):
        found = [error] if error else []
        if not found:
            try:
                found = op.check(result)
            except Exception as e:  # a malformed artifact is a failed check
                found = [f"check raised {type(e).__name__}: {e}"]
        if found:
            failed += 1
            unexpected += op.known_fault is None
            problems += [f"{op.name}: {p}" for p in found[:3]]
    return failed, unexpected, problems


def timed_pass(ops, out: Path) -> dict:
    prepared = prepare(ops, out)
    t_first = time.time()
    cpu0, _ = _usage()
    w0 = time.perf_counter()
    outcomes = run_ops(prepared)
    wall = time.perf_counter() - w0
    cpu1, rss = _usage()
    failed, unexpected, problems = check_ops(prepared, outcomes)
    return {"t_first": t_first, "wall_s": wall, "cpu_s": cpu1 - cpu0, "peak_rss_mb": rss,
            "attempted": len(ops), "failed": failed, "unexpected": unexpected,
            "problems": problems}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(specs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    ops = specs.WORKLOADS[args.workload](args.seed)
    warnings.simplefilter("ignore")  # modev's warnings are expected on these inputs

    if not args.trace:
        res = timed_pass(ops, out)
        res["setup_s"] = res.pop("t_first") - float(os.environ["PERFBENCH_T0"])
        print(json.dumps(res))
        return 0

    tr = tracing.Tracer()
    remove = tracing.install(tr)
    try:
        one = timed_pass([replace(op, workers=1) for op in ops], out / "one-worker")
        metrics = tracing.layer_metrics(tr)
        tr.write(out / "trace.json")
        res = one
        if any(op.workers > 1 for op in ops):
            tr.reset()
            own = timed_pass(ops, out / "own-workers")
            for key in ("attempted", "failed", "unexpected"):
                own[key] += one[key]
            own["problems"] += one["problems"]
            res = own
        metrics["sampling.run_chunks_s"] = tracing.layer_metrics(tr)["sampling.run_chunks_1w_s"]
    finally:
        remove()
    res.pop("t_first")
    res["layers"] = metrics
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
