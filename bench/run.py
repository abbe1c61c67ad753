"""Benchmark of delayfilt: one workload run, end to end or traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src``.
Each run starts one fresh worker process (study.py) with the BLAS and
OpenMP thread counts set to 1, samples the memory of the worker and its
children, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The same object, with machine information, round times and check
details, is written to ``bench/results/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("filter-growth", "ident-offline-growth", "ident-online-bot")
WORKER_TIMEOUT_S = 170
RSS_POLL_S = 0.02

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _tree_rss_kb(pid: int) -> int:
    """Resident memory of a process and all its descendants, in KiB."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue  # the process ended between two reads
    return total


class _RssSampler(threading.Thread):
    """Polls the summed resident memory of a process tree until stopped."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(RSS_POLL_S):
            self.peak_kb = max(self.peak_kb, _tree_rss_kb(self.pid))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    package = ROOT / "src" / "delayfilt" / "__init__.py"
    if not package.is_file():
        print(f"benchmark: package source not found at {package}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               **{v: "1" for v in _THREAD_VARS})
    cmd = [sys.executable, str(BENCH / "study.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]

    # time.monotonic reads CLOCK_MONOTONIC, which the worker's clock shares
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    sampler = _RssSampler(proc.pid)
    sampler.start()
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"benchmark: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        sampler.done.set()
        sampler.join()
    if proc.returncode != 0:
        print(f"benchmark: worker exited with {proc.returncode}", file=sys.stderr)
        return 3

    lines = out.strip().splitlines()
    report = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    # ru_maxrss of the reaped worker (and what it reaped) is a floor for
    # the sampled peak, which can miss a short spike between two polls
    peak_kb = max(sampler.peak_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": report["setup_done"] - started, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    result = {k: report[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = metrics

    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=report["machine"], rounds=report["rounds"],
                  check_study_s=report["check_study_s"], checks=report["checks"])
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print("machine " + json.dumps(report["machine"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
