"""Benchmark command for idxloc.

    python3 idxbench/run.py --workload minrank --seed 1 --seconds 20 --trace 0

Runs one workload (oracle, minrank, verify or codec, see README.md) in
its own single-threaded worker process and prints the metrics, one per
line with its unit, then one JSON object as the last line:

    {"correct": true, "attempted": 520, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; set-up time is the
median of the worker's set-up samples (see worker.py).  With --trace 1
the worker reports the per-layer metrics instead.  Exits non-zero
without a result line if a worker fails or the idxloc sources are not
in ``src/`` beside this directory.  The result line is also written to
``.idxbench_out/result-<workload>-<seed>-trace<0|1>.json``, and a traced
run writes its spans to ``.idxbench_out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".idxbench_out"
WORKLOADS = ("oracle", "minrank", "verify", "codec")
DEADLINE_S = 170
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mib": "MiB"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".calls") or name.endswith(".cells"):
        return "count"
    return "ratio" if name.endswith("_ratio") else "s"


def spawn(args, deadline: float) -> dict:
    """Run the worker to completion and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        result = spawn(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {name: {"value": value, "unit": unit(name)} for name, value in result["metrics"].items()}
    print(f"workload={args.workload} seed={args.seed} backend={result['backend']} "
          f"rounds={result['rounds']} ops_per_round={result['ops_per_round']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted={result['attempted']} failed={result['failed']} correct={str(result['correct']).lower()}")
    line = json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
