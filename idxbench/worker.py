"""Run one workload in this process: set up, time whole rounds, check.

Started by run.py for the measured run, and by the measured run itself
for each set-up sample (with --setup-only).  Prints one JSON object as
its last line of output.  A round is a closed loop with one client: each
operation starts when the previous one has returned.  The number of
rounds is fixed per workload (ROUNDS in workloads.py, for 20 s of
--seconds), so the program's own speed never changes how many samples
a run takes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".idxbench_work"
OUT = ROOT / ".idxbench_out"
SETUP_SAMPLES = 5


def percentile_ms(values: list[float], p: int) -> float:
    """p-th percentile (inclusive interpolation) in milliseconds."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1] * 1000


def sample_setup(args, cpus: list[int]) -> float:
    """Set-up time of a fresh --setup-only worker, the best of one start
    on each CPU: from just before this process starts it to the moment
    its first operation could start."""
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})  # the child inherits it
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
            "--spawned-at", repr(time.monotonic()),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return min(times)


def run_rounds(ops, rounds: int, cpus: list[int], tracer, between):
    """Time `rounds` whole rounds of the operations, round k on CPU
    cpus[k % len(cpus)].

    Calls between(k) before round k and between(rounds) after the last.
    Returns each operation's best latency over the rounds, the layer
    metrics of each round when traced, the outputs of round one, the
    count of failed operations and the errors found so far.  Later rounds
    are compared with round one as they finish and then dropped, so
    memory does not grow with the number of rounds.
    """
    from workloads import Failure

    best = [float("inf")] * len(ops)
    layers, first, failed, errors = [], None, 0, []
    for k in range(rounds):
        between(k)
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        if tracer is not None:
            tracer.reset()
        outputs = []
        for t, op in enumerate(ops):
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                result = Failure(f"{type(exc).__name__}: {exc}")
            latency = time.perf_counter() - start
            outputs.append(op.collect(result))
            best[t] = min(best[t], latency)
        layers.append(tracer.layer_metrics() if tracer is not None else None)
        if first is None:
            first = outputs
        for t, (op, out) in enumerate(zip(ops, outputs)):
            if not op.answered(out):
                failed += 1
            elif out != first[t]:
                errors.append(f"op {t}: output differs between rounds")
    between(rounds)
    return best, layers, first, failed, errors


def check_first_round(ops, outputs) -> list[str]:
    """Errors of the answered operations of round one against the
    reference checks."""
    errors = []
    for t, (op, out) in enumerate(zip(ops, outputs)):
        if op.answered(out):
            errors += [f"op {t} ({op.kind}): {e}" for e in op.check(out)]
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float,
                        help="with --setup-only: time.monotonic() when this process was started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # Rounds take turns on the CPUs this process may use, and each
    # operation keeps its best time: on the reference machine one CPU at a
    # time was at times slowed by up to 2x for minutes by other load,
    # while the other ran at full speed.
    cpus = sorted(os.sched_getaffinity(0))

    if not (SRC / "idxloc" / "__init__.py").is_file():
        print(f"error: no idxloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import idxloc
    from workloads import ROUNDS, WORKLOADS

    if Path(idxloc.__file__).resolve().parent != SRC / "idxloc":
        print(f"error: imported idxloc from {idxloc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"), workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": time.monotonic() - args.spawned_at}))
            return 0
        rounds = max(1, round(ROUNDS[args.workload] * args.seconds / 20))
        tracer, setups = None, []
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            between = lambda k: None
        else:
            # Set-up samples are spread over the run, between rounds, so
            # that their median does not hang on one stretch of it.
            at = [j * rounds // (SETUP_SAMPLES - 1) for j in range(SETUP_SAMPLES)]
            between = lambda k: setups.extend(sample_setup(args, cpus) for _ in range(at.count(k)))
        op_latency, per_round, first, failed, errors = run_rounds(ops, rounds, cpus, tracer, between)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
        errors += check_first_round(ops, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Each operation's latency is its best over the rounds: other load on
    # the machine slows a share of the samples by up to 2x, and the best
    # of several rounds on both CPUs is the figure least moved by it.  wall_s
    # is the sum of these best latencies, a best-case round composed of
    # operations from different rounds, not the time of any one round.
    if args.trace:
        metrics = {
            name: statistics.median_low([m[name] for m in per_round]) if name.endswith((".calls", ".cells"))
            else statistics.median([m[name] for m in per_round])
            for name in per_round[0]
        }
        metrics["trace.wall_s"] = sum(op_latency)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(op_latency),
            "op_p50_ms": percentile_ms(op_latency, 50),
            "op_p90_ms": percentile_ms(op_latency, 90),
            "peak_rss_mib": peak_rss_mib,
        }
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "backend": idxloc.kernel_backend(),
        "rounds": len(per_round),
        "ops_per_round": len(ops),
        "correct": not errors,
        "attempted": len(ops) * len(per_round),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
