"""One workload run, in a process of its own; run.py starts it.

Runs whole rounds (set up and solve every instance of the workload once)
until the next round would end after `--seconds`, checks every answer, and
prints the result as the last line of stdout.  A time is reported as the
sum over the instance set of each instance's median over the rounds.
With `--trace 1` every call into the layers is recorded as a span and the
per-layer metrics are printed instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def instance_medians(rounds, attr: str) -> float:
    """Sum over the instance set of each instance's median over the rounds."""
    per_round = [getattr(r, attr) for r in rounds]
    return float(sum(statistics.median(times) for times in zip(*per_round)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    args = parser.parse_args(argv)

    import asynclp
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(asynclp.__file__).startswith(src):
        print(f"asynclp imported from {asynclp.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import spans
    import workloads

    out_root = os.path.join(HERE, "out")
    os.makedirs(out_root, exist_ok=True)
    w = workloads.make(args.workload, args.size, args.seed, out_root)
    tracer = None
    if args.trace:
        tracer = spans.Tracer(args.workload,
                              f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
    try:
        rounds = []
        longest = 0.0
        start = perf_counter()
        while True:
            if tracer is not None:
                tracer.round = len(rounds)
            t0 = perf_counter()
            rounds.append(w.round())
            longest = max(longest, perf_counter() - t0)
            if perf_counter() - start + longest > args.seconds:
                break
        measured = perf_counter() - start
        threads = _threads()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()

    errors = w.check(rounds)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    solve = [sum(r.solve_s) for r in rounds]
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} rounds in "
          f"{measured:.1f} s, {threads} thread(s) at the end")
    print(f"# solve_s per round: min {min(solve):.4f}, median "
          f"{statistics.median(solve):.4f}, max {max(solve):.4f} s")
    if tracer is None:
        metrics = {
            "setup_s": (instance_medians(rounds, "setup_s"), "s"),
            "solve_s": (instance_medians(rounds, "solve_s"), "s"),
            "equiv_iters": (statistics.median(r.equiv_iters for r in rounds),
                            "iterations"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        cols = tracer.columns()
        path = os.path.join(out_root, f"spans-{args.workload}.npz")
        tracer.write(path, cols)
        print(f"# traced solve_s {instance_medians(rounds, 'solve_s'):.4f} s; "
              f"{len(cols['id'])} spans written to {os.path.relpath(path, ROOT)}")
        metrics = spans.layer_metrics(
            tracer, len(rounds), cols,
            statistics.median(r.output_bytes for r in rounds))

    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
