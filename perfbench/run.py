"""Benchmark command: run one workload in a process of its own.

    python3 perfbench/run.py --workload cheb-dist --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The workload process imports asynclp from
the checkout's `src/`, runs with OpenBLAS, OpenMP and MKL pinned to one
thread (two OpenBLAS threads on a 2-core machine made set-up swing by 10x),
and must finish within 170 s.  The last line printed is the JSON result;
the lines before it name every metric with its unit.  `--size tiny` runs the
smoke-test version of the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bp-large", "cheb-battery", "cheb-dist")
TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "asynclp", "__init__.py")):
        print(f"no asynclp sources under {os.path.join(ROOT, 'src')}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{args.workload} did not finish within {TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        print(f"{args.workload} exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1

    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{args.workload} printed no result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"correct = {result['correct']}, attempted = {result['attempted']}, "
          f"failed = {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
