"""Smoke test of the benchmark: a tiny version of every workload, both modes.

    python3 perfbench/smoke.py

Runs `run.py --size tiny` for each workload, untraced and traced, and checks
that each run exits 0, passes its answer checks with no failed solve, and
prints exactly the metrics BENCHMARK.json names.  Then checks that the
command refuses to run without the program's sources, and that the
README's table of end-to-end metrics gives the units and bounds
BENCHMARK.json gives.  Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def readme_agrees(spec: dict) -> list[str]:
    """The README's end-to-end table gives each metric the unit and bound
    BENCHMARK.json gives it."""
    with open(os.path.join(HERE, "README.md")) as fh:
        text = fh.read()
    section = text.split("## End-to-end metrics", 1)[1].split("\n## ", 1)[0]
    table = {m.group(1): (m.group(2), float(m.group(3))) for m in re.finditer(
        r"^\| `([\w.-]+)` \| ([^|\s]+) \| ([\d.]+) \|", section, re.M)}
    want = {m["name"]: (m["unit"], float(m["bound"])) for m in spec["end_to_end"]}
    if table == want:
        return []
    return [f"README end-to-end table {table} against BENCHMARK.json {want}"]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    faults = readme_agrees(spec)
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, w, trace)
            where = f"{w} trace {trace}"
            if proc.returncode != 0:
                faults.append(f"{where}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                faults.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                faults.append(f"{where}: correct {result['correct']}, "
                              f"{result['failed']}/{result['attempted']} failed")
            if set(result["metrics"]) != expected[trace]:
                faults.append(f"{where}: metrics {sorted(result['metrics'])}")
            print(f"{where}: ok ({result['attempted']} solves)")

    # Without the program next to it the benchmark must fail, not measure
    # some other installed copy.
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0:
            faults.append("run without src/asynclp exited 0")
        else:
            print(f"without the sources: exit {proc.returncode} (expected)")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in faults:
        print(f"FAIL {p}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
