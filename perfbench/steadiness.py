"""Steadiness tool: run one commit as two sets and compare them.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --runs 10 \
        [--workloads traffic_faulty,sweep_grid] [--record out.json]

The commit is run as two sets of ``--runs`` fresh ``perfbench/run.py``
processes of ``run_seconds`` from ``BENCHMARK.json``, each with its own
seed (set ``s`` uses seeds ``s*1000 + 1 ..``).  For every (workload,
end-to-end metric) it prints, per set, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread - the
interquartile distance as a share of the median - against the metric's
bound from ``BENCHMARK.json``, then the drift of the second set's
median from the first's.  The commit is steady when every spread is
under a third of its bound and no drift is past its bound.

``--record`` writes the figures, the bounds and the environment block
(python, numpy, CPU count and model, git sha) as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int = 0):
    """One fresh benchmark process; returns (result, env, wall seconds)."""
    begin = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=600,
    )
    wall = time.perf_counter() - begin
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    lines = proc.stdout.strip().splitlines()
    env = None
    for line in lines:
        if line.startswith("env: "):
            env = json.loads(line[5:])
    return json.loads(lines[-1]), env, wall


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--record", default=None)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    names = (
        args.workloads.split(",")
        if args.workloads
        else [w["name"] for w in config["workloads"]]
    )
    record: dict[str, object] = {"run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in names:
        sets = []
        for index in range(SETS):
            values: dict[str, list[float]] = {}
            walls = []
            for run in range(args.runs):
                seed = (index + 1) * 1000 + run + 1
                result, env, wall = run_once(workload, seed, seconds)
                record["env"] = env
                walls.append(wall)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: failed ops "
                          f"{result['failed']}/{result['attempted']}")
                    steady = False
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            print(f"{workload} set {index + 1}: run wall "
                  f"median {statistics.median(walls):.1f}s "
                  f"max {max(walls):.1f}s", flush=True)
            sets.append(values)
        rows = {}
        for name, bound in bounds.items():
            row = []
            for index, values in enumerate(sets):
                median, q1, q3, share = spread(values[name])
                ok = share < bound / 3
                steady &= ok
                row.append({"median": median, "q1": q1, "q3": q3,
                            "spread": share})
                print(f"  {name:12s} set {index + 1}: median {median:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {share:.3f} "
                      f"(bound {bound}, {'ok' if ok else 'WIDE'})")
            first, second = row[0]["median"], row[1]["median"]
            better = next(
                m["better"] for m in config["end_to_end"] if m["name"] == name
            )
            worse = (
                (second - first) / first
                if better == "lower"
                else (first - second) / first
            )
            ok = worse <= bound
            steady &= ok
            print(f"  {name:12s} drift {worse:+.3f} "
                  f"({'ok' if ok else 'PAST BOUND'})")
            rows[name] = row
        record["workloads"][workload] = rows
        sys.stdout.flush()
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
