"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload traffic_faulty --seed 1 \
        --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
``ops_per_s`` (median rep rate), ``setup_s`` (lower quartile of many
blocks of cold set-ups), ``peak_rss_mb`` and the ``call_p50_ms``/``call_tail_ms`` host
latencies of the workload's user-facing calls.  ``--trace 1`` runs one
rep untraced and once more under the layer wrappers of
:mod:`perfbench.layers`, and prints the per-layer metrics instead.
Either way the outputs are checked against the executable specs
(:mod:`perfbench.oracle`), and the last stdout line is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is imported from ``src/`` of the checkout; without it the
run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = (
    "traffic_faulty", "traffic_quorum", "sweep_grid", "server_mutations",
)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
}

#: ``call_tail_ms`` is the highest of these percentiles with at least
#: ten calls beyond it: p99 on server_mutations (about 3,000 applies a
#: run), p50 on the other workloads (about 30 calls a run).  A
#: percentile with fewer samples beyond it just reads the slowest call
#: or two.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

#: Traced-run metrics computed here rather than by a layer wrapper.
DERIVED_LAYER_METRICS = {
    "sim.faults.decisions_per_op": "ratio",
    "rtdb.quorum_ok_ratio": "ratio",
    "sweep.cache.hit_ratio": "ratio",
    "unattributed_ratio": "ratio",
    "obs.trace_overhead_ratio": "ratio",
    "obs.span_wall_s": "s",
    "obs.span_crosscheck_ratio": "ratio",
}

#: Cold set-ups take from under a millisecond to about 70 ms, so they
#: are timed in blocks of this many (about 0.5 s a block on the
#: reference box, so no sub-second interval stands alone), SETUP_BLOCKS
#: blocks a run.  ``setup_s`` is the lower quartile of the blocks'
#: per-set-up means: the speed probes remove only part of a slow
#: spell's cost, so the slower blocks carry leftover host noise; in
#: trials on the reference box the lower quartile varied less between
#: processes than the median.
SETUP_BATCH = {
    "traffic_faulty": 800,
    "traffic_quorum": 8,
    "sweep_grid": 45,
    "server_mutations": 18,
}
SETUP_BLOCKS = 15

#: The span-tree node (name path) each workload's traced pass folds as a
#: cross-check, and the layer whose busy time it should match.
SPAN_CHECKS = {
    "traffic_faulty": (("traffic.simulate",), "traffic.shard"),
    "traffic_quorum": (("traffic.simulate",), "traffic.shard"),
    "sweep_grid": (("sweep.cell", "sweep.cell.store"), "sweep.store.append"),
    "server_mutations": (("server.mutation",), "server.apply"),
}


def environment() -> dict[str, object]:
    """Where the figures came from: interpreter, numpy, CPUs, commit."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False, timeout=30,
        )
        if probe.returncode == 0:
            sha = probe.stdout.strip()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_sha": sha,
    }


def peak_rss_mb() -> float:
    """High-water RSS of this process in MiB (ru_maxrss is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak /= 1024
    return peak / 1024


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(calls: int) -> int:
    """The highest :data:`TAIL_PERCENTILES` entry with ten calls beyond."""
    for q in TAIL_PERCENTILES:
        if calls * (100 - q) >= 10 * 100:
            return q
    return TAIL_PERCENTILES[-1]


def timed_run(cls, seed: int, seconds: int, scratch: Path):
    """The end-to-end measurement: set-up blocks, then the timed reps.

    Every interval is scaled to the reference host speed: on a shared
    host the same code runs tens of percent faster or slower from one
    second to the next, so each timed block is bracketed by speed probes
    (see :meth:`perfbench.workloads.Workload.timed` and the README,
    "Host speed").
    """
    from perfbench.workloads import rep_count

    workload = cls(seed, rep_count(cls.name, seconds), scratch)
    workload.setup()  # first use pays imports and lazy module state
    batch = SETUP_BATCH[cls.name]
    setups = []
    for _ in range(SETUP_BLOCKS):
        gc.collect()
        workload.raw_seconds = workload.scaled_seconds = 0.0
        workload.timed(lambda: [workload.setup() for _ in range(batch)])
        setups.append(workload.scaled_seconds / batch)
    rates = []
    raw_rates = []
    attempted = failed = 0
    for index in range(workload.reps):
        gc.collect()
        workload.raw_seconds = workload.scaled_seconds = 0.0
        try:
            ops, output = workload.rep(index)
        except Exception:  # noqa: BLE001 - reported as a failed op
            traceback.print_exc()
            attempted += 1
            failed += 1
            continue
        failed += check(workload, index, output)
        del output
        raw_rates.append(ops / workload.raw_seconds)
        rates.append(ops / workload.scaled_seconds)
        attempted += ops
    if not rates:
        return attempted, failed, {}
    calls = workload.calls_ms
    tail = tail_percentile(len(calls))
    print("raw: " + json.dumps({
        "ops_per_s": statistics.median(raw_rates),
        "speed": statistics.median(r / n for r, n in zip(raw_rates, rates)),
        "calls": len(calls),
        "tail_percentile": tail,
    }))
    values = {
        "ops_per_s": statistics.median(rates),
        "setup_s": statistics.quantiles(setups, n=4)[0],
        "peak_rss_mb": peak_rss_mb(),
        "call_p50_ms": quantile(calls, 50),
        "call_tail_ms": quantile(calls, tail),
    }
    metrics = {
        name: (value, END_TO_END_UNITS[name]) for name, value in values.items()
    }
    return attempted, failed, metrics


def check(workload, index: int, output) -> int:
    """Failed ops of one rep's output (a crashed check fails one)."""
    try:
        _, failed = workload.check(index, output)
    except Exception:  # noqa: BLE001 - a crashed check fails the run
        traceback.print_exc()
        return 1
    return failed


def traced_run(cls, seed: int, seconds: int, scratch: Path):
    """The run's reps untraced, then again traced; per-layer metrics.

    Both passes make one set-up and the same reps on the same inputs, so
    their wall times give the tracing overhead.  Each rep's output is
    checked right after it, with the wrappers paused and outside the
    measured wall time.
    """
    from perfbench.layers import Tracer
    from perfbench.workloads import rep_count
    from repro.obs import telemetry as obs
    from repro.obs.summarize import aggregate_span_tree

    reps = rep_count(cls.name, seconds)
    cls(seed, 1, scratch).setup()  # imports and lazy module state
    tracer = Tracer()

    def one_pass(workload) -> tuple[int, int, float]:
        """Ops, failed ops and wall seconds of set-up plus reps, speed
        probes and output checks excluded."""
        gc.collect()
        begin = time.perf_counter()
        workload.setup()
        wall = time.perf_counter() - begin
        ops = failed = 0
        for index in range(reps):
            begin = time.perf_counter()
            rep_ops, output = workload.rep(index)
            wall += time.perf_counter() - begin
            ops += rep_ops
            with tracer.paused(), obs.capture():  # checks record nowhere
                failed += check(workload, index, output)
            del output
        return ops, failed, wall - workload.probe_seconds

    ops, failed, plain_wall = one_pass(cls(seed, reps, scratch))
    with obs.capture(obs.Telemetry(span_capacity=1 << 20)) as tel:
        with tracer:
            traced_ops, traced_failed, traced_wall = one_pass(
                cls(seed, reps, scratch)
            )
    failed += traced_failed + (traced_ops != ops)

    metrics = dict(tracer.metrics())
    stats = tracer.stats
    decisions = stats["sim.faults.decide"].tally
    metrics["sim.faults.decisions_per_op"] = (decisions / ops, "ratio")
    reads = stats["rtdb.quorum_read"].calls
    metrics["rtdb.quorum_ok_ratio"] = (
        stats["rtdb.quorum_read"].tally / reads if reads else 0.0, "ratio"
    )
    lookups = stats["sweep.cache.design_for"].calls
    metrics["sweep.cache.hit_ratio"] = (
        stats["sweep.cache.design_for"].tally / lookups if lookups else 0.0,
        "ratio",
    )
    metrics["unattributed_ratio"] = (
        max(0.0, traced_wall - tracer.attributed_seconds()) / traced_wall,
        "ratio",
    )
    metrics["obs.trace_overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    path, layer = SPAN_CHECKS[cls.name]
    node = aggregate_span_tree(tel)
    for name in path:
        node = node.children.get(name)
        if node is None:
            break
    span_wall = 0.0 if node is None else node.wall
    metrics["obs.span_wall_s"] = (span_wall, "s")
    metrics["obs.span_crosscheck_ratio"] = (
        stats[layer].busy / span_wall if span_wall else 0.0, "ratio"
    )
    if tracer.missing:
        print(f"untraced targets: {tracer.missing}", file=sys.stderr)
    return ops, failed, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench.workloads import WORKLOADS, remove_scratch, scratch_root

    cls = WORKLOADS[args.workload]
    scratch = scratch_root(SCRATCH)
    try:
        if args.trace:
            attempted, failed, metrics = traced_run(
                cls, args.seed, args.seconds, scratch
            )
        else:
            attempted, failed, metrics = timed_run(
                cls, args.seed, args.seconds, scratch
            )
    finally:
        remove_scratch(scratch)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    print("env: " + json.dumps(environment(), sort_keys=True))
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
