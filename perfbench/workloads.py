"""The four fixed-work workloads.

Every workload does a fixed amount of simulated work per run, derived
from ``--seed`` and ``--seconds`` only - never from the clock - so two
runs of one commit do identical work and only host speed moves their
figures.  A workload is split into *reps*: equal-sized, independently
seeded calls into the system, each starting from fresh state (fresh
solve cache, fresh store and as-run directories).  ``ops_per_s`` is the
median rep rate, so one disturbed rep cannot move it.

Each workload exposes:

* ``setup()`` - one cold set-up (solve, design, index and table build
  from an empty solve cache); the harness times blocks of them;
* ``rep(i)`` - one rep, its calls into the system run through
  :meth:`Workload.timed`; returns ``(ops, output)``;
* ``check(i, output)`` - replays a sample of one rep's output through
  the executable specs and returns ``(checked, failed)``.  The harness
  checks each rep right after it, outside every timed segment, and
  drops the output, so no rep's output outlives it;
* ``calls_ms`` - host times of the user-facing calls made so far: each
  ``BroadcastServer.apply`` on server_mutations, the whole
  ``run_sweep`` or ``simulate_traffic`` call on the others.

Host speed on a shared machine swings by tens of percent within
seconds, so every timed segment is bracketed by :func:`probe_speed` and
its host time is also accumulated scaled to the reference speed.
"""

from __future__ import annotations

import heapq
import inspect
import json
import random
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from perfbench import oracle

INPUTS = Path(__file__).resolve().parent / "inputs"

#: Nominal host seconds of one rep on the reference box (2-CPU Xeon,
#: Python 3.11).  Only the *number* of reps follows ``--seconds``; the
#: work in a rep is fixed, so a faster program simply finishes sooner.
REP_SECONDS = {
    "traffic_faulty": 0.35,
    "traffic_quorum": 0.45,
    "sweep_grid": 0.35,
    "server_mutations": 4.0,
}


#: Seconds one speed probe took on the reference box (2-CPU Xeon
#: microVM, Python 3.11.7) at its usual speed.
PROBE_REFERENCE_S = 0.0110
#: A probe taken this recently still stands for the host's speed.
PROBE_FRESH_S = 0.5


def _probe_kernel(rng: random.Random) -> None:
    """Fixed work shaped like the workloads' own hot paths: string-seeded
    RNG construction, small numpy array passes, and tuple allocation,
    sorting, string-keyed dicts and a binary heap."""
    for i in range(200):
        random.Random(f"probe:{i}").random()
    values = np.arange(20_000, dtype=np.int64) * 7919 % 10_007
    np.unique(values)
    np.cumsum(values)
    items = [(rng.random(), i, str(i)) for i in range(1500)]
    items.sort()
    table: dict[str, tuple[float, int]] = {}
    heap: list[tuple[float, int]] = []
    for value, i, key in items:
        table[key] = (value, i)
        heapq.heappush(heap, (value, i))
    while heap:
        _, i = heapq.heappop(heap)
        table.get(str(i))


def probe_speed() -> float:
    """Host speed now relative to the reference box (>1 is faster).

    The faster of two runs of :func:`_probe_kernel`: an interruption
    can only slow a run down, so the faster one reads the speed the host
    offers.  The speed swings on a sub-second scale, so many short
    probes between short timed segments track it better than a few long
    ones.
    """
    best = float("inf")
    for _ in range(2):
        rng = random.Random(7)
        begin = time.perf_counter()
        _probe_kernel(rng)
        best = min(best, time.perf_counter() - begin)
    return PROBE_REFERENCE_S / best


def _load(name: str) -> dict[str, Any]:
    with open(INPUTS / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def rep_count(workload: str, seconds: int) -> int:
    """How many reps a run of ``seconds`` makes (at least two)."""
    return max(2, round(seconds / REP_SECONDS[workload]))


def rep_seeds(seed: int, reps: int) -> list[int]:
    """Per-rep seeds, a pure function of the run seed."""
    rng = random.Random(f"perfbench:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(reps)]


class Workload:
    """Shared plumbing: seeds, scratch directories, call timings."""

    name = ""

    def __init__(self, seed: int, reps: int, scratch: Path) -> None:
        self.seed = seed
        self.reps = reps
        self.seeds = rep_seeds(seed, reps)
        self.scratch = scratch
        self.calls_ms: list[float] = []
        self.raw_seconds = 0.0
        self.scaled_seconds = 0.0
        self.probe_seconds = 0.0  # spent probing, inside no timed segment
        self._probe = (0.0, -1.0)  # (speed, perf_counter when probed)

    def _probe_now(self) -> float:
        begin = time.perf_counter()
        speed = probe_speed()
        self.probe_seconds += time.perf_counter() - begin
        return speed

    def timed(self, fn: Callable[..., Any], *args: Any, call: bool = False,
              **kwargs: Any) -> Any:
        """Run ``fn`` as one timed segment, bracketed by speed probes.

        The segment's host time accumulates raw into ``raw_seconds`` and
        scaled to the reference speed into ``scaled_seconds``; call
        latencies recorded during it are scaled the same way, and with
        ``call`` the segment itself is recorded as one call.
        """
        first = len(self.calls_ms)
        before, taken = self._probe
        begin = time.perf_counter()
        if begin - taken > PROBE_FRESH_S:
            before = self._probe_now()
            begin = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        elapsed = end - begin
        after = self._probe_now()
        self._probe = (after, end)
        speed = (before + after) / 2
        self.raw_seconds += elapsed
        self.scaled_seconds += elapsed * speed
        self.calls_ms[first:] = [ms * speed for ms in self.calls_ms[first:]]
        if call:
            self.calls_ms.append(elapsed * speed * 1e3)
        return result

    def fresh_dir(self, label: str) -> Path:
        """A new empty directory under the run's scratch root."""
        return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.scratch))

    def setup(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def rep(self, index: int) -> tuple[int, Any]:  # pragma: no cover
        raise NotImplementedError

    def check(self, index: int, output: Any) -> tuple[int, int]:  # pragma: no cover
        raise NotImplementedError


# ----------------------------------------------------------------------
# traffic_faulty: single-channel SoA traffic under Bernoulli faults
# ----------------------------------------------------------------------

#: The BENCH_traffic multidisk catalogue (benchmarks/bench_traffic.py).
FAULTY_FILES = (
    ("hot", 2), ("warm-1", 3), ("warm-2", 3), ("cold-1", 5), ("cold-2", 6),
)
FAULTY_DEMAND = {
    "hot": 20.0, "warm-1": 5.0, "warm-2": 4.0, "cold-1": 1.0, "cold-2": 0.5,
}
FAULTY_DEADLINES = {
    "hot": 30, "warm-1": 45, "warm-2": 45, "cold-1": 75, "cold-2": 90,
}
#: One rep: a sixteenth of the BENCH_traffic population over a
#: sixteenth of its duration, so the arrival density (and with it the
#: share of distinct slots needing a fresh fault decision) is the
#: bench's.
FAULTY_CLIENTS = 625
FAULTY_DURATION = 12_500
FAULTY_REQUESTS = 10
FAULTY_SAMPLE = 15  # traced requests replayed per rep


class TrafficFaulty(Workload):
    """``simulate_traffic(engine="soa")`` under Bernoulli p=0.05."""

    name = "traffic_faulty"

    def __init__(self, seed: int, reps: int, scratch: Path) -> None:
        super().__init__(seed, reps, scratch)
        self.program = None

    def setup(self) -> None:
        from repro.bdisk.multidisk import (
            build_multidisk_program,
            config_from_demand,
        )
        from repro.traffic.cohorts import RetrievalTables

        config = config_from_demand(
            list(FAULTY_FILES), FAULTY_DEMAND, levels=(4, 2, 1)
        )
        program = build_multidisk_program(config)
        program.index
        RetrievalTables.build(
            program, [name for name, _ in FAULTY_FILES],
            dict(FAULTY_FILES), None,
        )
        self.program = program

    def inputs(self, index: int):
        from repro.api.scenario import FaultSpec
        from repro.traffic import TrafficSpec

        seed = self.seeds[index]
        spec = TrafficSpec(
            clients=FAULTY_CLIENTS,
            duration=FAULTY_DURATION,
            arrival="poisson",
            popularity="zipf",
            zipf_skew=1.2,
            requests_per_client=FAULTY_REQUESTS,
            think_time=10,
            seed=seed,
        )
        faults = FaultSpec(kind="bernoulli", probability=0.05, seed=seed + 1)
        return spec, faults

    def rep(self, index: int) -> tuple[int, Any]:
        from repro.traffic import simulate_traffic

        spec, faults = self.inputs(index)
        result = self.timed(
            simulate_traffic,
            self.program,
            [name for name, _ in FAULTY_FILES],
            spec,
            file_sizes=dict(FAULTY_FILES),
            deadlines=FAULTY_DEADLINES,
            faults=faults,
            engine="soa",
            trace=True,
            call=True,
        )
        return result.requests, result

    def check(self, index: int, output: Any) -> tuple[int, int]:
        spec, faults = self.inputs(index)
        return oracle.check_plain_traffic(
            self.program, dict(FAULTY_FILES), spec, faults, output,
            sample=FAULTY_SAMPLE,
        )


# ----------------------------------------------------------------------
# traffic_quorum: 3 replicated channels, quorum 2, temporal transactions
# ----------------------------------------------------------------------

#: One rep is half the example's population over half its duration; a
#: run makes many.
QUORUM_CLIENTS = 150
QUORUM_DURATION = 3_000
QUORUM_REQUESTS = 3
QUORUM_SAMPLE_CLIENTS = 1  # whole client histories replayed per rep


class TrafficQuorum(Workload):
    """Quorum-consistent versioned reads over a replicated channel set."""

    name = "traffic_quorum"

    def __init__(self, seed: int, reps: int, scratch: Path) -> None:
        super().__init__(seed, reps, scratch)
        self.design = None

    def scenario(self, index: int | None = None):
        from repro.api.scenario import Scenario

        payload = _load("scenario_multichannel.json")
        seed = self.seed if index is None else self.seeds[index]
        payload["faults"] = {
            "kind": "burst", "p_enter": 0.02, "p_exit": 0.25,
            "seed": seed + 1,
        }
        payload["traffic"].update(
            clients=QUORUM_CLIENTS,
            duration=QUORUM_DURATION,
            requests_per_client=QUORUM_REQUESTS,
            seed=seed,
        )
        return Scenario.from_dict(payload)

    def setup(self) -> None:
        from repro.api.engine import BroadcastEngine

        design = BroadcastEngine(self.scenario()).design()
        for program in design.channel_set.programs:
            program.index
        self.design = design

    def rep(self, index: int) -> tuple[int, Any]:
        from repro.api.engine import BroadcastEngine

        engine = BroadcastEngine(self.scenario(index), design=self.design)
        result = self.timed(
            engine.run_traffic, engine="soa", trace=True, call=True
        )
        return result.requests, result

    def check(self, index: int, output: Any) -> tuple[int, int]:
        return oracle.check_quorum_traffic(
            self.scenario(index), self.design.channel_set, output,
            clients=QUORUM_SAMPLE_CLIENTS,
            seed=self.seeds[index],
        )


# ----------------------------------------------------------------------
# sweep_grid: serial run_sweep over the AWACS fault grid
# ----------------------------------------------------------------------

SWEEP_PROBABILITIES = [0.03, 0.1]
SWEEP_FAULT_SEEDS = 3
#: The design-changing axis: three distinct designs per rep.
SWEEP_BUDGETS = [1, 2, 3]
SWEEP_SAMPLE = 1  # cells re-run through run_scenario per rep


class SweepGrid(Workload):
    """Serial ``run_sweep`` with an on-disk store and solve cache."""

    name = "sweep_grid"

    def spec(self, index: int | None = None):
        from repro.sweep.spec import SweepSpec

        seed = self.seed if index is None else self.seeds[index]
        base = _load("sweep_fault_grid.json")["base"]
        base["workload"]["seed"] = seed
        first = seed % 100_000
        return SweepSpec.from_dict({
            "name": "perfbench-fault-grid",
            "base": base,
            "axes": [
                {"field": "faults.kind", "values": ["bernoulli"]},
                {"field": "faults.probability",
                 "values": SWEEP_PROBABILITIES},
                {"field": "faults.seed",
                 "range": {"start": first,
                           "stop": first + SWEEP_FAULT_SEEDS - 1,
                           "step": 1}},
                {"field": "files.0.fault_budget", "values": SWEEP_BUDGETS},
            ],
        })

    def setup(self) -> None:
        from repro.sweep.cache import SolveCache

        cache = SolveCache()
        for cell in self.spec().cells():
            design, _ = cache.design_for(cell.scenario)
            design.program.index

    def rep(self, index: int) -> tuple[int, Any]:
        from repro.sweep.orchestrate import run_sweep

        work = self.fresh_dir("sweep")
        store = work / "store.jsonl"
        result = self.timed(
            run_sweep, self.spec(index), store_path=store,
            cache_dir=work / "cache", call=True,
        )
        return result.executed, (result, work)

    def check(self, index: int, output: Any) -> tuple[int, int]:
        result, work = output
        try:
            return oracle.check_sweep(
                self.spec(index), result, work / "store.jsonl",
                sample=SWEEP_SAMPLE, seed=self.seeds[index],
                distinct_designs=len(SWEEP_BUDGETS),
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)


# ----------------------------------------------------------------------
# server_mutations: live server under a ~1000-mutation timeline
# ----------------------------------------------------------------------

#: Mutations per timeline block; blocks per rep give 1002 mutations.
SERVER_BLOCKS = 167
SERVER_GAP = 40  # slots between scripted mutations
SERVER_CLIENTS = 2_000
SERVER_REQUESTS = 20
SERVER_CHUNK = 20  # mutations per timed kernel chunk
#: The auxiliary file's (blocks, latency) variants.  Each first use
#: forces fresh solves; every later use is a cache hit.  The set is the
#: same for every seed (only the order moves), so every run solves the
#: same number of designs.
AUX_VARIANTS = tuple(
    (blocks, latency) for blocks in (1, 2) for latency in range(24, 37, 2)
)


def server_timeline(seed: int) -> list[dict[str, Any]]:
    """The scripted mutation timeline of one rep.

    Each block switches to combat, adds a file, edits a fault budget up
    and back, removes the file and switches back: mode changes are
    cache hits after the first block, and the file and budget edits
    solve a fresh design the first time each variant airs.
    """
    rng = random.Random(seed)
    variants = list(AUX_VARIANTS) * (SERVER_BLOCKS // len(AUX_VARIANTS) + 1)
    variants = variants[:SERVER_BLOCKS]
    rng.shuffle(variants)
    mutations: list[dict[str, Any]] = []
    for blocks, latency in variants:
        mutations += [
            {"kind": "mode_change", "mode": "combat"},
            {"kind": "add_file",
             "file": {"name": "aux", "blocks": blocks, "latency": latency}},
            {"kind": "fault_budget", "name": "map", "delta": 1},
            {"kind": "fault_budget", "name": "map", "delta": -1},
            {"kind": "remove_file", "name": "aux"},
            {"kind": "mode_change", "mode": "surveillance"},
        ]
    return [
        {"at_slot": (position + 1) * SERVER_GAP, "mutation": mutation}
        for position, mutation in enumerate(mutations)
    ]


class ServerMutations(Workload):
    """The online server airing live clients through a mutation script."""

    name = "server_mutations"

    def scenario(self, index: int | None = None):
        from repro.api.scenario import Scenario

        payload = _load("server_awacs_modes.json")
        seed = self.seed if index is None else self.seeds[index]
        payload["faults"] = {
            "kind": "bernoulli", "probability": 0.05, "seed": seed + 1,
        }
        payload["traffic"].update(
            clients=SERVER_CLIENTS,
            duration=SERVER_BLOCKS * 6 * SERVER_GAP,
            requests_per_client=SERVER_REQUESTS,
            seed=seed,
        )
        return Scenario.from_dict(payload)

    def setup(self) -> None:
        from repro.server.server import BroadcastServer
        from repro.sweep.cache import SolveCache

        BroadcastServer(self.scenario(), cache=SolveCache()).close()

    def rep(self, index: int) -> tuple[int, Any]:
        from repro.server.script import MutationScript
        from repro.sweep.cache import SolveCache

        script = MutationScript.from_payload(
            server_timeline(self.seeds[index])
        )
        log = self.fresh_dir("asrun") / "asrun.jsonl"
        server, result = self.serve(
            self.scenario(index), script, cache=SolveCache(), log_path=log
        )
        return result.final_slot + 1, (server, result, log)

    def serve(self, scenario, script, **options: Any):
        """:func:`repro.server.script.run_script`, with each apply timed.

        The same steps as ``run_script`` with its own defaults: construct
        the server, ``schedule_mutation`` every entry, advance, close.
        Only the advance is split into chunks ending on scripted mutation
        slots, with speed probes between them; the kernel runs the same
        events in the same order as one ``advance()`` would (a test pins
        the result equal to ``run_script``'s).
        """
        from repro.server.script import run_script
        from repro.server.server import BroadcastServer

        defaults = inspect.signature(run_script).parameters
        for option in ("window", "max_boundaries"):
            options.setdefault(option, defaults[option].default)
        server = self.timed(BroadcastServer, scenario, **options)
        apply = server.apply
        calls = self.calls_ms

        def timed_apply(mutation):
            begin = time.perf_counter()
            try:
                return apply(mutation)
            finally:
                calls.append((time.perf_counter() - begin) * 1e3)

        # schedule_mutation's events call ``server.apply``; the instance
        # attribute puts the timer in front of the method.
        server.apply = timed_apply
        for entry in script.entries:
            server.schedule_mutation(entry.at_slot, entry.mutation)
        for entry in script.entries[SERVER_CHUNK - 1::SERVER_CHUNK]:
            self.timed(server.advance, until=entry.at_slot)
        self.timed(server.advance)
        return server, self.timed(server.close)

    def check(self, index: int, output: Any) -> tuple[int, int]:
        server, result, log = output
        try:
            return oracle.check_server(
                server, result, log,
                expected_mutations=SERVER_BLOCKS * 6,
            )
        finally:
            shutil.rmtree(log.parent, ignore_errors=True)


WORKLOADS = {
    cls.name: cls
    for cls in (TrafficFaulty, TrafficQuorum, SweepGrid, ServerMutations)
}


def scratch_root(base: Path) -> Path:
    """A fresh per-run scratch directory under ``base``."""
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=base))


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
