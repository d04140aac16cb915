"""Tests of the benchmark itself: names, tracer hygiene, output checks."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import oracle, run
from perfbench.layers import Tracer, originals_restored
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_and_units_are_valid_and_unique():
    metrics = CONFIG["end_to_end"] + CONFIG["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in CONFIG["workloads"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in metrics)


def test_config_lists_exactly_what_the_runs_print():
    per_layer = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    printed = {name: unit for name, (_, unit) in Tracer().metrics().items()}
    printed.update(run.DERIVED_LAYER_METRICS)
    assert per_layer == printed
    end_to_end = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    names = [w["name"] for w in CONFIG["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def test_tracer_counts_calls_and_restores_every_wrapper():
    import repro.sim.faults as faults
    import repro.traffic.engine_soa as engine_soa
    from repro.sim.faults import BernoulliFaults

    original_lost_in = faults.lost_in
    original_method = BernoulliFaults.__dict__["lost_in"]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert engine_soa.lost_in is not original_lost_in
            model = BernoulliFaults(0.5, seed=1)
            engine_soa.lost_in(model, [1, 2, 3])
            model.is_lost(4)
            raise RuntimeError("a failing traced pass still uninstalls")
    stats = tracer.stats["sim.faults.decide"]
    assert stats.calls == 2  # nested lost_in -> model.lost_in counts once
    assert stats.tally == 4
    with tracer:
        with tracer.paused():
            model.is_lost(5)
    assert (stats.calls, stats.tally) == (2, 4)
    assert 0.0 < stats.self_time <= stats.busy + 1e-9
    assert faults.lost_in is original_lost_in
    assert engine_soa.lost_in is original_lost_in
    assert BernoulliFaults.__dict__["lost_in"] is original_method
    assert originals_restored()


def _small_traffic(fault_seed: int):
    from repro.api.scenario import FaultSpec
    from repro.bdisk.multidisk import build_multidisk_program, config_from_demand
    from repro.traffic import TrafficSpec, simulate_traffic
    from perfbench import workloads as w

    program = build_multidisk_program(
        config_from_demand(list(w.FAULTY_FILES), w.FAULTY_DEMAND, levels=(4, 2, 1))
    )
    spec = TrafficSpec(
        clients=60, duration=600, arrival="poisson", popularity="zipf",
        zipf_skew=1.2, requests_per_client=3, think_time=10, seed=11,
    )
    faults = FaultSpec(kind="bernoulli", probability=0.2, seed=fault_seed)
    result = simulate_traffic(
        program, [name for name, _ in w.FAULTY_FILES], spec,
        file_sizes=dict(w.FAULTY_FILES), deadlines=w.FAULTY_DEADLINES,
        faults=faults, engine="soa", trace=True,
    )
    return program, dict(w.FAULTY_FILES), spec, result


def test_output_check_catches_a_result_under_another_fault_seed():
    from repro.api.scenario import FaultSpec

    program, sizes, spec, result = _small_traffic(fault_seed=5)
    same = FaultSpec(kind="bernoulli", probability=0.2, seed=5)
    other = FaultSpec(kind="bernoulli", probability=0.2, seed=6)
    _, failed = oracle.check_plain_traffic(
        program, sizes, spec, same, result, sample=180
    )
    assert failed == 0
    _, failed = oracle.check_plain_traffic(
        program, sizes, spec, other, result, sample=180
    )
    assert failed > 0


def test_server_timeline_is_a_valid_fixed_size_script():
    from repro.server.script import MutationScript
    from perfbench import workloads as w

    script = MutationScript.from_payload(w.server_timeline(3))
    assert len(script) == w.SERVER_BLOCKS * 6
    assert w.server_timeline(3) == w.server_timeline(3)


def test_server_rep_airs_exactly_what_run_script_airs(tmp_path):
    from repro.api.scenario import Scenario
    from repro.server.script import MutationScript, run_script
    from repro.sweep.cache import SolveCache
    from perfbench import workloads as w

    workload = w.ServerMutations(3, 1, tmp_path)
    payload = workload.scenario(0).to_dict()
    payload["traffic"].update(clients=40, duration=4 * 6 * w.SERVER_GAP)
    scenario = Scenario.from_dict(payload)
    script = MutationScript.from_payload(w.server_timeline(5)[: 4 * 6])
    logs = [tmp_path / "rep.jsonl", tmp_path / "script.jsonl"]
    _, measured = workload.serve(
        scenario, script, cache=SolveCache(), log_path=logs[0]
    )
    expected = run_script(scenario, script, cache=SolveCache(), log_path=logs[1])
    assert len(workload.calls_ms) == len(script)
    measured, expected = measured.to_dict(), expected.to_dict()
    assert measured.pop("asrun") == str(logs[0])
    assert expected.pop("asrun") == str(logs[1])
    assert measured == expected
    assert logs[0].read_text() == logs[1].read_text()


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
