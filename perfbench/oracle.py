"""Output checks against the executable specs.

The benchmark never pins digests of what the program printed: a
deliberate change to the fault stream or a refactor of the retrieval
kernel would break a pinned digest without being wrong.  Instead each
check re-derives a sample of the measured outputs from first
principles:

* traced traffic requests are replayed through the slot-walking
  reference walkers (:mod:`repro.sim.reference`,
  :mod:`repro.rtdb.reference`) under the same fault model;
* sampled sweep cells are re-run from scratch through
  :func:`repro.api.run_scenario`, and the on-disk store is read back;
* a server run must report zero splice violations, and its as-run log
  must parse and agree with the committed airing timeline.

Every check returns ``(checked, failed)``; a mismatch or an exception
counts as one failed op.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any


def _normalized(payload: Any) -> Any:
    return json.loads(json.dumps(payload))


def check_plain_traffic(
    program, file_sizes, spec, faults, result, *, sample: int
) -> tuple[int, int]:
    """Replay ``sample`` traced single-channel requests.

    A plain request issued at slot ``t`` listens from ``t`` for the
    default horizon; its latency must equal the reference slot walker's
    under a fresh instance of the same fault model.
    """
    from repro.sim import reference

    failed = 0
    expected = spec.clients * spec.requests_per_client
    if result.requests != expected or len(result.trace) != expected:
        failed += 1
    records = list(result.trace)
    picks = random.Random(spec.seed).sample(
        range(len(records)), min(sample, len(records))
    )
    model = faults.build()
    for position in picks:
        record = records[position]
        try:
            m = file_sizes[record.file]
            horizon = (
                spec.max_slots
                if spec.max_slots is not None
                else (m + 2) * program.data_cycle_length
            )
            walk = reference.retrieve(
                program, record.file, m,
                start=record.issued, faults=model,
                need_distinct=True, max_slots=horizon,
            )
            if walk.latency != record.latency or record.cache_hit:
                failed += 1
        except Exception:  # noqa: BLE001 - any exception is a failed op
            failed += 1
    return len(picks) + 1, failed


def check_quorum_traffic(
    scenario, channels, result, *, clients: int, seed: int
) -> tuple[int, int]:
    """Replay whole histories of ``clients`` sampled clients.

    A client's tuned channel carries across its transactions, so a
    history is replayed in issue order: each transaction reads its items
    sequentially with the slot-walking quorum reference, and the
    response time must match the traced one.
    """
    from repro.rtdb import reference

    failed = 0
    spec = scenario.traffic
    expected = spec.clients * spec.requests_per_client
    if result.requests != expected or len(result.trace) != expected:
        failed += 1
    temporal = scenario.temporal
    mix = {txn.name: txn.items for txn in temporal.transactions}
    sizes = {file.name: file.blocks for file in scenario.files}
    server = temporal.server()
    models = [
        scenario.faults.for_channel(channel).build()
        for channel in range(channels.count)
    ]
    by_client: dict[int, list[Any]] = {}
    for record in result.trace:
        by_client.setdefault(record.client, []).append(record)
    picks = random.Random(seed).sample(
        sorted(by_client), min(clients, len(by_client))
    )
    checked = 1
    for client in picks:
        tuned = 0
        for record in sorted(by_client[client], key=lambda r: r.issued):
            checked += 1
            try:
                clock = finish = record.issued
                aborted = False
                for item in mix[record.file]:
                    read = reference.retrieve_versioned_quorum(
                        channels, server, item, sizes[item],
                        start=clock, tuned=tuned, faults=models,
                        max_slots=spec.max_slots,
                    )
                    tuned = read.tuned
                    finish = read.finish_slot
                    if not read.completed:
                        aborted = True
                        break
                    clock = finish + 1
                response = None if aborted else finish - record.issued + 1
                if response != record.latency:
                    failed += 1
            except Exception:  # noqa: BLE001 - any exception is a failed op
                failed += 1
    return checked, failed


def check_sweep(
    spec, result, store: Path, *, sample: int, seed: int,
    distinct_designs: int,
) -> tuple[int, int]:
    """Check a sweep's rows, its store, and ``sample`` re-run cells."""
    from repro.api import run_scenario
    from repro.sweep.store import RunStore

    failed = 0
    cells = spec.cells()
    keys = [cell.key for cell in cells]
    if [row["key"] for row in result.rows] != keys:
        failed += 1
    if result.solves != distinct_designs:
        failed += 1
    stored = {row["key"]: row for row in RunStore(store).rows()}
    for row in result.rows:
        if _normalized(stored.get(row["key"])) != _normalized(row):
            failed += 1
    picks = random.Random(seed).sample(range(len(cells)), min(sample, len(cells)))
    for position in picks:
        try:
            fresh = run_scenario(cells[position].scenario).to_dict()
            if _normalized(fresh) != _normalized(result.rows[position]["result"]):
                failed += 1
        except Exception:  # noqa: BLE001 - any exception is a failed op
            failed += 1
    return 2 + len(result.rows) + len(picks), failed


def _content(content: Any) -> str:
    """One slot's airing in the as-run log's notation."""
    if content is None:
        return "-"
    return f"{content.file}[{content.block_index}]"


def check_server(
    server, result, log: Path, *, expected_mutations: int
) -> tuple[int, int]:
    """Zero violations and an as-run log consistent with the timeline.

    Every splice record's planned-vs-aired window must agree strictly
    before the splice slot, and its aired half must be what the
    committed timeline airs (up to the next splice, after which the
    timeline has moved on).
    """
    from repro.server.asrun import read_asrun

    failed = len(result.violations)
    if len(result.mutations) != expected_mutations:
        failed += 1
    try:
        records = read_asrun(log)
    except Exception:  # noqa: BLE001 - an unreadable log is a failure
        return 1, failed + 1
    splices = [r for r in records if r["type"] == "splice"]
    sign_off = [r for r in records if r["type"] == "sign-off"]
    if len(sign_off) != 1 or sign_off[0].get("violations") != 0:
        failed += 1
    if [r for r in records if r["type"] == "violation"]:
        failed += 1
    if tuple(r["slot"] for r in splices) != result.splice_slots:
        failed += 1
    schedule = server.schedule
    bounds = list(result.splice_slots[1:]) + [None]
    for record, next_splice in zip(splices, bounds):
        window = record["window"]
        splice_slot = window["splice_slot"]
        start = window["from_slot"]
        planned, aired = window["planned"], window["aired"]
        before = splice_slot - start
        if len(planned) != len(aired) or planned[:before] != aired[:before]:
            failed += 1
            continue
        for offset, logged in enumerate(aired):
            slot = start + offset
            if next_splice is not None and slot >= next_splice:
                break
            if _content(schedule.content(slot)) != logged:
                failed += 1
                break
    return 3 + len(splices), failed
