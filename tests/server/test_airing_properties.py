"""Property tests: the spliced walks against a slot-by-slot reference.

:meth:`AirSchedule.retrieve` and :meth:`AirSchedule.retrieve_versioned`
jump service-to-service along each segment's occurrence index.  The
reference below does the naive thing instead - read
:meth:`AirSchedule.content` for every slot of the horizon, ask the fault
model about each service of the file, and apply the cross-segment rules
as the module docstring states them:

* held blocks are discarded when the file's dispersal basis (declared
  IDA level ``m``, else the aired block count) differs from the one
  they were collected under;
* in versioned reads, also when the write slot ``t - t % period`` of
  the segment's update period differs.

Timelines are random: several segments with phase offsets, fault-
budget-only changes (same ``m``), re-dispersals (new ``m``), update-
period changes, files absent from some segments, and Bernoulli or
burst faults.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdisk.flat import build_aida_flat_program
from repro.errors import SimulationError
from repro.rtdb.updates import versioned_horizon
from repro.server.airing import AirSchedule, Segment
from repro.sim.client import default_horizon
from repro.sim.faults import BernoulliFaults, BurstFaults, NoFaults

FILES = ("A", "B")


@st.composite
def segment_specs(draw):
    """One segment's design: which files it airs, at what (m, n)."""
    aired = draw(
        st.lists(st.sampled_from(FILES), min_size=1, max_size=2, unique=True)
    )
    files = []
    for name in sorted(aired):
        m = draw(st.integers(1, 3))
        n = m + draw(st.integers(0, 2))
        files.append((name, m, n))
    periods = {name: draw(st.integers(1, 30)) for name in FILES}
    declared = draw(st.booleans())
    return files, periods, declared


@st.composite
def timelines(draw):
    """A random airing timeline plus one retrieval request against it."""
    specs = draw(st.lists(segment_specs(), min_size=1, max_size=4))
    segments = []
    start = 0
    for files, periods, declared in specs:
        program = build_aida_flat_program(files)
        cycle = program.data_cycle_length
        if segments:
            # Splice on a data-cycle boundary of the outgoing program.
            outgoing = segments[-1].program.data_cycle_length
            start += outgoing * draw(st.integers(1, 3))
        segments.append(Segment(
            start=start,
            program=program,
            update_periods=periods,
            dispersal={name: m for name, m, _ in files} if declared else None,
            phase_offset=draw(st.integers(0, cycle - 1)),
        ))
    schedule = AirSchedule(segments)
    file = draw(st.sampled_from(FILES))
    m_needed = draw(st.integers(1, 4))
    # Half the requests start shortly before a splice, where held
    # blocks meet the cross-segment rules.
    splice = draw(st.sampled_from(schedule.splice_slots or (0,)))
    start = draw(
        st.integers(0, segments[-1].start + 10)
        | st.integers(max(0, splice - 12), splice)
    )
    max_slots = draw(st.none() | st.integers(1, 80))
    return schedule, file, m_needed, start, max_slots


@st.composite
def fault_models(draw):
    """A factory for a fresh fault model (one per walk)."""
    kind = draw(st.sampled_from(["none", "bernoulli", "burst"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "none":
        return NoFaults
    if kind == "bernoulli":
        p = draw(st.floats(0.0, 0.6))
        return lambda: BernoulliFaults(p, seed=seed)
    p_enter = draw(st.floats(0.0, 0.4))
    p_exit = draw(st.floats(0.2, 1.0))
    return lambda: BurstFaults(p_enter, p_exit, seed=seed)


def home_segment(schedule, file, start):
    """The first segment from ``start``'s on that airs ``file``."""
    for segment in schedule.segments[schedule.epoch_of(start):]:
        if file in segment.program.files:
            return segment
    return None


def slot_walk(schedule, file, m_needed, start, faults, horizon, versioned):
    """The reference: visit every slot, ask faults one slot at a time.

    Returns ``(completed, finish_slot, latency, segments_crossed,
    age_at_completion, torn_discards)``.
    """
    first = schedule.epoch_of(start)
    held = set()
    held_key = None
    discards = 0
    for t in range(start, start + horizon):
        content = schedule.content(t)
        if content is None or content.file != file:
            continue
        if faults.is_lost(t):
            continue
        segment = schedule.segment_at(t)
        basis = segment.dispersal_of(file)
        if basis is None:
            basis = segment.program.block_count(file)
        write = t - t % segment.period(file) if versioned else None
        if (basis, write) != held_key:
            discards += len(held)
            held = set()
            held_key = (basis, write)
        held.add(content.block_index)
        if len(held) >= m_needed:
            return (
                True, t, t - start + 1, schedule.epoch_of(t) - first,
                t - write if versioned else None, discards,
            )
    last = start + horizon - 1
    return (
        False, last, None, schedule.epoch_of(last) - first, None, discards
    )


def outcome(result):
    return (
        result.completed,
        result.finish_slot,
        result.latency,
        result.segments_crossed,
        result.age_at_completion,
        result.torn_discards,
    )


@pytest.mark.parametrize("versioned", [False, True])
@given(case=timelines(), make_faults=fault_models())
@settings(max_examples=150, deadline=None)
def test_spliced_walk_matches_slot_walk(versioned, case, make_faults):
    schedule, file, m_needed, start, max_slots = case
    walk = (
        schedule.retrieve_versioned if versioned else schedule.retrieve
    )
    home = home_segment(schedule, file, start)
    if home is None:
        with pytest.raises(SimulationError, match="not broadcast"):
            walk(file, m_needed, start=start, max_slots=max_slots)
        return
    if max_slots is not None:
        horizon = max_slots
    elif versioned:
        horizon = versioned_horizon(
            home.program, m_needed, home.period(file)
        )
    else:
        horizon = default_horizon(home.program, m_needed)
    expected = slot_walk(
        schedule, file, m_needed, start, make_faults(), horizon, versioned
    )
    result = walk(
        file, m_needed, start=start, faults=make_faults(),
        max_slots=max_slots,
    )
    assert outcome(result) == expected
