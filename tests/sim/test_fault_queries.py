"""Which slots the retrieval walks ask the fault model about.

The slot-walking references (:mod:`repro.sim.reference`,
:mod:`repro.rtdb.reference`) ask about every service of the target file
from ``start`` through the finish slot - or through the last slot of the
horizon when the read aborts - and about nothing else.  The occurrence
walks must ask exactly those slots, each once: a slot past the finish
cannot change the outcome, so deciding it is wasted work.  Each fault
query round asks about the next ``m - |held|`` services (the blocks
still missing), which can never reach past the finish slot because one
service adds at most one block.
"""

import pytest

from repro.bdisk.flat import build_aida_flat_program
from repro.rtdb.updates import (
    UpdatingServer,
    retrieve_versioned,
    versioned_horizon,
)
from repro.server.airing import AirSchedule, Segment
from repro.sim.client import default_horizon, retrieve
from repro.sim.faults import BernoulliFaults, BurstFaults

FAULTS = [
    lambda: BernoulliFaults(0.1, seed=3),
    lambda: BernoulliFaults(0.4, seed=11),
    lambda: BurstFaults(0.1, 0.3, seed=5),
]


class Recording:
    """Delegates to a fault model; records every slot it is asked."""

    def __init__(self, model):
        self.model = model
        self.asked = []

    def is_lost(self, t):
        self.asked.append(t)
        return self.model.is_lost(t)

    def lost_in(self, slots):
        self.asked.extend(slots)
        return self.model.lost_in(slots)


def services(program, file, start, last):
    """Services of ``file`` in ``[start, last]`` of one program."""
    slots = []
    for t, _ in program.index.occurrences_from(file, start):
        if t > last:
            return slots
        slots.append(t)


def aired(schedule, file, start, last):
    """Services of ``file`` in ``[start, last]`` of a timeline."""
    return [
        t
        for t in range(start, last + 1)
        if (content := schedule.content(t)) is not None
        and content.file == file
    ]


def last_slot(result, start, horizon):
    return result.finish_slot if result.completed else start + horizon - 1


@pytest.fixture
def timeline(figure6_program):
    """Three segments: a fault-budget change, then a re-dispersal."""
    cycle = figure6_program.data_cycle_length
    budget = build_aida_flat_program([("A", 5, 12), ("B", 3, 6)])
    redispersed = build_aida_flat_program([("A", 4, 6), ("B", 2, 4)])
    return AirSchedule([
        Segment(0, figure6_program, update_periods={"A": 9, "B": 20},
                dispersal={"A": 5, "B": 3}),
        Segment(cycle, budget, update_periods={"A": 9, "B": 20},
                dispersal={"A": 5, "B": 3}, phase_offset=5),
        Segment(cycle + 2 * budget.data_cycle_length, redispersed,
                update_periods={"A": 7, "B": 13},
                dispersal={"A": 4, "B": 2}, phase_offset=3),
    ])


@pytest.mark.parametrize("make_faults", FAULTS)
@pytest.mark.parametrize("need_distinct", [True, False])
@pytest.mark.parametrize("file, m_needed", [("A", 5), ("B", 3), ("B", 7)])
def test_retrieve_asks_only_through_the_finish(
    figure6_program, make_faults, need_distinct, file, m_needed
):
    horizon = default_horizon(figure6_program, m_needed)
    for start in range(0, 40, 3):
        faults = Recording(make_faults())
        result = retrieve(
            figure6_program, file, m_needed, start=start, faults=faults,
            need_distinct=need_distinct,
        )
        last = last_slot(result, start, horizon)
        assert sorted(faults.asked) == services(
            figure6_program, file, start, last
        )


@pytest.mark.parametrize("make_faults", FAULTS)
@pytest.mark.parametrize("file, m_needed", [("A", 5), ("B", 3), ("B", 7)])
def test_retrieve_versioned_asks_only_through_the_finish(
    figure6_program, make_faults, file, m_needed
):
    server = UpdatingServer({"A": 14, "B": 11})
    horizon = versioned_horizon(
        figure6_program, m_needed, server.period(file)
    )
    for start in range(0, 40, 3):
        faults = Recording(make_faults())
        result = retrieve_versioned(
            figure6_program, server, file, m_needed, start=start,
            faults=faults,
        )
        last = last_slot(result, start, horizon)
        assert sorted(faults.asked) == services(
            figure6_program, file, start, last
        )


@pytest.mark.parametrize("make_faults", FAULTS)
@pytest.mark.parametrize("versioned", [False, True])
@pytest.mark.parametrize("file, m_needed", [("A", 5), ("B", 3), ("B", 7)])
def test_spliced_walks_ask_only_through_the_finish(
    timeline, make_faults, versioned, file, m_needed
):
    walk = timeline.retrieve_versioned if versioned else timeline.retrieve
    for start in range(0, 80, 3):
        faults = Recording(make_faults())
        result = walk(file, m_needed, start=start, faults=faults)
        assert sorted(faults.asked) == aired(
            timeline, file, start, result.finish_slot
        )
