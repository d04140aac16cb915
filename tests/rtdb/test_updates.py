"""Tests for update dissemination and temporal consistency."""

import pytest

from repro.bdisk.flat import build_aida_flat_program
from repro.bdisk.multichannel import ChannelSet
from repro.errors import SimulationError, SpecificationError
from repro.rtdb import updates
from repro.rtdb.updates import (
    UpdatingServer,
    consistency_rate,
    retrieve_versioned,
    retrieve_versioned_quorum,
    versioned_horizon,
)
from repro.server.airing import AirSchedule, Segment
from repro.sim.client import default_horizon
from repro.sim.faults import BernoulliFaults


def make_program():
    return build_aida_flat_program([("A", 5, 10), ("B", 3, 6)])


class TestUpdatingServer:
    def test_version_clock(self):
        server = UpdatingServer({"A": 10})
        assert server.version_at("A", 0) == 0
        assert server.version_at("A", 9) == 0
        assert server.version_at("A", 10) == 1
        assert server.write_slot("A", 3) == 30

    def test_validation(self):
        with pytest.raises(SpecificationError):
            UpdatingServer({"A": 0})

    def test_unknown_item(self):
        server = UpdatingServer({"A": 10})
        with pytest.raises(SimulationError):
            server.period("B")


class TestRetrieveVersioned:
    def test_slow_updates_no_tearing(self):
        """Updates slower than the retrieval never tear."""
        program = make_program()
        server = UpdatingServer({"A": 1_000, "B": 1_000})
        result = retrieve_versioned(program, server, "B", 3)
        assert result.completed
        assert result.version == 0
        assert result.torn_discards == 0

    def test_fast_updates_cause_tearing(self):
        """An update landing mid-retrieval discards stale blocks.

        With a 6-slot update period, at most two B-blocks of any version
        air before the next version lands, until the rotation aligns -
        the read tears twice and completes late on version 2."""
        program = make_program()
        server = UpdatingServer({"A": 6, "B": 6})
        result = retrieve_versioned(program, server, "B", 3)
        assert result.completed
        assert result.torn_discards > 0
        assert result.latency > 7  # slower than the fault-free 7

    def test_age_measured_from_version_write(self):
        program = make_program()
        server = UpdatingServer({"A": 8, "B": 8})
        result = retrieve_versioned(program, server, "B", 3)
        assert result.completed
        write = server.write_slot("B", result.version)
        assert result.age_at_completion == result.finish_slot - write

    def test_impossible_when_updates_beat_retrieval(self):
        """If every version dies before m blocks of it can air, the
        retrieval never completes - the feasibility cliff that makes
        the paper's latency budgeting necessary."""
        program = make_program()
        server = UpdatingServer({"A": 2, "B": 2})
        result = retrieve_versioned(
            program, server, "B", 3, max_slots=500
        )
        assert not result.completed
        assert result.torn_discards > 0

    def test_unknown_file_rejected(self):
        program = make_program()
        server = UpdatingServer({"A": 5})
        with pytest.raises(SimulationError):
            retrieve_versioned(program, server, "Z", 1)

    def test_faults_interact_with_versions(self):
        program = make_program()
        server = UpdatingServer({"A": 100, "B": 100})
        result = retrieve_versioned(
            program, server, "B", 3,
            faults=BernoulliFaults(0.2, seed=4),
        )
        assert result.completed


class TestDefaultHorizon:
    def test_bounded_for_long_periods(self):
        """The default horizon grows at most twofold in the period.

        The old convention ``(m + 2) * (cycle + period)`` walked
        billions of slots for a slow item; the derived bound caps the
        period's contribution at one plain-retrieval horizon.
        """
        program = make_program()
        base = default_horizon(program, 3)
        assert versioned_horizon(program, 3, 10**9) == 2 * base
        assert versioned_horizon(program, 3, 1) == base + 1

    def test_long_period_retrieval_is_cheap_and_complete(self):
        """A year-long update period must not cost a year-long walk."""
        program = make_program()
        server = UpdatingServer({"A": 10**9, "B": 10**9})
        result = retrieve_versioned(program, server, "B", 3)
        assert result.completed
        assert result.version == 0

    def test_fault_free_guarantee_within_two_cycles(self):
        """period >= cycle: fault-free retrievals finish in <= 2 cycles
        (the guarantee the default horizon is documented to cover)."""
        program = make_program()
        cycle = program.data_cycle_length
        server = UpdatingServer({"A": cycle, "B": cycle})
        for phase in range(cycle):
            result = retrieve_versioned(
                program, server, "B", 3, start=phase
            )
            assert result.completed
            assert result.latency <= 2 * cycle

    def test_budget_guard_raises_instead_of_walking(self, monkeypatch):
        program = make_program()
        server = UpdatingServer({"A": 10, "B": 10})
        monkeypatch.setattr(updates, "MAX_DEFAULT_HORIZON", 10)
        with pytest.raises(SimulationError) as excinfo:
            retrieve_versioned(program, server, "B", 3)
        assert "max_slots" in str(excinfo.value)
        # An explicit horizon is the caller's deliberate choice and is
        # honoured whatever the budget says.
        result = retrieve_versioned(
            program, server, "B", 3, max_slots=500
        )
        assert result.completed

    def test_every_versioned_walk_raises_the_same_budget_error(
        self, monkeypatch
    ):
        program = make_program()
        periods = {"A": 10, "B": 10}
        server = UpdatingServer(periods)
        channels = ChannelSet((program,), {"A": (0,), "B": (0,)})
        timeline = AirSchedule(
            [Segment(0, program, update_periods=periods)]
        )
        monkeypatch.setattr(updates, "MAX_DEFAULT_HORIZON", 10)
        walks = (
            lambda: retrieve_versioned(program, server, "B", 3),
            lambda: retrieve_versioned_quorum(channels, server, "B", 3),
            lambda: timeline.retrieve_versioned("B", 3, start=0),
        )
        messages = set()
        for walk in walks:
            with pytest.raises(SimulationError) as excinfo:
                walk()
            messages.add(str(excinfo.value))
        assert len(messages) == 1
        (message,) = messages
        cycle = program.data_cycle_length
        assert f"(m=3, data cycle {cycle}, period 10)" in message


class TestConsistencyRate:
    def test_generous_budget_always_fresh(self):
        program = make_program()
        server = UpdatingServer({"A": 64, "B": 64})
        rate = consistency_rate(program, server, "B", 3, 200)
        assert rate == 1.0

    def test_tight_budget_drops_rate(self):
        program = make_program()
        server = UpdatingServer({"A": 64, "B": 64})
        generous = consistency_rate(program, server, "B", 3, 80)
        tight = consistency_rate(program, server, "B", 3, 12)
        assert tight <= generous
        assert tight < 1.0

    def test_validation(self):
        program = make_program()
        server = UpdatingServer({"A": 64, "B": 64})
        with pytest.raises(SpecificationError):
            consistency_rate(program, server, "B", 3, 0)
