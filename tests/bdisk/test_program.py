"""Tests for the BroadcastProgram abstraction (periods, gaps, rotation)."""

import pickle

import pytest

from repro.bdisk.program import BroadcastProgram, SlotContent
from repro.core.schedule import IDLE, Schedule
from repro.errors import ProgramError


class TestStructure:
    def test_figure6_periods(self, figure6_program):
        assert figure6_program.broadcast_period == 8
        assert figure6_program.data_cycle_length == 16

    def test_figure5_data_cycle_equals_period(self, figure5_program):
        assert figure5_program.broadcast_period == 8
        assert figure5_program.data_cycle_length == 8

    def test_block_counts(self, figure6_program):
        assert figure6_program.block_count("A") == 10
        assert figure6_program.block_count("B") == 6

    def test_rejects_unknown_block_counts(self):
        schedule = Schedule(["A", "B"])
        with pytest.raises(ProgramError):
            BroadcastProgram(schedule, {"A": 1, "B": 1, "C": 4})

    def test_rejects_nonpositive_block_count(self):
        with pytest.raises(ProgramError):
            BroadcastProgram(Schedule(["A"]), {"A": 0})

    def test_data_cycle_lcm_of_rotations(self):
        # A appears twice per period, rotates through 3 blocks -> the
        # content repeats after lcm(3,2)/2 = 3 periods.
        schedule = Schedule(["A", "A", IDLE])
        program = BroadcastProgram(schedule, {"A": 3})
        assert program.data_cycle_length == 9

    def test_files_survive_a_pickle_round_trip(self):
        # The pickle state holds only the schedule, the block counts and
        # the data cycle; the files tuple is rebuilt on load.
        program = BroadcastProgram(
            Schedule(["B", IDLE, "A", "B", "C"]), {"A": 2}
        )
        clone = pickle.loads(pickle.dumps(program))
        assert clone.files == program.files == ("B", "A", "C")


class TestContent:
    def test_rotation_sequence(self):
        schedule = Schedule(["A", IDLE])
        program = BroadcastProgram(schedule, {"A": 3})
        indices = [
            program.slot_content(t).block_index for t in range(0, 12, 2)
        ]
        assert indices == [0, 1, 2, 0, 1, 2]

    def test_idle_slots_are_none(self):
        schedule = Schedule(["A", IDLE])
        program = BroadcastProgram(schedule, {"A": 1})
        assert program.slot_content(1) is None

    def test_figure6_first_period_content(self, figure6_program):
        rendered = figure6_program.render(periods=1)
        assert rendered == "A'1 B'1 A'2 A'3 B'2 A'4 B'3 A'5"

    def test_figure6_second_period_rotates(self, figure6_program):
        rendered = figure6_program.render()
        assert rendered.endswith(
            "A'6 B'4 A'7 A'8 B'5 A'9 B'6 A'10"
        )

    def test_figure5_repeats_same_blocks(self, figure5_program):
        first = [figure5_program.slot_content(t) for t in range(8)]
        second = [figure5_program.slot_content(t) for t in range(8, 16)]
        assert first == second

    def test_slot_content_periodic_in_data_cycle(self, figure6_program):
        cycle = figure6_program.data_cycle_length
        for t in range(cycle):
            assert figure6_program.slot_content(t) == (
                figure6_program.slot_content(t + cycle)
            )

    def test_slots_iterator(self, figure5_program):
        slots = list(figure5_program.slots(3))
        assert slots[0] == (0, SlotContent("A", 0))


class TestMetrics:
    def test_figure6_gaps(self, figure6_program):
        assert figure6_program.max_gap("A") == 2
        assert figure6_program.max_gap("B") == 3

    def test_max_gap_unknown_file(self, figure6_program):
        with pytest.raises(ProgramError):
            figure6_program.max_gap("Z")

    def test_min_count_in_window(self, figure6_program):
        assert figure6_program.min_count_in_window("A", 8) == 5
        assert figure6_program.min_count_in_window("B", 8) == 3

    def test_min_distinct_in_window_figure6(self, figure6_program):
        # Every 8-slot window carries >= 5 distinct A-blocks and >= 3
        # distinct B-blocks - the reconstruct-within-one-period property.
        assert figure6_program.min_distinct_in_window("A", 8) >= 5
        assert figure6_program.min_distinct_in_window("B", 8) >= 3

    def test_figure5_distinct_bounded_by_size(self, figure5_program):
        # No rotation: only m distinct blocks exist.
        assert figure5_program.min_distinct_in_window("A", 16) == 5

    def test_verify_fault_tolerance(self, figure6_program):
        # One period gives exactly m distinct blocks - 0 faults only;
        # two periods give 2m >= m + r for r <= m.
        assert figure6_program.verify_fault_tolerance("B", 3, 0, 8)
        assert figure6_program.verify_fault_tolerance("B", 3, 3, 16)
        assert not figure6_program.verify_fault_tolerance("B", 3, 4, 8)


class TestRendering:
    def test_render_marks_idle(self):
        program = BroadcastProgram(Schedule(["A", IDLE]), {"A": 1})
        assert program.render() == "A'1 --"

    def test_repr(self, figure6_program):
        assert "period=8" in repr(figure6_program)
