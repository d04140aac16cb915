"""The airing timeline: broadcast programs spliced end to end.

An online broadcast server never airs just one program - every accepted
mutation re-solves and splices a successor program in at a data-cycle
boundary.  :class:`AirSchedule` is the resulting timeline: an immutable
sequence of :class:`Segment` records (program + absolute start slot),
where slot ``t`` airs the content at ``segment.phase(t)`` of the
segment covering ``t``.  Splicing at an outgoing *data-cycle* boundary
means the outgoing program has just completed a whole number of content
cycles, so no client mid-retrieval loses blocks it was promised by
rotation.  The incoming program may come on air *phase-rotated*
(``Segment.phase_offset``): a cyclic program has no distinguished
origin - every design guarantee holds from every start phase - so the
splice search is free to rotate the incoming cycle until its early
occurrences dovetail with the outgoing tail.

The schedule is also the retrieval oracle for clients that live through
splices: :meth:`retrieve` (distinct-block IDA reads) and
:meth:`retrieve_versioned` (version-consistent temporal reads) hand the
occurrence-walk kernel of :mod:`repro.sim.client` one leg per segment
that airs the file, so the walk crosses segment boundaries
transparently.  Cross-segment rules:

* **fault decisions are keyed on absolute slots** - the channel is one
  physical medium; a splice does not reshuffle its loss process;
* **dispersal continuity**: held blocks survive a boundary whenever the
  file's IDA level ``m`` is unchanged - a fault-budget bump only grows
  the transmission set ``n_i = m + r``, and any ``m`` distinct blocks
  of the same dispersal still reconstruct; only a genuine re-dispersal
  (different ``m``) restarts collection, counted in ``torn_discards``;
* **version clocks are wall clocks**: a version boundary falls at every
  absolute multiple of the segment's update period, so staleness ages
  carry across the switch un-reset (temporal continuity);
* a file absent from some segment simply contributes no occurrences
  there - the walker waits through to a segment that airs it (or the
  horizon expires).

Everything is deterministic, so the server can *re-walk* an in-flight
retrieval after a splice lands and obtain its revised outcome - the
mechanism behind live completion-event rescheduling.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.errors import SimulationError
from repro.bdisk.program import BroadcastProgram, SlotContent
from repro.sim.client import _Leg, _walk, default_horizon
from repro.sim.faults import FaultModel
from repro.rtdb.updates import _listening_horizon


@dataclass(frozen=True)
class Segment:
    """One program's tenure on the air, from ``start`` (absolute slots).

    ``update_periods`` carries the segment's per-item version clocks
    (temporal scenarios only); ``dispersal`` the per-file IDA level
    ``m`` (NOT the rotation count ``n_i = m + r`` the program airs -
    blocks collected under different fault budgets of the *same*
    dispersal still reconstruct together); ``fingerprint`` and
    ``label`` are provenance for the as-run log - the design
    fingerprint ties an aired segment back to the solve-cache entry
    that produced it.
    """

    start: int
    program: BroadcastProgram
    fingerprint: str = ""
    update_periods: Mapping[str, int] | None = None
    dispersal: Mapping[str, int] | None = None
    phase_offset: int = 0
    label: str = ""

    def dispersal_of(self, file: str) -> int | None:
        """The file's IDA level ``m`` here, or ``None`` when unknown."""
        if self.dispersal is None:
            return None
        return self.dispersal.get(file)

    def __post_init__(self) -> None:
        if self.start < 0:
            raise SimulationError(
                f"segment start must be >= 0: {self.start}"
            )
        if not 0 <= self.phase_offset < self.program.data_cycle_length:
            raise SimulationError(
                f"phase offset must lie within the program's data "
                f"cycle [0, {self.program.data_cycle_length}): "
                f"{self.phase_offset}"
            )

    def phase(self, t: int) -> int:
        """The program phase airing at absolute slot ``t``."""
        return t - self.start + self.phase_offset

    def absolute(self, phase: int) -> int:
        """The absolute slot at which program ``phase`` airs."""
        return self.start - self.phase_offset + phase

    def period(self, file: str) -> int:
        """The file's update period in this segment (temporal only)."""
        if self.update_periods is None or file not in self.update_periods:
            raise SimulationError(
                f"segment at slot {self.start} has no update period "
                f"for {file!r}"
            )
        return self.update_periods[file]


@dataclass(frozen=True)
class SplicedRetrieval:
    """Outcome of a retrieval walked across an airing timeline.

    The :class:`~repro.sim.client.RetrievalResult` /
    :class:`~repro.rtdb.updates.VersionedRetrieval` essentials, plus
    ``segments_crossed`` - how many splice boundaries the walk spanned
    (0 = entirely within one program's tenure).
    """

    file: str
    completed: bool
    finish_slot: int
    latency: int | None
    segments_crossed: int
    age_at_completion: int | None = None
    torn_discards: int = 0


class AirSchedule:
    """An immutable timeline of broadcast programs spliced end to end."""

    __slots__ = ("_segments", "_starts")

    def __init__(self, segments: Sequence[Segment]) -> None:
        if not segments:
            raise SimulationError(
                "an air schedule needs at least one segment"
            )
        for earlier, later in zip(segments, segments[1:]):
            if later.start <= earlier.start:
                raise SimulationError(
                    f"segment starts must be strictly increasing: "
                    f"{earlier.start} then {later.start}"
                )
            cycle = earlier.program.data_cycle_length
            if (later.start - earlier.start) % cycle != 0:
                raise SimulationError(
                    f"splice at slot {later.start} is not on a "
                    f"data-cycle boundary of the outgoing program "
                    f"(starts {earlier.start}, cycle {cycle} slots)"
                )
        self._segments = tuple(segments)
        self._starts = tuple(segment.start for segment in segments)

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The timeline's segments, in airing order."""
        return self._segments

    @property
    def on_air(self) -> Segment:
        """The newest segment (the program currently committed last)."""
        return self._segments[-1]

    @property
    def splice_slots(self) -> tuple[int, ...]:
        """Absolute slots at which a successor program took over."""
        return self._starts[1:]

    def epoch_of(self, t: int) -> int:
        """The index of the segment covering absolute slot ``t``."""
        if t < self._starts[0]:
            raise SimulationError(
                f"slot {t} precedes the airing timeline (first segment "
                f"starts at slot {self._starts[0]})"
            )
        return bisect_right(self._starts, t) - 1

    def segment_at(self, t: int) -> Segment:
        """The segment covering absolute slot ``t``."""
        return self._segments[self.epoch_of(t)]

    def content(self, t: int) -> SlotContent | None:
        """What actually airs at absolute slot ``t`` (None = idle)."""
        segment = self.segment_at(t)
        return segment.program.index.content(segment.phase(t))

    def spliced(self, segment: Segment) -> "AirSchedule":
        """A new timeline with ``segment`` appended at its start slot.

        Validates the splice invariant (strictly later, on an outgoing
        data-cycle boundary); the receiver is unchanged, so a rejected
        candidate costs nothing.
        """
        return AirSchedule(self._segments + (segment,))

    # ------------------------------------------------------------------
    # Retrieval across segments
    # ------------------------------------------------------------------

    def _home(self, file: str, start: int) -> tuple[int, int]:
        """``(first, home)``: the epochs of the segment covering ``start``
        and of the first segment from there that airs ``file``."""
        first = self.epoch_of(start)
        for home in range(first, len(self._segments)):
            if file in self._segments[home].program.files:
                return first, home
        raise SimulationError(
            f"file {file!r} is not broadcast anywhere on the "
            f"timeline from slot {start}"
        )

    def _retrieve(
        self,
        file: str,
        m_needed: int,
        start: int,
        epochs: tuple[int, int],
        horizon: int,
        faults: FaultModel | None,
        versioned: bool,
    ) -> SplicedRetrieval:
        """Walk ``[start, start + horizon)``; ``epochs`` is
        :meth:`_home`'s answer for ``start``."""
        if horizon < 1:
            raise SimulationError(f"horizon must be >= 1: {horizon}")
        first, home = epochs
        end = start + horizon
        finish, _, _, discards, write = _walk(
            self._legs(file, home, start, end, versioned), m_needed, faults
        )
        last = end - 1 if finish is None else finish
        return SplicedRetrieval(
            file=file,
            completed=finish is not None,
            finish_slot=last,
            latency=None if finish is None else finish - start + 1,
            segments_crossed=self.epoch_of(last) - first,
            age_at_completion=(
                finish - write if versioned and finish is not None else None
            ),
            torn_discards=discards,
        )

    def _legs(
        self, file: str, home: int, start: int, end: int, versioned: bool
    ) -> Iterator[_Leg]:
        """The kernel legs of ``[start, end)``: one per segment from
        ``home`` on that airs ``file``, built lazily so a walk that
        finishes early touches no later segment."""
        segments = self._segments
        for epoch in range(home, len(segments)):
            segment = segments[epoch]
            if segment.start >= end:
                return
            if epoch > home and file not in segment.program.files:
                continue
            hi = (
                min(end, self._starts[epoch + 1])
                if epoch + 1 < len(segments)
                else end
            )
            # Reconstruction compatibility: the declared IDA level m,
            # else the aired block count (a conservative stand-in - it
            # also moves when only the fault budget r changed).
            basis = segment.dispersal_of(file)
            if basis is None:
                basis = segment.program.block_count(file)
            yield (
                segment.program,
                file,
                max(start, segment.start),
                hi,
                segment.start - segment.phase_offset,
                basis,
                segment.period(file) if versioned else None,
            )

    def retrieve(
        self,
        file: str,
        m_needed: int,
        *,
        start: int,
        faults: FaultModel | None = None,
        max_slots: int | None = None,
    ) -> SplicedRetrieval:
        """Collect ``m_needed`` distinct blocks of ``file`` from ``start``.

        The cross-segment analogue of :func:`repro.sim.client.retrieve`
        (IDA reads: any ``m`` distinct blocks suffice).  Held blocks
        survive a splice unless the file was re-dispersed at a
        different IDA level ``m``, in which case collection restarts
        and the discarded blocks are counted.  Raises
        :class:`~repro.errors.SimulationError` when no segment from
        ``start`` onward ever airs the file.
        """
        epochs = self._home(file, start)
        horizon = (
            max_slots
            if max_slots is not None
            else default_horizon(self._segments[epochs[1]].program, m_needed)
        )
        return self._retrieve(
            file, m_needed, start, epochs, horizon, faults, False
        )

    def retrieve_versioned(
        self,
        file: str,
        m_needed: int,
        *,
        start: int,
        faults: FaultModel | None = None,
        max_slots: int | None = None,
    ) -> SplicedRetrieval:
        """Collect ``m_needed`` distinct blocks *of one version*.

        The cross-segment analogue of
        :func:`repro.rtdb.updates.retrieve_versioned`.  Version clocks
        are wall clocks: version boundaries fall at absolute multiples
        of the segment's update period, so a splice neither resets an
        item's age nor tears a read by itself - only a genuine version
        boundary (or a re-dispersal) discards held blocks.
        """
        epochs = self._home(file, start)
        home = self._segments[epochs[1]]
        horizon = _listening_horizon(
            home.program, file, m_needed, home.period(file), max_slots
        )
        return self._retrieve(
            file, m_needed, start, epochs, horizon, faults, True
        )

    def __len__(self) -> int:
        return len(self._segments)

    def __repr__(self) -> str:
        splices = ", ".join(str(slot) for slot in self.splice_slots)
        return (
            f"AirSchedule({len(self._segments)} segments"
            + (f", splices at [{splices}]" if splices else "")
            + ")"
        )
